import json
import math

import numpy as np
import pytest

from locrad.cli import RunConfig, UsageError, execute, main, parse_config
from locrad.rademacher import RademacherDraw

from conftest import brute_local_norm


def run(args):
    return main(args)


def test_parse_requires_command():
    with pytest.raises(UsageError):
        parse_config([])
    assert run([]) == 1


def test_parse_rejects_eps_and_delta():
    with pytest.raises(UsageError):
        parse_config(["bound", "--n", "100", "--eps", "0.1", "--delta", "0.05"])


def test_parse_unknown_flag():
    with pytest.raises(UsageError):
        parse_config(["bound", "--frobnicate", "1"])


def test_parse_bound_eps_rule():
    cfg = parse_config(["bound", "--class", "intervals", "--n", "2000",
                        "--delta", "0.05", "--seed", "7"])
    assert cfg.command == "bound"
    assert cfg.options["n"] == 2000
    assert cfg.options["delta"] == 0.05
    # the eps rule itself is applied downstream; check the resolved value
    eps = 2.0 * math.log(2 * 8 / 0.05) / 2000
    assert eps == pytest.approx(2.0 * math.log(320.0) / 2000.0, rel=1e-12)


def test_config_file_merging(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("n=500\nseed=9\ntarget=0.2,0.6\n")
    cfg = parse_config(["bound", "--config", str(path), "--seed", "11"])
    assert cfg.options["n"] == 500
    assert cfg.options["seed"] == 11  # flag wins over file
    assert cfg.options["target"] == "0.2,0.6"


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("frobnicate=1\n")
    with pytest.raises(UsageError):
        parse_config(["bound", "--config", str(path)])


def test_config_file_malformed(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("just a line\n")
    with pytest.raises(UsageError):
        parse_config(["bound", "--config", str(path)])


def test_bound_csv_output(tmp_path):
    out = tmp_path / "trace.csv"
    code = run(["bound", "--n", "200", "--delta", "0.05", "--seed", "7",
                "--target", "0.25,0.75", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("# locrad")
    assert "k,r_bar,local_norm" in text
    data_lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert data_lines[1].startswith("0,1,")


def test_bound_json_output(tmp_path):
    out = tmp_path / "trace.json"
    code = run(["bound", "--n", "100", "--eps", "0.05", "--seed", "3",
                "--target", "empty", "--constants", "unit",
                "--out", str(out), "--format", "json"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["version"] == "0.1.0"
    assert 0.0 < payload["bound"] <= 1.0
    assert payload["config"]["n"] == 100


def test_json_format_without_out_prints_json(tmp_path, capsys):
    args = ["bound", "--n", "100", "--eps", "0.05", "--seed", "3",
            "--target", "0.2,0.7", "--constants", "unit", "--format", "json"]
    out = tmp_path / "trace.json"
    assert run(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert run(args) == 0
    printed = capsys.readouterr().out
    assert printed == out.read_text()
    assert json.loads(printed)["config"]["target"] == "0.2,0.7"
    assert run(args[:-2]) == 0  # the csv default still prints bare rows
    assert capsys.readouterr().out.startswith("k,r_bar,local_norm\n0,1,")


def test_bound_resolves_eps_from_delta(tmp_path):
    out = tmp_path / "trace.json"
    code = run(["bound", "--n", "2000", "--delta", "0.05", "--seed", "7",
                "--target", "0.25,0.75", "--out", str(out), "--format", "json"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["eps"] == pytest.approx(2.0 * math.log(320.0) / 2000.0, rel=1e-12)


def test_bound_finite_class(tmp_path):
    class_csv = tmp_path / "cls.csv"
    class_csv.write_text("0,0,0\n0,1,0\n")
    sample_csv = tmp_path / "pts.csv"
    sample_csv.write_text("0.1\n0.5\n0.9\n")
    out = tmp_path / "b.json"
    code = run(["bound", "--class", "finite", "--class-csv", str(class_csv),
                "--sample-csv", str(sample_csv), "--target", "0",
                "--eps", "0.1", "--out", str(out), "--format", "json"])
    assert code == 0


def test_bound_finite_class_two_column_sample(tmp_path):
    rng = np.random.default_rng(12)
    points = rng.random((10, 2))
    vectors = np.vstack([np.zeros(10), (rng.random((5, 10)) < 0.4).astype(float),
                         rng.random((2, 10))])
    sample_csv = tmp_path / "pts.csv"
    np.savetxt(sample_csv, points, delimiter=",", fmt="%.17g")
    class_csv = tmp_path / "cls.csv"
    np.savetxt(class_csv, vectors, delimiter=",", fmt="%.17g")
    out = tmp_path / "b.json"
    code = run(["bound", "--class", "finite", "--class-csv", str(class_csv),
                "--sample-csv", str(sample_csv), "--target", "2", "--seed", "5",
                "--eps", "0.01", "--constants", "unit", "--iterations", "3",
                "--out", str(out), "--format", "json"])
    assert code == 0
    trace = json.loads(out.read_text())["trace"]
    reduced = np.unique(np.abs(vectors - vectors[2]), axis=0)
    signs = RademacherDraw.from_seed(5, 10).signs
    assert len(trace) == 4 and trace[-1]["local_norm"] is None
    for step in trace[:-1]:
        want = brute_local_norm(reduced, signs, 2.0 * step["r_bar"])
        assert step["local_norm"] == pytest.approx(want, abs=1e-15)


def test_coverage_outputs_and_exit(tmp_path):
    out = tmp_path / "cov.csv"
    code = run(["coverage", "--n", "200", "--reps", "5", "--eps", "0.05",
                "--seed", "3", "--target", "0.25,0.75", "--out", str(out)])
    assert code == 0
    header = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
    assert header == "rep,n,eps,N,bound,risk,violated"


def test_coverage_exit_three_on_violations(tmp_path):
    # tiny custom constants force the bound below the risk on every rep
    # while n * eps keeps the certificate small, so the frequency must
    # exceed the tolerance
    out = tmp_path / "cov.csv"
    code = run(["coverage", "--n", "500", "--reps", "8", "--eps", "0.1",
                "--seed", "5", "--target", "0.25,0.75",
                "--constants", "custom", "--k1", "1e-6", "--k2", "1e-6",
                "--k3", "1e-6", "--out", str(out)])
    assert code == 3


def test_rates_outputs_slope(tmp_path):
    out = tmp_path / "rates.json"
    code = run(["rates", "--n-grid", "128,256,512,1024", "--reps", "3",
                "--seed", "2", "--constants", "unit",
                "--out", str(out), "--format", "json"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert "slope" in payload["aggregates"]
    assert len(payload["aggregates"]["per_n"]) == 4


def test_rates_csv_schema(tmp_path):
    out = tmp_path / "rates.csv"
    code = run(["rates", "--n-grid", "128,256,512,1024", "--reps", "2",
                "--seed", "2", "--constants", "unit", "--out", str(out)])
    assert code == 0
    header = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
    assert header == "n,bound_median,risk_median"


def test_oracle_command(tmp_path):
    out = tmp_path / "oracle.csv"
    code = run(["oracle", "--n", "200", "--seed", "4", "--target", "0.3,0.7",
                "--k-max", "4", "--out", str(out)])
    assert code == 0
    rows = [l.split(",") for l in out.read_text().splitlines()
            if l and not l.startswith("#")][1:]
    radii = [float(r[1]) for r in rows]
    assert radii[0] == 1.0
    assert all(b <= a for a, b in zip(radii, radii[1:]))


def test_fixedpoint_command(tmp_path):
    out = tmp_path / "fp.csv"
    code = run(["fixedpoint", "--entropy", "power:1,1", "--variant", "bracketing",
                "--n-grid", "100,1000,10000,100000", "--out", str(out)])
    assert code == 0
    rows = [l.split(",") for l in out.read_text().splitlines()
            if l and not l.startswith("#")][1:]
    pairs = [(int(r[0]), float(r[1])) for r in rows]
    from locrad.entropy import rate_exponent_fit
    slope, _ = rate_exponent_fit(pairs)
    assert slope == pytest.approx(-2.0 / 3.0, abs=0.05)


def test_fixedpoint_vc_command(tmp_path):
    out = tmp_path / "fp.csv"
    code = run(["fixedpoint", "--entropy", "vc:7", "--variant", "random",
                "--n", "100", "--out", str(out)])
    assert code == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    delta = float(rows[0].split(",")[1])
    assert delta == pytest.approx(math.log(7) / 100.0, rel=1e-8)


def test_entropy_command(tmp_path):
    out = tmp_path / "ent.csv"
    code = run(["entropy", "--n", "30", "--seed", "3",
                "--radii", "0.05,0.2,0.5", "--out", str(out)])
    assert code == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 3


def test_diagnose_command(tmp_path):
    out = tmp_path / "diag.csv"
    code = run(["diagnose", "--n", "120", "--eps", "0.05", "--seed", "6",
                "--target", "0.3,0.7", "--r-grid", "0.25,0.75",
                "--mc-draws", "8", "--out", str(out)])
    assert code == 0
    header = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
    assert header == "r,phi1,phi2,phi3,phi4,phi5,phi6"


def test_unwritable_output_exits_two():
    code = run(["bound", "--n", "50", "--eps", "0.1", "--target", "empty",
                "--out", "/nonexistent-dir/trace.csv"])
    assert code == 2


def test_byte_identical_reruns(tmp_path):
    args = ["coverage", "--n", "150", "--reps", "4", "--eps", "0.05",
            "--seed", "21", "--target", "0.25,0.75"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_execute_unknown_command():
    with pytest.raises(UsageError):
        execute(RunConfig(command="nope", options={}))


def test_config_file_run_matches_flags(tmp_path):
    cfg = tmp_path / "cov.cfg"
    cfg.write_text(
        "n=150\nreps=4\neps=0.05\nseed=21\ntarget=0.25,0.75\nlearner=minimal\n"
    )
    out_cfg = tmp_path / "from_cfg.csv"
    out_flags = tmp_path / "from_flags.csv"
    assert run(["coverage", "--config", str(cfg), "--out", str(out_cfg)]) == 0
    assert run(["coverage", "--n", "150", "--reps", "4", "--eps", "0.05",
                "--seed", "21", "--target", "0.25,0.75", "--learner", "minimal",
                "--out", str(out_flags)]) == 0
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("#")]
    assert strip(out_cfg.read_text()) == strip(out_flags.read_text())
