"""Command-line front end: config parsing, orchestration, CSV/JSON output.

Commands
--------
bound       one localization run; emits the trace (k, r_bar, local_norm)
coverage    replicated coverage experiment (rep, n, eps, N, bound, risk, violated)
rates       median bound per n with a fitted slope (n, bound_median, risk_median)
oracle      oracle radius sequence for one instance (k, r_k)
fixedpoint  entropy fixed points over an n-grid (n, delta)
entropy     empirical covering entropy of a restriction (u, H)
diagnose    phi-ladder diagnostics (r, phi1..phi6)

Input formats
-------------
Sample CSV: one point per row, d columns, optional header row.
Finite-class CSV: one value vector per row, n columns.
Config file: flat key=value lines ('#' comments); keys are the long
option names with dashes replaced by underscores.  Command-line flags
override file values; unknown keys are rejected.

Exit codes: 0 success, 1 usage error, 2 runtime error, 3 coverage
violation frequency above the certificate tolerance.

Environment: LOCRAD_THREADS caps the replication worker count.

Every output embeds the resolved configuration and the library version;
reals are written with 17 significant digits so identical configs and
seeds reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .classes import (
    ConceptClass,
    load_sample_csv,
    load_vectors_csv,
    restrict,
)
from .entropy import (
    EntropyCurve,
    curve_fixed_point,
    empirical_covering_entropy,
    inclusion_to_bracketing,
    rate_exponent_fit,
)
from .rademacher import risk_bound
from .simulate import (
    DistributionSpec,
    diagnose_ladder,
    draw_sample,
    interval_labels,
    oracle_sequence,
    run_coverage,
    run_rates,
)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    """Fully resolved invocation: command plus its option mapping."""

    command: str
    options: dict

    def get(self, key, default=None):
        value = self.options.get(key, None)
        return default if value is None else value


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def _config_lines(config: dict) -> list[str]:
    lines = [f"# locrad {__version__}"]
    for key in sorted(config):
        lines.append(f"# {key}={_fmt(config[key])}")
    return lines


def write_csv(path: str, config: dict, columns: list[str], rows) -> None:
    out = _config_lines(config)
    out.append(",".join(columns))
    for row in rows:
        out.append(",".join(_fmt(cell) for cell in row))
    with open(path, "w") as handle:
        handle.write("\n".join(out) + "\n")


def _json_text(payload: dict) -> str:
    payload = dict(payload)
    payload["version"] = __version__
    return json.dumps(_plain(payload), indent=2, sort_keys=True) + "\n"


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        handle.write(_json_text(payload))


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if hasattr(obj, "__dataclass_fields__"):
        return _plain(vars(obj))
    return obj


def _read_config_file(path: str) -> list[str]:
    """Flat key=value file rendered as option tokens (flags still win)."""
    tokens = []
    with open(path) as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"malformed config line: {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            flag = "--" + key.replace("_", "-")
            if value.lower() in ("true", "false"):
                if value.lower() == "true":
                    tokens.append(flag)
            else:
                tokens.extend([flag, value])
    return tokens


def _add_common(parser: _Parser) -> None:
    parser.add_argument("--out", default=None, help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--config", default=None, help="flat key=value config file")


def _add_localization(parser: _Parser) -> None:
    parser.add_argument("--eps", type=float, default=None)
    parser.add_argument("--delta", type=float, default=None,
                        help="confidence level; mutually exclusive with --eps")
    parser.add_argument("--gamma", type=float, default=0.5)
    parser.add_argument("--gamma-prime", type=float, default=0.5)
    parser.add_argument("--constants", choices=("safe", "unit", "custom"), default="safe")
    parser.add_argument("--k1", type=float, default=None)
    parser.add_argument("--k2", type=float, default=None)
    parser.add_argument("--k3", type=float, default=None)
    parser.add_argument("--iterations", type=int, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="locrad", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    p_bound = sub.add_parser("bound", help="one localization run")
    p_bound.add_argument("--class", dest="class_kind",
                         choices=("intervals", "finite"), default="intervals")
    p_bound.add_argument("--class-csv", default=None)
    p_bound.add_argument("--sample-csv", default=None)
    p_bound.add_argument("--dist", default="uniform")
    p_bound.add_argument("--n", type=int, default=None)
    p_bound.add_argument("--seed", type=int, default=0)
    p_bound.add_argument("--target", default="empty",
                         help='"empty", "lo,hi", or a finite-class row index')
    _add_localization(p_bound)
    _add_common(p_bound)

    p_cov = sub.add_parser("coverage", help="replicated coverage experiment")
    p_cov.add_argument("--n", type=int, required=True)
    p_cov.add_argument("--reps", type=int, default=100)
    p_cov.add_argument("--seed", type=int, default=0)
    p_cov.add_argument("--dist", default="uniform")
    p_cov.add_argument("--target", default="0.25,0.75")
    p_cov.add_argument("--learner", choices=("minimal", "worst"), default="minimal")
    _add_localization(p_cov)
    _add_common(p_cov)

    p_rates = sub.add_parser("rates", help="rate experiment over an n-grid")
    p_rates.add_argument("--n-grid", required=True,
                         help="comma-separated strictly increasing sizes")
    p_rates.add_argument("--reps", type=int, default=20)
    p_rates.add_argument("--seed", type=int, default=0)
    p_rates.add_argument("--dist", default="uniform")
    p_rates.add_argument("--target", default="empty")
    _add_localization(p_rates)
    _add_common(p_rates)

    p_oracle = sub.add_parser("oracle", help="oracle radius sequence")
    p_oracle.add_argument("--n", type=int, required=True)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--dist", default="uniform")
    p_oracle.add_argument("--target", default="0.25,0.75")
    p_oracle.add_argument("--k-max", type=int, default=6)
    _add_common(p_oracle)

    p_fix = sub.add_parser("fixedpoint", help="entropy fixed points")
    p_fix.add_argument("--entropy", required=True,
                       help='"power:A,g", "vc:count", "zero", or "file:PATH"')
    p_fix.add_argument("--variant", choices=("random", "bracketing"), default="bracketing")
    p_fix.add_argument("--inclusion", action="store_true",
                       help="convert an inclusion-scale curve before solving")
    p_fix.add_argument("--density-bound", type=float, default=1.0)
    p_fix.add_argument("--K", type=float, default=1.0)
    p_fix.add_argument("--n", type=int, default=None)
    p_fix.add_argument("--n-grid", default=None)
    _add_common(p_fix)

    p_ent = sub.add_parser("entropy", help="empirical covering entropy")
    p_ent.add_argument("--n", type=int, required=True)
    p_ent.add_argument("--seed", type=int, default=0)
    p_ent.add_argument("--dist", default="uniform")
    p_ent.add_argument("--radii", default="0.05,0.1,0.2,0.4")
    _add_common(p_ent)

    p_diag = sub.add_parser("diagnose", help="phi-ladder diagnostics")
    p_diag.add_argument("--n", type=int, required=True)
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.add_argument("--dist", default="uniform")
    p_diag.add_argument("--target", default="0.25,0.75")
    p_diag.add_argument("--eps", type=float, required=True)
    p_diag.add_argument("--r-grid", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    p_diag.add_argument("--mc-draws", type=int, default=200)
    p_diag.add_argument("--gamma", type=float, default=0.5)
    p_diag.add_argument("--gamma-prime", type=float, default=0.5)
    p_diag.add_argument("--gamma-double-prime", type=float, default=0.5)
    _add_common(p_diag)
    return parser


def parse_config(argv: list[str]) -> RunConfig:
    """Parse flags plus an optional config file into a RunConfig.

    File values are injected before the explicit flags, so flags override
    the file; unknown file keys fail exactly like unknown flags.
    """
    if not argv:
        raise UsageError("no command given; see --help")
    parser = build_parser()
    command = argv[0]
    rest = list(argv[1:])
    if "--config" in rest:
        pos = rest.index("--config")
        if pos + 1 >= len(rest):
            raise UsageError("--config needs a file path")
        path = rest[pos + 1]
        del rest[pos:pos + 2]
        rest = _read_config_file(path) + rest
    namespace = parser.parse_args([command] + rest)
    options = vars(namespace)
    command = options.pop("command")
    if command is None:
        raise UsageError("no command given; see --help")
    if options.get("eps") is not None and options.get("delta") is not None:
        raise UsageError("--eps and --delta are mutually exclusive")
    return RunConfig(command=command, options=options)


def _parse_dist(spec: str) -> DistributionSpec:
    if spec == "uniform":
        return DistributionSpec.uniform(1)
    if spec.startswith("piecewise:"):
        body = spec.split(":", 1)[1]
        try:
            bp_text, w_text = body.split(";")
            bp = [float(v) for v in bp_text.split(",")]
            w = [float(v) for v in w_text.split(",")]
        except ValueError:
            raise UsageError(
                'piecewise spec is "piecewise:b0,b1,...;w1,w2,..."'
            ) from None
        return DistributionSpec.piecewise(bp, w)
    raise UsageError(f"unknown distribution spec {spec!r}")


def _parse_interval_target(spec: str) -> tuple[float, float] | None:
    if spec in ("empty", "none", ""):
        return None
    try:
        lo, hi = (float(v) for v in spec.split(","))
    except ValueError:
        raise UsageError(f'interval target must be "empty" or "lo,hi", got {spec!r}') from None
    return lo, hi


def _parse_grid(spec: str) -> list[int]:
    try:
        return [int(v) for v in spec.split(",")]
    except ValueError:
        raise UsageError(f"malformed integer grid {spec!r}") from None


def _parse_curve(spec: str) -> EntropyCurve:
    if spec == "zero":
        return EntropyCurve.zero()
    if spec.startswith("vc:"):
        return EntropyCurve.vc_from_count(int(spec.split(":", 1)[1]))
    if spec.startswith("power:"):
        try:
            a, g = (float(v) for v in spec.split(":", 1)[1].split(","))
        except ValueError:
            raise UsageError('power spec is "power:A,gamma"') from None
        return EntropyCurve.power(a, g)
    if spec.startswith("file:"):
        rows = np.loadtxt(spec.split(":", 1)[1], delimiter=",", ndmin=2)
        return EntropyCurve.tabulated(rows[:, 0], rows[:, 1])
    raise UsageError(f"unknown entropy spec {spec!r}")


def _custom_constants(opt: dict):
    if opt.get("constants") != "custom":
        return None
    triple = (opt.get("k1"), opt.get("k2"), opt.get("k3"))
    if any(v is None for v in triple):
        raise UsageError("custom constants need --k1 --k2 --k3")
    return triple


def _echo(config: RunConfig) -> dict:
    echo = {"command": config.command}
    for key, value in config.options.items():
        if key in ("out", "format", "config"):
            continue
        echo[key] = value
    return echo


def _emit(config: RunConfig, columns, rows, payload) -> None:
    out = config.get("out")
    as_csv = config.get("format", "csv") == "csv"
    if out is None:
        if as_csv:
            text = ",".join(columns) + "\n"
            text += "\n".join(",".join(_fmt(c) for c in row) for row in rows)
            sys.stdout.write(text + "\n")
        else:
            sys.stdout.write(_json_text(payload))
        return
    if as_csv:
        write_csv(out, _echo(config), columns, rows)
    else:
        write_json(out, payload)


def _cmd_bound(config: RunConfig) -> int:
    opt = config.options
    if opt.get("sample_csv"):
        sample = load_sample_csv(opt["sample_csv"], seed=opt.get("seed"))
    else:
        if opt.get("n") is None:
            raise UsageError("bound needs --n or --sample-csv")
        sample = draw_sample(_parse_dist(opt["dist"]), opt["n"], opt.get("seed", 0))
    if opt["class_kind"] == "intervals":
        concept = ConceptClass.intervals()
        target = _parse_interval_target(opt["target"])
        labels = interval_labels(target, sample)
    else:
        if not opt.get("class_csv"):
            raise UsageError("finite class needs --class-csv")
        vectors = load_vectors_csv(opt["class_csv"])
        concept = ConceptClass.finite(vectors)
        try:
            row = int(opt["target"])
        except ValueError:
            raise UsageError("finite-class target is a row index") from None
        labels = vectors[row]
    result = risk_bound(
        concept, labels, sample,
        delta_conf=opt.get("delta"), eps=opt.get("eps"),
        seed=opt.get("seed", 0), gamma=opt["gamma"], gamma_prime=opt["gamma_prime"],
        constants_mode=opt["constants"], custom_constants=_custom_constants(opt),
        iteration_override=opt.get("iterations"),
    )
    rows = [
        [row["k"], row["r_bar"], row["local_norm"] if row["local_norm"] is not None else ""]
        for row in result.trace.rows()
    ]
    payload = {
        "config": _echo(config),
        "bound": result.bound,
        "certificate": result.certificate,
        "eps": result.eps,
        "iterations": result.iterations,
        "trace": result.trace.rows(),
    }
    _emit(config, ["k", "r_bar", "local_norm"], rows, payload)
    return 0


def _cmd_coverage(config: RunConfig) -> int:
    opt = config.options
    report = run_coverage(
        target=_parse_interval_target(opt["target"]),
        n=opt["n"], reps=opt["reps"], master_seed=opt.get("seed", 0),
        dist=_parse_dist(opt["dist"]),
        eps=opt.get("eps"), delta_conf=opt.get("delta"),
        gamma=opt["gamma"], gamma_prime=opt["gamma_prime"],
        constants_mode=opt["constants"], custom_constants=_custom_constants(opt),
        iteration_override=opt.get("iterations"), learner=opt["learner"],
    )
    payload = {"config": _echo(config)}
    payload.update(report.to_json_payload())
    _emit(config, report.csv_columns(), report.csv_rows(), payload)
    agg = report.aggregates
    if agg["violation_frequency"] > agg["violation_tolerance"]:
        return 3
    return 0


def _cmd_rates(config: RunConfig) -> int:
    opt = config.options
    report = run_rates(
        n_grid=_parse_grid(opt["n_grid"]), reps=opt["reps"],
        master_seed=opt.get("seed", 0), dist=_parse_dist(opt["dist"]),
        target=_parse_interval_target(opt["target"]),
        eps=opt.get("eps"), gamma=opt["gamma"], gamma_prime=opt["gamma_prime"],
        constants_mode=opt["constants"], custom_constants=_custom_constants(opt),
        iteration_override=opt.get("iterations"),
    )
    rows = [
        [entry["n"], entry["bound_median"], entry["risk_median"]]
        for entry in report.aggregates["per_n"]
    ]
    payload = {"config": _echo(config)}
    payload.update(report.to_json_payload())
    _emit(config, ["n", "bound_median", "risk_median"], rows, payload)
    return 0


def _cmd_oracle(config: RunConfig) -> int:
    opt = config.options
    dist = _parse_dist(opt["dist"])
    sample = draw_sample(dist, opt["n"], opt.get("seed", 0))
    target = _parse_interval_target(opt["target"])
    radii = oracle_sequence(target, sample, dist, opt["k_max"])
    rows = [[k, r] for k, r in enumerate(radii)]
    payload = {"config": _echo(config), "radii": radii}
    _emit(config, ["k", "r_k"], rows, payload)
    return 0


def _cmd_fixedpoint(config: RunConfig) -> int:
    opt = config.options
    curve = _parse_curve(opt["entropy"])
    if opt.get("inclusion"):
        curve = inclusion_to_bracketing(curve, density_bound=opt["density_bound"])
    if opt.get("n_grid"):
        grid = _parse_grid(opt["n_grid"])
    elif opt.get("n"):
        grid = [opt["n"]]
    else:
        raise UsageError("fixedpoint needs --n or --n-grid")
    rows = []
    for n in grid:
        res = curve_fixed_point(curve, n, variant=opt["variant"], K=opt["K"])
        rows.append([n, res.delta])
    payload = {"config": _echo(config), "points": [{"n": n, "delta": d} for n, d in rows]}
    if len(rows) >= 3:
        slope, r2 = rate_exponent_fit([(n, d) for n, d in rows])
        payload["slope"] = slope
        payload["r_squared"] = r2
    _emit(config, ["n", "delta"], rows, payload)
    return 0


def _cmd_entropy(config: RunConfig) -> int:
    opt = config.options
    dist = _parse_dist(opt["dist"])
    sample = draw_sample(dist, opt["n"], opt.get("seed", 0))
    restriction = restrict(ConceptClass.intervals(), sample)
    radii = [float(v) for v in opt["radii"].split(",")]
    curve = empirical_covering_entropy(restriction, radii)
    rows = [[u, h] for u, h in zip(curve.u_knots, curve.h_knots)]
    payload = {"config": _echo(config), "curve": rows}
    _emit(config, ["u", "H"], rows, payload)
    return 0


def _cmd_diagnose(config: RunConfig) -> int:
    opt = config.options
    rows_dict = diagnose_ladder(
        dist=_parse_dist(opt["dist"]),
        target=_parse_interval_target(opt["target"]),
        n=opt["n"], eps=opt["eps"],
        radii=[float(v) for v in opt["r_grid"].split(",")],
        master_seed=opt.get("seed", 0), mc_draws=opt["mc_draws"],
        gamma=opt["gamma"], gamma_prime=opt["gamma_prime"],
        gamma_double_prime=opt["gamma_double_prime"],
    )
    columns = ["r", "phi1", "phi2", "phi3", "phi4", "phi5", "phi6"]
    rows = [[row[c] for c in columns] for row in rows_dict]
    payload = {"config": _echo(config), "ladder": rows_dict}
    _emit(config, columns, rows, payload)
    return 0


_DISPATCH = {
    "bound": _cmd_bound,
    "coverage": _cmd_coverage,
    "rates": _cmd_rates,
    "oracle": _cmd_oracle,
    "fixedpoint": _cmd_fixedpoint,
    "entropy": _cmd_entropy,
    "diagnose": _cmd_diagnose,
}


def execute(config: RunConfig) -> int:
    """Dispatch a resolved config; returns the process exit code."""
    handler = _DISPATCH.get(config.command)
    if handler is None:
        raise UsageError(f"unknown command {config.command!r}")
    try:
        return handler(config)
    except UsageError:
        raise
    except Exception as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        config = parse_config(argv)
        return execute(config)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
