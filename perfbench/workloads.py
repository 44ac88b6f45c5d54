"""Workloads of the locrad benchmark, their output checks and traced replays.

A unit is one coverage replication, or one analysis instance of five CLI
calls.  Its inputs come only from its unit seed, which is derived from the
workload seed and the unit's index, so the same workload seed always gives
the same sequence of units.

The replay of a unit recomputes the CLI rows step by step through the
public functions of classes, rademacher, simulate, concentration and
entropy, with one span around each call, and renders them with the CLI's
own CSV writer.  The CLI output must equal the replay byte for byte.
"""

from __future__ import annotations

import hashlib
import math
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from locrad import cli
from locrad.classes import (
    ConceptClass,
    SampledRestriction,
    reduce_by_labels,
    restrict,
    sorted_groups,
)
from locrad.concentration import LadderInputs, phi_ladder
from locrad.entropy import (
    EntropyCurve,
    curve_fixed_point,
    empirical_covering_entropy,
    rate_exponent_fit,
)
from locrad.rademacher import (
    ITERATION_CAP,
    LocalNormEvaluator,
    RademacherDraw,
    constants_from_gammas,
    default_iterations,
)
from locrad.simulate import (
    TAG_SAMPLE,
    TAG_SIGNS,
    DistributionSpec,
    IntervalSymdiffTable,
    derive_seed,
    draw_sample,
    interval_labels,
    mc_mean_sup_deviation,
    minimal_interval_learner,
    true_risk,
    worst_consistent_risk,
)

COVERAGE_COLUMNS = ["rep", "n", "eps", "N", "bound", "risk", "violated"]
DIAGNOSE_COLUMNS = ["r", "phi1", "phi2", "phi3", "phi4", "phi5", "phi6"]
UNIFORM = DistributionSpec.uniform(1)


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a unit and the file it writes."""

    command: str
    argv: list[str]
    out: str


def unit_seed(workload_seed: int, index: int) -> int:
    """Seed of unit `index` of a run with the given workload seed."""
    seq = np.random.SeedSequence([workload_seed, index])
    return int(seq.generate_state(1, np.uint32)[0])


def _coverage_calls(p: dict, seed: int, prefix: str) -> list[Call]:
    out = f"{prefix}-coverage.csv"
    argv = ["coverage", "--target", p["target"], "--n", str(p["n"]),
            "--eps", p["eps"], "--constants", "safe", "--learner", "worst",
            "--reps", "1", "--seed", str(seed), "--out", out]
    return [Call("coverage", argv, out)]


def _analysis_calls(p: dict, seed: int, prefix: str) -> list[Call]:
    s = str(seed)
    argvs = {
        "oracle": ["oracle", "--n", str(p["oracle_n"]), "--target", "0.3,0.7",
                   "--seed", s],
        "diagnose": ["diagnose", "--n", str(p["diagnose_n"]), "--eps", "0.02",
                     "--target", "0.3,0.7", "--mc-draws", str(p["mc_draws"]),
                     "--r-grid", p["r_grid"], "--seed", s],
        "rates": ["rates", "--n-grid", p["rates_grid"], "--reps", str(p["rates_reps"]),
                  "--constants", "unit", "--seed", s],
        "entropy": ["entropy", "--n", str(p["entropy_n"]), "--seed", s],
        "fixedpoint": ["fixedpoint", "--entropy", "power:1,1",
                       "--n-grid", p["fixed_grid"]],
    }
    calls = []
    for command, argv in argvs.items():
        out = f"{prefix}-{command}.csv"
        calls.append(Call(command, argv + ["--out", out], out))
    return calls


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict  # "full" / "tiny" -> parameters
    make_calls: Callable[[dict, int, str], list[Call]]  # params, unit seed, path prefix

    def calls(self, size: str, seed: int, prefix: str) -> list[Call]:
        return self.make_calls(self.sizes[size], seed, prefix)


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload("coverage-interval", {
            "full": {"target": "0.25,0.75", "n": 4096, "eps": "0.02"},
            "tiny": {"target": "0.25,0.75", "n": 256, "eps": "0.02"},
        }, _coverage_calls),
        Workload("coverage-empty", {
            "full": {"target": "empty", "n": 100000, "eps": "0.0003"},
            "tiny": {"target": "empty", "n": 2000, "eps": "0.0003"},
        }, _coverage_calls),
        Workload("analysis", {
            "full": {"oracle_n": 1000, "diagnose_n": 500, "mc_draws": 5,
                     "r_grid": "0.05,0.1,0.2,0.4,0.8",
                     "rates_grid": "1024,2048,4096,8192", "rates_reps": 5,
                     "entropy_n": 40, "fixed_grid": "100,1000,10000,100000"},
            "tiny": {"oracle_n": 100, "diagnose_n": 100, "mc_draws": 3,
                     "r_grid": "0.2,0.8", "rates_grid": "64,128,256,512",
                     "rates_reps": 2, "entropy_n": 10,
                     "fixed_grid": "100,1000,10000"},
        }, _analysis_calls),
    )
}


def file_digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ----------------------------------------------------------------------
# Cheap checks made on every unit, traced or not


def _float_equal(a: str, b: str) -> bool:
    try:
        return float(a) == float(b)
    except ValueError:
        return False


def check_output(call: Call) -> str | None:
    """Shape and invariants of one output file; returns a reason or None."""
    lines = Path(call.out).read_text().splitlines()
    echo = dict(
        line[2:].split("=", 1) for line in lines if line.startswith("# ") and "=" in line
    )
    flags = call.argv[1:]
    for flag, value in zip(flags[::2], flags[1::2]):
        key = flag[2:].replace("-", "_")
        if key == "out":
            continue
        if key not in echo or (echo[key] != value and not _float_equal(echo[key], value)):
            return f"option {flag} {value} not echoed"
    data = [line.split(",") for line in lines if not line.startswith("#")]
    if len(data) < 2 or any(len(row) != len(data[0]) for row in data):
        return "no rows, or ragged rows"
    try:
        values = [[float(cell) for cell in row] for row in data[1:]]
    except ValueError:
        return "non-numeric cell"
    if call.command == "coverage":
        if data[0] != COVERAGE_COLUMNS or len(values) != 1:
            return "coverage columns or row count"
        _, _, _, _, bound, risk, violated = values[0]
        if not (0.0 < bound <= 1.0 and 0.0 <= risk <= 1.0):
            return "bound or risk out of range"
        if bool(violated) != (risk >= bound):
            return "violated != (risk >= bound)"
    return None


# ----------------------------------------------------------------------
# Traced replays


def _target(spec: str):
    if spec == "empty":
        return None
    lo, hi = (float(v) for v in spec.split(","))
    return lo, hi


def _evaluator(tr, reduced, draw) -> LocalNormEvaluator:
    with tr.span("rademacher.evaluator_build"):
        ev = LocalNormEvaluator(reduced, draw)
    route = "vectors" if reduced.vectors is not None else reduced.fast_path
    tr.count("rademacher.evaluator_builds." + route.replace("interval-", ""))
    return ev


def _norm(tr, ev, radius) -> float:
    with tr.span("rademacher.norm_query"):
        value = ev.norm(radius)
    tr.count("rademacher.norm_queries")
    return value


def _reduce(tr, labels, sample):
    with tr.span("classes.reduce"):
        reduced = reduce_by_labels(ConceptClass.intervals(), labels, sample)
    tr.count("classes.reduce_calls")
    tr.count("classes.groups", reduced.group_count)
    return reduced


def _bound(tr, labels, sample, eps, signs_seed, constants) -> tuple[float, int]:
    """risk_bound for a given eps, one public step at a time."""
    steps = min(default_iterations(eps), ITERATION_CAP)
    reduced = _reduce(tr, labels, sample)
    with tr.span("rademacher.signs"):
        draw = RademacherDraw.from_seed(signs_seed, sample.n)
    k1, k2, k3 = constants
    r = 1.0
    with tr.span("rademacher.localize"):
        ev = _evaluator(tr, reduced, draw)
        for _ in range(steps):
            norm = _norm(tr, ev, 2.0 * r)
            r = min(k1 * norm + k2 * math.sqrt(r * eps) + k3 * eps, 1.0)
            tr.count("rademacher.steps")
            tr.count("rademacher.clamped_steps", r == 1.0)
    tr.count("rademacher.bounds")
    tr.count("rademacher.clamped_bounds", r == 1.0)
    return r, steps


def _draw(tr, n, seed):
    with tr.span("simulate.draw_sample"):
        return draw_sample(UNIFORM, n, seed)


def _oracle_table(tr, sample, target) -> IntervalSymdiffTable:
    with tr.span("simulate.oracle_table_build"):
        table = IntervalSymdiffTable(sample, target, UNIFORM)
    m = len(sorted_groups(sample)[0])
    tr.count("simulate.oracle_table_cells", m * (m + 1) // 2)
    return table


def replay_coverage(opt: dict, tr):
    n, eps, seed = opt["n"], opt["eps"], opt["seed"]
    target = _target(opt["target"])
    sample = _draw(tr, n, derive_seed(seed, 0, TAG_SAMPLE))
    labels = interval_labels(target, sample)
    constants = constants_from_gammas(opt["gamma"], opt["gamma_prime"])
    bound, steps = _bound(tr, labels, sample, eps, derive_seed(seed, 0, TAG_SIGNS), constants)
    with tr.span("simulate.risk"):
        risk, _ = worst_consistent_risk(sample, labels, target, UNIFORM)
    return COVERAGE_COLUMNS, [[0, n, eps, steps, bound, risk, int(risk >= bound)]]


def replay_oracle(opt: dict, tr):
    sample = _draw(tr, opt["n"], opt["seed"])
    with tr.span("simulate.oracle_sequence"):
        table = _oracle_table(tr, sample, _target(opt["target"]))
        radii = [1.0]
        for _ in range(opt["k_max"]):
            radii.append(table.sup_deviation(radii[-1]))
    return ["k", "r_k"], [[k, r] for k, r in enumerate(radii)]


def replay_diagnose(opt: dict, tr):
    n, seed, draws, eps = opt["n"], opt["seed"], opt["mc_draws"], opt["eps"]
    target = _target(opt["target"])
    radii = np.asarray([float(v) for v in opt["r_grid"].split(",")], dtype=float)
    with tr.span("simulate.diagnose"):
        sample = _draw(tr, n, derive_seed(seed, 0, TAG_SAMPLE))
        labels = interval_labels(target, sample)
        with tr.span("rademacher.signs"):
            signs = RademacherDraw.from_seed(derive_seed(seed, 0, TAG_SIGNS), n)
        table = _oracle_table(tr, sample, target)
        with tr.span("simulate.mc_sup_deviation"):
            means, _ = mc_mean_sup_deviation(UNIFORM, target, n, radii, draws, seed)
        reduced = _reduce(tr, labels, sample)
        sign_norms = np.zeros(len(radii))
        for t in range(draws):
            with tr.span("rademacher.signs"):
                draw = RademacherDraw.from_seed(derive_seed(seed, t, TAG_SIGNS + 10), n)
            ev = _evaluator(tr, reduced, draw)
            sign_norms += np.array([_norm(tr, ev, 2.0 * r) for r in radii])
        sign_norms /= draws
        rows = []
        for pos, r in enumerate(radii):
            inputs = LadderInputs(
                sup_dev=table.sup_deviation(float(r)),
                mean_sup_dev=float(means[pos]),
                rademacher_norm=table.sup_rademacher(signs.signs, float(r)),
                mean_rademacher_norm=float(sign_norms[pos]),
            )
            with tr.span("concentration.phi_ladder"):
                ladder = phi_ladder(
                    float(r), inputs, eps, gamma=opt["gamma"],
                    gamma_prime=opt["gamma_prime"],
                    gamma_double_prime=opt["gamma_double_prime"],
                )
            row = {"r": float(r), **ladder.as_dict()}
            rows.append([row[c] for c in DIAGNOSE_COLUMNS])
    return DIAGNOSE_COLUMNS, rows


def replay_rates(opt: dict, tr):
    seed = opt["seed"]
    target = _target(opt["target"])
    constants = (1.0, 1.0, 1.0) if opt["constants"] == "unit" else constants_from_gammas(
        opt["gamma"], opt["gamma_prime"])
    rows = []
    with tr.span("simulate.run_rates"):
        for n in (int(v) for v in opt["n_grid"].split(",")):
            eps = 2.0 * math.log(n) / n
            bounds, risks = [], []
            for rep in range(opt["reps"]):
                sample = _draw(tr, n, derive_seed(seed, n, rep, TAG_SAMPLE))
                labels = interval_labels(target, sample)
                with tr.span("simulate.risk"):
                    risks.append(true_risk(minimal_interval_learner(sample, labels), target, UNIFORM))
                signs_seed = derive_seed(seed, n, rep, TAG_SIGNS)
                bounds.append(_bound(tr, labels, sample, eps, signs_seed, constants)[0])
            rows.append([n, float(np.median(bounds)), float(np.median(risks))])
    return ["n", "bound_median", "risk_median"], rows


def replay_entropy(opt: dict, tr):
    sample = _draw(tr, opt["n"], opt["seed"])
    radii = [float(v) for v in opt["radii"].split(",")]
    with tr.span("classes.materialize"):
        vectors = restrict(ConceptClass.intervals(), sample).materialize()
    tr.count("classes.vectors", vectors.shape[0])
    with tr.span("entropy.covering"):
        tracemalloc.start()
        try:
            curve = empirical_covering_entropy(
                SampledRestriction(n=sample.n, vectors=vectors), radii)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    tr.peak("entropy.covering_peak_mb", peak / 2**20)
    return ["u", "H"], [[u, h] for u, h in zip(curve.u_knots, curve.h_knots)]


def replay_fixedpoint(opt: dict, tr):
    a, g = (float(v) for v in opt["entropy"].removeprefix("power:").split(","))
    curve = EntropyCurve.power(a, g)
    rows = []
    for n in (int(v) for v in opt["n_grid"].split(",")):
        with tr.span("entropy.fixed_point"):
            rows.append([n, curve_fixed_point(curve, n, variant=opt["variant"], K=opt["K"]).delta])
    return ["n", "delta"], rows


REPLAYS = {
    "coverage": replay_coverage,
    "oracle": replay_oracle,
    "diagnose": replay_diagnose,
    "rates": replay_rates,
    "entropy": replay_entropy,
    "fixedpoint": replay_fixedpoint,
}


def replay_file(call: Call, config, tr) -> str:
    """Render the replayed rows of one call with the CLI writer; returns the path."""
    columns, rows = REPLAYS[call.command](config.options, tr)
    echo = {"command": config.command}
    echo.update((k, v) for k, v in config.options.items() if k not in ("out", "format", "config"))
    path = call.out + ".replay"
    cli.write_csv(path, echo, columns, rows)
    return path


# ----------------------------------------------------------------------
# Size-exponent probe: log-time against log-n for the layers ROADMAP
# expects to change order


PROBE_GRIDS = {
    "full": {
        "rademacher.evaluator_build.exp": [724, 1448, 2896],
        "rademacher.norm_query.exp": [8192, 32768, 131072],
        "simulate.risk.exp": [5000, 20000, 80000],
        "simulate.oracle_table_build.exp": [250, 500, 1000],
    },
    "tiny": {
        "rademacher.evaluator_build.exp": [64, 128, 256],
        "rademacher.norm_query.exp": [256, 512, 1024],
        "simulate.risk.exp": [256, 512, 1024],
        "simulate.oracle_table_build.exp": [32, 64, 128],
    },
}
#: Timing rounds over the grid; each size keeps its fastest time, the one
#: least disturbed by other load.  Rounds interleave the sizes, so a slow
#: phase of the machine hits every size alike.
PROBE_ROUNDS = 5


def _probe_call(name: str, n: int, seed: int):
    """Builds the inputs of one probe size; returns the call to time."""
    sample = draw_sample(UNIFORM, n, seed)
    if name == "rademacher.evaluator_build.exp":
        reduced = reduce_by_labels(
            ConceptClass.intervals(), interval_labels((0.25, 0.75), sample), sample)
        draw = RademacherDraw.from_seed(seed, n)
        return lambda: LocalNormEvaluator(reduced, draw)
    if name == "rademacher.norm_query.exp":
        reduced = reduce_by_labels(ConceptClass.intervals(), np.zeros(n), sample)
        ev = LocalNormEvaluator(reduced, RademacherDraw.from_seed(seed, n))
        return lambda: ev.norm(0.5)
    if name == "simulate.risk.exp":
        return lambda: worst_consistent_risk(sample, np.zeros(n), None, UNIFORM)
    return lambda: IntervalSymdiffTable(sample, (0.3, 0.7), UNIFORM)


def size_exponents(size: str, workload_seed: int) -> dict[str, float]:
    out = {}
    for name, grid in PROBE_GRIDS[size].items():
        calls = [_probe_call(name, n, unit_seed(workload_seed, 10**6 + n)) for n in grid]
        best = [float("inf")] * len(grid)
        for _ in range(PROBE_ROUNDS):
            for pos, call in enumerate(calls):
                start = time.perf_counter()
                call()
                best[pos] = min(best[pos], time.perf_counter() - start)
        out[name] = rate_exponent_fit(list(zip(grid, best)))[0]
    return out
