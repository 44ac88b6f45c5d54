"""Benchmark of the locrad CLI: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client calls
`locrad.cli.main` in-process, one unit at a time, with LOCRAD_THREADS=1,
for about S seconds (see `loop`).

--trace 0 prints the end-to-end metrics, their times scaled to a
reference machine speed (see SpeedCalibration), and the unscaled values
for information.  --trace 1 first runs a third of
the time untraced, then replays every further unit through the library
with one span per call, runs the size-exponent probe, writes the spans to
perfbench/out/, and prints the per-layer metrics.  Every unit's output is
checked (see workloads.py).  Unit 0 of every run is a unit of the
reference seed, whose output digests must match reference.json; at the
reference seed every unit in that table is checked so.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 0 means the run
completed, whether or not its outputs were correct; 2 means it could not
run, for instance because src/locrad is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

#: Interpreter start-ups per run, spread between units; setup_s is their median.
SETUP_REPEATS = 7
#: Share of a traced run spent untraced, for the tracing overhead.
UNTRACED_SHARE = 1.0 / 3.0
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Time of one SpeedCalibration block, in ms, at the reference speed every
#: end-to-end time is scaled to: about its median on the 2-vCPU VM the
#: bounds in BENCHMARK.json were set on.
CALIBRATION_REF_MS = 8.0
#: End-to-end metrics that are times (or rates) and so are scaled.
SCALED = {"setup_s": 1, "units_per_s": -1, "unit_ms_p50": 1, "unit_ms_tail": 1}

END_TO_END = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "unit_ms_p50": "ms",
    "unit_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: mean span time per traced unit, and counts per unit.
SPAN_MS = [
    "rademacher.evaluator_build", "rademacher.norm_query", "rademacher.signs",
    "rademacher.localize", "simulate.risk", "simulate.draw_sample",
    "classes.reduce", "simulate.oracle_table_build", "simulate.oracle_sequence",
    "simulate.mc_sup_deviation", "simulate.diagnose", "simulate.run_rates",
    "entropy.covering", "classes.materialize", "entropy.fixed_point",
    "cli.parse", "cli.execute",
]
COUNTS = [
    "rademacher.evaluator_builds.symdiff", "rademacher.evaluator_builds.runs",
    "rademacher.evaluator_builds.vectors", "rademacher.norm_queries",
    "simulate.oracle_table_cells", "classes.vectors", "cli.output_bytes",
]
MODULES = ["cli", "classes", "rademacher", "simulate", "concentration", "entropy"]


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_ms": "ms" for name in SPAN_MS}
    units["concentration.phi_ladder_us"] = "us"
    units.update({name: "count" for name in COUNTS})
    units["cli.output_bytes"] = "bytes"
    units.update({
        "classes.groups": "count",
        "rademacher.clamped_step_frac": "frac",
        "rademacher.clamped_bound_frac": "frac",
        "entropy.covering_peak_mb": "MB",
        "rademacher.evaluator_build.exp": "1",
        "rademacher.norm_query.exp": "1",
        "simulate.risk.exp": "1",
        "simulate.oracle_table_build.exp": "1",
        "trace.unit_ms": "ms",
        "trace.replay_ms": "ms",
        "trace.units_per_s": "1/s",
        "trace.untraced_units_per_s": "1/s",
        "trace.overhead_units_per_s": "1/s",
    })
    units.update({f"{module}.self_ms": "ms" for module in MODULES})
    return units


# ----------------------------------------------------------------------
# Provenance


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _cpu_ticks() -> list[int] | None:
    """The aggregate cpu line of /proc/stat, user through steal."""
    try:
        with open("/proc/stat") as handle:
            return [int(v) for v in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_frac(start: list[int] | None, end: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor took from this machine between two reads."""
    if start is None or end is None or sum(end) == sum(start):
        return None
    return (end[7] - start[7]) / (sum(end) - sum(start))


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "locrad_threads": os.environ.get("LOCRAD_THREADS"),
        "git_commit": _git_commit(), "src_sha256": src_digest(),
        "loadavg_start": _loadavg(),
    }


# ----------------------------------------------------------------------
# Measurement


class SetupSampler:
    """Times from interpreter start until locrad.cli is imported.

    Samples are spread over the run, between units, so that a slow stretch
    of the machine does not set every one of them.
    """

    def __init__(self, repeats: int, seconds: float):
        self.repeats = repeats
        self.seconds = seconds
        self.times: list[float] = []

    def sample(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        code = "import time, locrad.cli; print(time.perf_counter())"
        start = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        self.times.append(float(proc.stdout.split()[-1]) - start)

    def between_units(self, elapsed: float) -> None:
        if len(self.times) < self.repeats and elapsed >= len(self.times) * self.seconds / self.repeats:
            self.sample()

    def median(self) -> float:
        while len(self.times) < self.repeats:
            self.sample()
        return statistics.median(self.times)


class SpeedCalibration:
    """Times a fixed block of work, independent of locrad, between units.

    On a shared 2-vCPU VM, other tenants slow every process by up to half,
    for seconds to minutes at a time, with CPU time equal to wall time, so
    runs of the same code on a busy and a quiet stretch disagree by about
    a regression bound.  The block mixes a pure-Python loop
    and a numpy sort, as the workloads do, and allocates nothing, so a
    change to the program's memory use cannot change its time.  `factor`
    scales a run's times to the reference speed.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._data = np.random.default_rng(0).random(200_000)
        self._buf = np.empty_like(self._data)
        self.times: list[float] = []

    def _block(self) -> None:
        x = 0.0
        for i in range(50_000):
            x += i * 0.5
        self._buf[:] = self._data
        self._buf.sort()
        self._np.cumsum(self._buf, out=self._buf)

    def sample(self) -> None:
        self._block()  # the unit before left other data in the caches
        start = time.perf_counter()
        self._block()
        self.times.append((time.perf_counter() - start) * 1000.0)

    def median_ms(self) -> float:
        return statistics.median(self.times)

    def factor(self) -> float:
        """Reference speed over this run's speed; times are multiplied by it."""
        return CALIBRATION_REF_MS / self.median_ms()


def scale(metrics: dict, factor: float) -> dict:
    return {name: value * factor ** SCALED.get(name, 0) for name, value in metrics.items()}


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with TAIL_BEYOND samples beyond it.

    With too few samples for that, the maximum (percentile 100).
    """
    xs = sorted(values)
    k = len(xs)
    if k <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[k - TAIL_BEYOND - 1], 100.0 * (k - TAIL_BEYOND) / k


def load():
    """Import locrad from SRC, single-threaded; returns the workloads module."""
    os.environ["LOCRAD_THREADS"] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import locrad
    import workloads

    if not Path(locrad.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"locrad imported from {locrad.__file__}, not {SRC}")
    return workloads


class Runner:
    """Runs units of one workload and checks their outputs."""

    def __init__(self, workloads, workload, size: str, seed: int, outdir: Path, corrupt=None):
        from locrad import cli

        self.w = workloads
        self.cli = cli
        self.workload = workload
        self.size = size
        self.seed = seed
        self.outdir = outdir
        self.corrupt = corrupt  # test hook: called with a unit's calls
        self.reference = json.loads(REFERENCE.read_text())
        self.attempted = 0
        self.failures: list[str] = []

    def _finish(self, index: int, calls, rcs, replays, digests) -> None:
        if self.corrupt is not None:
            self.corrupt(calls)
        problems = []
        for call, rc in zip(calls, rcs):
            if rc != 0:
                problems.append(f"{call.command} exited {rc}")
                continue
            reason = self.w.check_output(call)
            if reason:
                problems.append(f"{call.command}: {reason}")
        for call, replay in zip(calls, replays):
            if Path(call.out).read_bytes() != Path(replay).read_bytes():
                problems.append(f"{call.command}: output differs from replay")
        if digests is not None:
            for call, digest in zip(calls, digests):
                if self.w.file_digest(call.out) != digest:
                    problems.append(f"{call.command}: digest differs from reference")
        self.attempted += 1
        if problems:
            self.failures.append(f"unit {index}: " + "; ".join(problems))

    def _unit_seed(self, index: int) -> tuple[int, int | None]:
        """Seed of unit `index`, and its position in the reference table.

        Unit 0 of every run is a reference unit, so every run checks digests.
        """
        ref = self.reference["seed"]
        count = len(self.reference["digests"][self.workload.name][self.size])
        if index == 0:
            position = self.seed % count
            return self.w.unit_seed(ref, position), position
        position = index if self.seed == ref and index < count else None
        return self.w.unit_seed(self.seed, index), position

    def _digests(self, position: int | None) -> list[str] | None:
        if position is None:
            return None
        return self.reference["digests"][self.workload.name][self.size][position]

    def untraced(self, index: int) -> float:
        """One unit through cli.main; returns its wall time in seconds."""
        seed, position = self._unit_seed(index)
        calls = self.workload.calls(self.size, seed, str(self.outdir / f"u{index}"))
        elapsed = 0.0
        rcs = []
        try:
            for call in calls:
                start = time.perf_counter()
                rcs.append(self.cli.main(call.argv))
                elapsed += time.perf_counter() - start
            self._finish(index, calls, rcs, [], self._digests(position))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.attempted += 1
            self.failures.append(f"unit {index}: raised")
        return elapsed

    def traced(self, index: int, tr) -> float:
        """One unit through parse/execute plus its replay, under spans."""
        seed, position = self._unit_seed(index)
        calls = self.workload.calls(self.size, seed, str(self.outdir / f"u{index}"))
        start = time.perf_counter()
        try:
            with tr.unit(index):
                rcs, configs = [], []
                for call in calls:
                    with tr.span("cli.parse"):
                        config = self.cli.parse_config(call.argv)
                    with tr.span("cli.execute"):
                        rcs.append(self.cli.execute(config))
                    tr.count("cli.output_bytes", os.path.getsize(call.out))
                    configs.append(config)
                with tr.span("replay"):
                    replays = [self.w.replay_file(call, config, tr)
                               for call, config in zip(calls, configs)]
            self._finish(index, calls, rcs, replays, self._digests(position))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.attempted += 1
            self.failures.append(f"unit {index}: raised")
        return time.perf_counter() - start


def loop(run_one, seconds: float, first_index: int = 0, between=None) -> list[float]:
    """Closed loop over units for about `seconds`; returns unit times in s.

    A unit starts only while half a mean unit still fits, so a run ends
    within half a unit of `seconds` on either side.  `between(elapsed)`
    runs before each unit; its time counts neither in the unit nor in
    `seconds`.
    """
    times = []
    start = time.perf_counter()
    paused = 0.0
    index = first_index
    while True:
        elapsed = time.perf_counter() - start - paused
        if times and elapsed + statistics.fmean(times) / 2 >= seconds:
            return times
        if between is not None:
            pause = time.perf_counter()
            between(elapsed)
            paused += time.perf_counter() - pause
        times.append(run_one(index))
        index += 1


def end_to_end_metrics(times: list[float]) -> tuple[dict, dict]:
    ms = [t * 1000.0 for t in times]
    tail_ms, tail_pct = tail(ms)
    values = {
        "units_per_s": len(times) / sum(times),
        "unit_ms_p50": statistics.median(ms),
        "unit_ms_tail": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"tail_percentile": tail_pct, "units": len(times)}
    return values, notes


def per_layer_metrics(tr, traced_times, untraced_times, exponents) -> dict:
    units = len(traced_times)
    c = tr.counts
    values = {f"{name}_ms": tr.total_s(name) * 1000.0 / units for name in SPAN_MS}
    values["concentration.phi_ladder_us"] = tr.total_s("concentration.phi_ladder") * 1e6 / units
    values.update({name: c[name] / units for name in COUNTS})
    values["classes.groups"] = c["classes.groups"] / max(c["classes.reduce_calls"], 1)
    values["rademacher.clamped_step_frac"] = c["rademacher.clamped_steps"] / max(c["rademacher.steps"], 1)
    values["rademacher.clamped_bound_frac"] = c["rademacher.clamped_bounds"] / max(c["rademacher.bounds"], 1)
    values["entropy.covering_peak_mb"] = tr.peaks["entropy.covering_peak_mb"]
    values.update(exponents)
    self_s = tr.self_s_by_module()
    values.update({f"{m}.self_ms": self_s.get(m, 0.0) * 1000.0 / units for m in MODULES})
    traced_rate = len(traced_times) / sum(traced_times)
    untraced_rate = len(untraced_times) / sum(untraced_times)
    values["trace.unit_ms"] = 1000.0 * sum(traced_times) / units
    values["trace.replay_ms"] = tr.total_s("replay") * 1000.0 / units
    values["trace.units_per_s"] = traced_rate
    values["trace.untraced_units_per_s"] = untraced_rate
    values["trace.overhead_units_per_s"] = untraced_rate - traced_rate
    return values


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            size: str = "full", corrupt=None, between=None) -> tuple[dict, dict]:
    """One run; returns (result, details).  `between` runs before each untraced unit."""
    from tracer import Tracer

    workloads = load()
    workload = workloads.WORKLOADS[workload_name]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    details: dict = {}
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        runner = Runner(workloads, workload, size, seed, Path(tmp), corrupt)
        if not trace:
            times = loop(runner.untraced, seconds, between=between)
            metrics, details["tail"] = end_to_end_metrics(times)
        else:
            tr = Tracer()
            untraced = loop(runner.untraced, seconds * UNTRACED_SHARE)
            traced = loop(lambda i: runner.traced(i, tr),
                          seconds * (1.0 - UNTRACED_SHARE), first_index=len(untraced))
            exponents = workloads.size_exponents(size, seed)
            metrics = per_layer_metrics(tr, traced, untraced, exponents)
            details["tracer"] = tr
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    details["failures"] = runner.failures
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "locrad" / "cli.py").is_file() or not REFERENCE.is_file():
        print(f"error: {SRC / 'locrad'} or {REFERENCE.name} is missing; "
              "run from a locrad source checkout", file=sys.stderr)
        return 2

    workloads = load()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload; choose from {sorted(workloads.WORKLOADS)}")

    prov = provenance(args)
    ticks = _cpu_ticks()
    between = None
    if not args.trace:
        setup = SetupSampler(SETUP_REPEATS, args.seconds)
        calibration = SpeedCalibration()

        def between(elapsed: float) -> None:
            calibration.sample()
            setup.between_units(elapsed)

    result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.size, between=between)
    if not args.trace:
        result["metrics"]["setup_s"] = setup.median()
        raw = result["metrics"]
        result["metrics"] = scale(raw, calibration.factor())
        prov["calibration_ms"] = calibration.median_ms()
        prov["speed_factor"] = calibration.factor()
    prov["loadavg_end"] = _loadavg()
    prov["cpu_steal_frac"] = steal_frac(ticks, _cpu_ticks())
    units = END_TO_END if not args.trace else per_layer_units()
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
    }
    if args.trace:
        path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        details["tracer"].write(path, prov)
        prov["spans"] = str(path.relative_to(ROOT))

    for failure in details["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("provenance " + json.dumps(prov, sort_keys=True))
    if not args.trace:
        t = details["tail"]
        print(f"unit_ms_tail is p{t['tail_percentile']:.1f} of {t['units']} units")
        print(f"failed_frac {result['failed'] / result['attempted']:.6g} frac")
        for name in SCALED:
            print(f"unscaled {name} {raw[name]:.6g} {END_TO_END[name]}")
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
