"""Self-test of the benchmark, at tiny input sizes.

    python3 perfbench/selftest.py

Checks that every workload runs untraced and traced, prints each metric
BENCHMARK.json names with its unit, and reports correct outputs; that
corrupting one byte of an output file makes a run fail, both where the
reference digests catch it and where the replay does; and that the
benchmark exits nonzero without a result when the locrad sources are
missing.  Takes about a minute; exit code 0 means every check passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_metrics(spec: dict, errors: list[str]) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            label = f"{workload} --trace {trace}"
            proc = _bench(run.ROOT, "--workload", workload, "--seed", "3",
                          "--seconds", "1", "--trace", trace, "--size", "tiny")
            if proc.returncode != 0:
                errors.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != RESULT_KEYS:
                errors.append(f"{label}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{label}: outputs not correct: {proc.stderr[-500:]}")
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            if got != expected:
                errors.append(f"{label}: metrics differ from BENCHMARK.json: "
                              f"{sorted(set(got) ^ set(expected))}")
            printed = set(lines[:-1])
            for name, entry in result["metrics"].items():
                if f"{name} {entry['value']:.6g} {entry['unit']}" not in printed:
                    errors.append(f"{label}: {name} not printed with its unit")


def flip_one_byte(every_unit: bool):
    """Corruption hook: flips one bit in the middle of a unit's first output."""
    done = []

    def corrupt(calls):
        if done and not every_unit:
            return
        path = Path(calls[0].out)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 1
        path.write_bytes(bytes(data))
        done.append(path)

    return corrupt


def check_corruption(spec: dict, errors: list[str]) -> None:
    seed = json.loads(run.REFERENCE.read_text())["seed"]
    for workload in (w["name"] for w in spec["workloads"]):
        # At the reference seed one corrupted file must fail on its digest;
        # at any other seed the traced replay must catch every corrupted unit.
        for run_seed, trace, every, marker in (
            (seed, False, False, "differs from reference"),
            (seed + 5, True, True, "differs from replay"),
        ):
            result, details = run.measure(workload, run_seed, 0.5, trace, "tiny",
                                          corrupt=flip_one_byte(every))
            caught = any(marker in f for f in details["failures"])
            if result["correct"] or result["failed"] < 1 or not caught:
                errors.append(f"{workload} seed {run_seed} trace {trace}: "
                              f"corruption not caught ({result['failed']} failed)")


def check_refuses_without_sources(errors: list[str]) -> None:
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
        proc = _bench(bare, "--workload", "analysis", "--seed", "0",
                      "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append("runs without the locrad sources")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    errors: list[str] = []
    check_metrics(spec, errors)
    check_corruption(spec, errors)
    check_refuses_without_sources(errors)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
