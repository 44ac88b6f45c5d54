"""Record reference digests of every unit's output at the reference seed.

    python3 perfbench/make_reference.py

Run it from the root of a checkout whose CLI output is the accepted
reference; it rewrites perfbench/reference.json.  A benchmark run at the
reference seed compares each unit's output files against these digests,
and every run checks one reference unit.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

REFERENCE_SEED = 0
UNITS = {"full": {"coverage-interval": 32, "coverage-empty": 32, "analysis": 4},
         "tiny": {"coverage-interval": 4, "coverage-empty": 4, "analysis": 2}}


def main() -> int:
    workloads = run.load()
    from locrad import cli

    digests = {name: {} for name in workloads.WORKLOADS}
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        for size, counts in UNITS.items():
            for name, count in counts.items():
                table = []
                for index in range(count):
                    seed = workloads.unit_seed(REFERENCE_SEED, index)
                    calls = workloads.WORKLOADS[name].calls(size, seed, f"{tmp}/u{index}")
                    for call in calls:
                        if cli.main(call.argv) != 0:
                            print(f"error: {call.argv} failed", file=sys.stderr)
                            return 2
                    table.append([workloads.file_digest(call.out) for call in calls])
                digests[name][size] = table
                print(f"{name} {size}: {count} units", file=sys.stderr)
    payload = {"seed": REFERENCE_SEED, "src_sha256": run.src_digest(), "digests": digests}
    run.REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
