"""Self-test of the benchmark: counts repeat exactly across runs of one seed.

    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]

Runs the traced benchmark twice per workload in fresh processes and fails
unless every count-derived per-layer metric is identical in both runs and
both runs report correct (which includes the check that tracing leaves the
returned roots bit-identical).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
COUNT_UNITS = {"count", "count/reduce"}
COUNT_FRACS = {"bring.series_frac", "closedform.attempt_yield", "closedform.escalated_frac"}


def traced(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", "1"],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if done.returncode != 0:
        sys.exit(f"{workload}: the traced run failed with exit code {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", choices=sorted(WORKLOADS), default=sorted(WORKLOADS))
    args = parser.parse_args()
    status = 0
    for workload in args.workload:
        first, second = traced(workload, args.seed), traced(workload, args.seed)
        counts = {
            name: (entry["value"], second["metrics"][name]["value"])
            for name, entry in first["metrics"].items()
            if entry["unit"] in COUNT_UNITS or name in COUNT_FRACS
        }
        differ = {name: pair for name, pair in counts.items() if pair[0] != pair[1]}
        ok = not differ and first["correct"] and second["correct"]
        print(f"{workload}: {len(counts)} counts {'repeat exactly' if not differ else f'differ: {differ}'}; "
              f"correct {first['correct']}/{second['correct']} -> {'PASS' if ok else 'FAIL'}")
        status |= not ok
    return status


if __name__ == "__main__":
    sys.exit(main())
