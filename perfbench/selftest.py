"""Exact-count gate for the benchmark itself.

Runs every workload twice with ``--trace 1`` at one seed and checks that each
run is correct (0 failed operations, identical counts in every repetition of
the run, serial coverage within tolerance) and that the counts listed in
``run.EXACT_COUNTS`` are identical between the two runs.  A later change can
then cite those counts without relying on wall-clock.

Run from the repository root::

    python3 perfbench/selftest.py [--seed 3] [--seconds 4] [--workload cold_bulk ...]
"""

from __future__ import annotations

import argparse
import sys

from run import EXACT_COUNTS, WORKLOADS
from run_all import run_workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--workload", nargs="*", default=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    problems = []
    for workload in args.workload:
        first, second = (run_workload(workload, args.seed, args.seconds, 1) for _ in range(2))
        for index, result in enumerate((first, second), start=1):
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}: run {index} not correct ({result['failed']} failed)")
        for key in EXACT_COUNTS:
            a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
            status = "ok" if a == b else "DIFFERS"
            print(f"{workload:18s} {key:34s} {a!s:>12} {b!s:>12}  {status}")
            if a != b:
                problems.append(f"{workload}: {key} {a} != {b}")
    print("\n".join(problems) if problems else "exact counts repeat on every workload")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
