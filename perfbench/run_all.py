"""Run every workload once and print all its metrics by name and unit.

Each workload runs in its own process, exactly as ``run.py`` runs it::

    python3 perfbench/run_all.py [--seed 1] [--seconds 15] [--trace 0]

Exits with status 1 if any workload reports failed operations or is not
correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``run.py`` invocation from the repository root; its JSON result."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ok = True
    for workload in WORKLOADS:
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        ok = ok and result["correct"] and not result["failed"]
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
