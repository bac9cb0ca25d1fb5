#!/usr/bin/env python3
"""Aggregate the committed ``BENCH_*.json`` artifacts into one trajectory table.

Every benchmark (E10+) writes a machine-readable JSON file at the repo root;
each file pins the headline property of the PR that introduced it.  This
script collects them all into ``docs/BENCHMARKS.md`` so the performance
trajectory of the system is readable in one place instead of six artifacts:

    python scripts/bench_summary.py            # rewrite docs/BENCHMARKS.md
    python scripts/bench_summary.py --check    # fail if the doc is stale

Benchmarks rewrite their artifacts only when ``REPRO_RECORD_ARTIFACTS=1``, so
re-recording everything is one command:

    REPRO_RECORD_ARTIFACTS=1 PYTHONPATH=src python -m pytest -q benchmarks/ \
        && python scripts/bench_summary.py

The table renders only what two runs of one commit reproduce exactly, so
re-recording the artifacts leaves the doc current; ``--check`` fails on any
difference, which lets CI catch a benchmark whose pinned results changed
without the summary being regenerated.  Unknown experiments (future PRs)
still appear in the table with their raw scalar fields until they get a
branch of their own.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "docs" / "BENCHMARKS.md"

#: Experiment id → (PR that introduced it, one-line scope).
EXPERIMENTS = {
    "E10_cascade_latency": ("PR 1", "confidence-gated cascade vs exhaustive pipeline"),
    "E11_serving_throughput": ("PR 2", "execution backends sharding a corpus by table"),
    "E13_shard_transport": ("PR 5", "pickled shards through shm segments vs the pool's pipe"),
    "E14_frontend_slo": ("PR 6", "HTTP front end under overload (shedding + SLO degrade)"),
    "E15_columnar_kernels": ("PR 7", "block-native vectorized profiling & featurization"),
    "E17_pool_routing": ("PR 10", "worker pool: least-loaded routing, kill drill"),
}


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _headline(experiment: str, data: dict) -> str:
    """What each benchmark pins that two runs of one commit reproduce
    exactly, with its gates' bars.  Wall-clock numbers and ratios of them
    (col/s, speedups, capacities, bytes ratios, redispatches) move from run
    to run; they stay in the JSON artifact and ``benchmarks/results/``."""
    configs = data.get("configurations", [])
    if experiment == "E10_cascade_latency":
        exhaustive, *cascades = configs
        default = next(c for c in cascades if "default" in c["configuration"])
        learned = ", ".join(
            f"{c['configuration'].split(' (')[0].removeprefix('cascade, ')}: "
            f"{c['columns_reaching_learned_step']}"
            for c in configs
        )
        return (
            f"caches {data['caches']}; accuracy {default['accuracy']:.3f} at the default c "
            f"against exhaustive {exhaustive['accuracy']:.3f} (gate: at most "
            f"{data['accuracy_margin']:g} below); columns reaching the learned step: "
            f"{learned} (gates: default below exhaustive, in at most "
            f"{data['time_bar']:g}x its time)"
        )
    if experiment == "E11_serving_throughput":
        backends = ", ".join(
            c["backend"] if c["workers"] == 1 else f"{c['backend']}:{c['workers']}"
            for c in configs
        )
        return (
            f"{backends} over {data['rounds']} rounds, predictions bit-identical to "
            f"serial on every call (speedup gate: 1.2x on 2-3 usable CPUs, 2x on 4+)"
        )
    if experiment == "E13_shard_transport":
        return (
            f"predictions bit-identical to serial on both transports, "
            f"{len(data['leaked_segments'])} leaked segments (gate: shm ships "
            f">= {data['bytes_ratio_bar']:g}x fewer pipe bytes per shard than pickle)"
        )
    if experiment == "E14_frontend_slo":
        unloaded = data["phases"]["unloaded"]
        drain = data["phases"]["drain"]
        parity = "bit-identical" if unloaded["bit_identical_to_serial"] else "NOT identical"
        return (
            f"{unloaded['requests']} unloaded HTTP requests {parity} to serial; "
            f"{len(drain['leaked_tasks'])} leaked tasks after a drain "
            f"(budget {drain['drain_budget_seconds']:g}s)"
        )
    if experiment == "E15_columnar_kernels":
        reasons = ", ".join(f"`{r}`" for r in sorted(data["kernel_stats"]["fallback_reasons"]))
        return (
            f"predictions bit-identical to the per-value path; kernel fallback reasons: "
            f"{reasons or 'none'} (gate: block-native profiling+featurization "
            f">= {data['speedup_bar']:g}x faster than the rebuild path)"
        )
    if experiment == "E17_pool_routing":
        legs = "; ".join(f"{leg} {counts}" for leg, counts in data["requests_per_worker"].items())
        return (
            f"per-worker requests: {legs} (gates: one at a time all on slot 0, "
            f"all in flight within {data.get('balance_tolerance', 0.1):.0%} of the "
            f"burst), predictions bit-identical on every run; SIGKILL drill lost "
            f"{data['kill_drill']['lost_requests']} requests"
        )
    # Future experiments: surface any scalar that looks like a pinned gate
    # until the experiment gets a branch naming its reproducible fields.
    gates = {
        k: v
        for k, v in data.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }
    return ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(gates.items())) or "(see JSON)"


def _scale(experiment: str, data: dict) -> str:
    parts = []
    if "num_tables" in data:
        parts.append(f"{data['num_tables']} tables")
    if "num_columns" in data:
        parts.append(f"{data['num_columns']} columns")
    if "min_rows" in data and "max_rows" in data:
        parts.append(f"{data['min_rows']}-{data['max_rows']} rows")
    if "workers" in data:
        parts.append(f"{data['workers']} workers")
    return ", ".join(parts) or "—"


def render() -> str:
    lines = [
        "# Benchmark trajectory",
        "",
        "Generated by [`scripts/bench_summary.py`](../scripts/bench_summary.py)",
        "from the committed `BENCH_*.json` artifacts at the repo root — do not",
        "edit by hand.  Each experiment pins the headline property of the PR",
        "that introduced it and is re-asserted on every benchmark run.  Only",
        "what two runs of one commit reproduce exactly is rendered here: scope,",
        "scale, gate bars, accuracy, parity, fallback reasons, per-worker",
        "splits and leaks.  Wall-clock numbers and ratios of them vary with the",
        "run and the machine; they live in the JSON artifacts and in",
        "`benchmarks/results/`.",
        "",
        "| Experiment | PR | What it measures | Scale | Reproducible results (gates) |",
        "| --- | --- | --- | --- | --- |",
    ]
    artifacts = sorted(REPO_ROOT.glob("BENCH_*.json"))
    if not artifacts:
        raise SystemExit("no BENCH_*.json artifacts found at the repo root")
    rows = []
    for path in artifacts:
        data = json.loads(path.read_text(encoding="utf-8"))
        experiment = data.get("experiment", path.stem)
        pr, scope = EXPERIMENTS.get(experiment, ("—", "(new experiment)"))
        rows.append(
            (
                experiment,
                f"| `{experiment}` | {pr} | {scope} | {_scale(experiment, data)} "
                f"| {_headline(experiment, data)} |",
            )
        )
    lines.extend(row for _, row in sorted(rows))
    lines += [
        "",
        "Per-run human-readable tables live in `benchmarks/results/`; the",
        "benchmarks themselves (corpus seeds, gates, parity assertions) are in",
        "[`benchmarks/`](../benchmarks).",
        "",
    ]
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    content = render()
    if "--check" in argv:
        current = OUTPUT_PATH.read_text(encoding="utf-8") if OUTPUT_PATH.exists() else ""
        if current != content:
            print(
                f"{OUTPUT_PATH.relative_to(REPO_ROOT)} is stale — "
                "run: python scripts/bench_summary.py",
                file=sys.stderr,
            )
            return 1
        print(f"{OUTPUT_PATH.relative_to(REPO_ROOT)} is up to date")
        return 0
    OUTPUT_PATH.write_text(content, encoding="utf-8")
    print(f"wrote {OUTPUT_PATH.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
