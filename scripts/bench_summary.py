#!/usr/bin/env python3
"""Aggregate the committed ``BENCH_*.json`` artifacts into one trajectory table.

Every benchmark (E10+) writes a machine-readable JSON file at the repo root;
each file pins the headline property of the PR that introduced it.  This
script collects them all into ``docs/BENCHMARKS.md`` so the performance
trajectory of the system is readable in one place instead of six artifacts:

    python scripts/bench_summary.py            # rewrite docs/BENCHMARKS.md
    python scripts/bench_summary.py --check    # fail if the doc is stale

``--check`` lets CI catch a benchmark artifact landing without the summary
being regenerated.  Unknown experiments (future PRs) still appear in the
table with their raw gate fields, so the script never needs to be updated in
lockstep with a new benchmark.
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
    "E13_shard_transport": ("PR 5", "zero-copy shm column blocks vs pickled shards"),
    "E14_frontend_slo": ("PR 6", "HTTP front end under overload (shedding + SLO degrade)"),
    "E15_columnar_kernels": ("PR 7", "block-native vectorized profiling & featurization"),
    "E17_pool_routing": ("PR 10", "worker pool: least-loaded routing, kill drill"),
}


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _headline(experiment: str, data: dict) -> str:
    """The one number each benchmark exists to pin, with its gate."""
    configs = data.get("configurations", [])
    if experiment == "E10_cascade_latency":
        by_name = {c.get("configuration", ""): c for c in configs}
        exhaustive = next((c for n, c in by_name.items() if n.startswith("exhaustive")), None)
        default = next((c for n, c in by_name.items() if "default" in n), None)
        if exhaustive and default:
            ratio = default["columns_per_second"] / exhaustive["columns_per_second"]
            return (
                f"cascade {default['columns_per_second']:,.0f} col/s vs exhaustive "
                f"{exhaustive['columns_per_second']:,.0f} ({ratio:.1f}x), "
                f"accuracy {default['accuracy']:.3f} (>= exhaustive's "
                f"{exhaustive['accuracy']:.3f})"
            )
    if experiment == "E11_serving_throughput":
        best = max(
            (c for c in configs if "speedup_vs_serial" in c),
            key=lambda c: c["speedup_vs_serial"],
            default=None,
        )
        if best:
            return (
                f"best backend {best['backend']}:{best['workers']} at "
                f"{best['speedup_vs_serial']:g}x serial "
                f"({best['columns_per_second']:,.0f} col/s, "
                f"{data.get('usable_cpus', '?')} usable CPU(s))"
            )
    if experiment == "E13_shard_transport":
        return (
            f"shm ships {data['bytes_per_shard_ratio']:,.0f}x fewer result bytes "
            f"per shard than pickle (gate {data['bytes_ratio_bar']:g}x), "
            f"{len(data.get('leaked_segments', []))} leaked segments"
        )
    if experiment == "E14_frontend_slo":
        return (
            f"HTTP capacity {data['http_capacity_per_second']:g}/s of serial "
            f"{data['serial_capacity_per_second']:g}/s; pending bounded at "
            f"{data['max_pending_total']} under 2x overload"
        )
    if experiment == "E15_columnar_kernels":
        return (
            f"block-native profiling+featurization {data['speedup']:g}x faster "
            f"than the rebuild path (gate {data['speedup_bar']:g}x), "
            f"predictions bit-identical"
        )
    if experiment == "E17_pool_routing":
        drill = data.get("kill_drill", {})
        legs = "; ".join(f"{leg} {counts}" for leg, counts in data["requests_per_worker"].items())
        return (
            f"per-worker requests: {legs} (gates: one at a time all on slot 0, "
            f"all in flight within {data.get('balance_tolerance', 0.1):.0%} of the "
            f"burst), predictions bit-identical on every run; SIGKILL drill "
            f"re-dispatched {drill.get('redispatches', '?')} in-flight requests "
            f"with {drill.get('lost_requests', '?')} lost"
        )
    # Future experiments: surface any scalar that looks like a pinned gate.
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
        "that introduced it and is re-asserted on every benchmark run (numbers",
        "below are from the last committed run of each; absolute timings vary",
        "with the machine, the *gates* do not).",
        "",
        "| Experiment | PR | What it measures | Scale | Headline (gated) |",
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
