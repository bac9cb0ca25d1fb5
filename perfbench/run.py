"""The repository benchmark: one workload per run, outputs checked, metrics printed.

Run from the repository root::

    python3 perfbench/run.py --workload cold_bulk --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` first measures an untraced half-length phase, then wraps the
program's public functions (see ``tracing.py``) and measures a traced
half-length phase; it prints the per-layer metrics and writes the per-layer
self-time ledger and every span to ``.perfbench_out/``.  The last line of
standard output of a finished run is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import sys
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"
if not (SOURCE / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program source under {SOURCE}")
sys.path.insert(0, str(SOURCE))

import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.serving.transport import reset_transport_stats, transport_stats  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"

#: (name, unit) of every end-to-end metric, reported by every workload.
END_TO_END = [
    ("setup_s", "s"),
    ("cols_per_s", "col/s"),
    ("latency_p50_ms", "ms"),
    ("accuracy", "ratio"),
    ("peak_rss_mb", "MB"),
]

#: Per-layer ``*_s`` metrics: metric name -> span name whose self time it sums.
SELF_TIMES = {
    "api.self_s": ("api.annotate_corpus", "api.give_feedback"),
    "pipeline.self_s": ("pipeline.annotate",),
    "matching.header_self_s": ("matching.header",),
    "matching.embed_s": ("matching.embed",),
    "profile.data_type_s": ("profile.data_type",),
    "profile.to_block_s": ("profile.to_block",),
    "profile.stats_s": ("profile.stats",),
    "lookup.step_s": ("lookup.step",),
    "lookup.kb_s": ("lookup.kb",),
    "lookup.regex_s": ("lookup.regex",),
    "lookup.lf_s": ("lookup.lf",),
    "embedding.step_s": ("embedding.step",),
    "embedding.featurize_s": ("embedding.featurize",),
    "embedding.forward_s": ("embedding.forward",),
    "aggregate.s": ("aggregate.combine",),
    "adaptation.blend_s": ("adaptation.blend",),
    "adaptation.local_scores_s": ("adaptation.local_scores",),
    "dpbd.relabel_s": ("dpbd.relabel",),
    "dpbd.lf_inference_s": ("dpbd.lf_inference",),
    "dpbd.weak_labels_s": ("dpbd.weak_labels",),
    "dpbd.label_model_s": ("dpbd.label_model",),
    "backend.run_s": ("backend.run",),
    "transport.encode_s": ("transport.encode",),
    "transport.decode_s": ("transport.decode",),
    "transport.worker_open_s": ("transport.worker_open",),
    "transport.worker_encode_s": ("transport.worker_encode",),
    "frontend.parse_s": ("frontend.parse",),
    "frontend.encode_s": ("frontend.encode",),
}

#: Counts that must come out identical in every repetition of one run (and
#: in two runs of the same code and seed).
EXACT_COUNTS = [
    "cascade.columns.header_matching",
    "cascade.columns.value_lookup",
    "cascade.columns.table_embedding",
    "matching.similarity_calls",
    "fuzzy.levenshtein_calls",
    "lookup.regex_values",
    "lookup.lf_similarity_calls",
    "dpbd.label_model_columns",
    "transport.bytes_out",
    "transport.bytes_back",
]

#: (name, unit) of every per-layer metric, reported by every workload.
PER_LAYER = (
    [(name, "s") for name in SELF_TIMES]
    + [(name, "bytes" if name.startswith("transport.") else "count") for name in EXACT_COUNTS]
    + [
        ("matching.distinct_headers", "count"),
        ("matching.similarity_hit_ratio", "ratio"),
        ("lookup.columns", "count"),
        ("lookup.regex_distinct_ratio", "ratio"),
        ("embedding.columns", "count"),
        ("aggregate.calls", "count"),
        ("backend.worker_busy_s", "s"),
        ("transport.fallbacks", "count"),
        ("service.queue_s", "s"),
        ("service.batch_s", "s"),
        ("service.batch_size", "count"),
        ("frontend.shed", "count"),
        ("frontend.failed", "count"),
        ("client.lateness_ms", "ms"),
        ("client.latency_p99_ms", "ms"),
        ("trace.wall_s", "s"),
        ("trace.coverage", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    ]
)

#: Named layers must account for at least this share of a serial
#: workload's traced wall-clock.
COVERAGE_TOLERANCE = 0.98
SERIAL_WORKLOADS = ("cold_bulk", "adapted_feedback")

#: Fewest repetitions per phase; a traced phase needs two to compare counts.
MIN_REPS = {"cold_bulk": 3, "warm_sharded": 3, "adapted_feedback": 2, "online_http": 1}
TRACED_MIN_REPS = {"cold_bulk": 2, "warm_sharded": 2, "adapted_feedback": 2, "online_http": 1}


def end_to_end(phase, setup_seconds: float) -> dict:
    """End-to-end metrics; timings at the reference machine speed."""
    return {
        "setup_s": setup_seconds,
        "cols_per_s": harness.median(phase.rates),
        "latency_p50_ms": harness.median(phase.latencies_ms),
        "accuracy": phase.correct / max(phase.labeled, 1),
        "peak_rss_mb": harness.peak_rss_mb(),
    }


def p99(samples) -> float:
    return harness.percentile(samples, 0.99) if samples else 0.0


def rep_metrics(trace: dict, cascade: dict) -> dict:
    """Per-layer metrics of one traced repetition."""
    spans = trace["spans"]
    counts = trace["counts"]
    distinct = trace["distinct"]
    own = tracing.self_seconds(spans)
    metrics = {
        name: sum(own.get(span, 0.0) for span in span_names)
        for name, span_names in SELF_TIMES.items()
    }
    for key in EXACT_COUNTS + ["lookup.columns", "embedding.columns"]:
        metrics[key] = counts.get(key, 0)
    for step in ("header_matching", "value_lookup", "table_embedding"):
        metrics[f"cascade.columns.{step}"] = cascade.get(step, 0)
    calls = counts.get("matching.similarity_calls", 0)
    metrics["matching.similarity_hit_ratio"] = (
        counts.get("matching.similarity_hits", 0) / calls if calls else 0.0)
    metrics["matching.distinct_headers"] = len(distinct.get("matching.distinct_headers", ()))
    values = counts.get("lookup.regex_values", 0)
    metrics["lookup.regex_distinct_ratio"] = (
        len(distinct.get("lookup.regex_values", ())) / values if values else 0.0)
    metrics["aggregate.calls"] = tracing.span_counts(spans).get("aggregate.combine", 0)
    metrics["backend.worker_busy_s"] = tracing.inclusive_seconds(spans, "backend.worker_run")
    roots = [s for s in spans if s[2] == "bench.rep"]
    if roots:
        wall = sum(end - start for _, _, _, start, end, _, _ in roots)
        unattributed = sum(s[5] for s in roots)
    else:  # online_http: no root span; the server's busy share of the phase
        wall = trace["wall"]
        unattributed = max(wall - sum(v for v in own.values()), 0.0)
    metrics["trace.wall_s"] = wall
    metrics["trace.coverage"] = 1.0 - unattributed / wall if wall else 0.0
    return metrics


def ledger_lines(workload: str, traces: list) -> tuple[list[str], dict]:
    """Human-readable per-layer self-time ledger, and its JSON form."""
    reps = len(traces)
    by_name: dict[str, float] = {}
    for trace in traces:
        for name, seconds in tracing.self_seconds(trace["spans"]).items():
            by_name[name] = by_name.get(name, 0.0) + seconds / reps
    by_layer = tracing.by_layer(by_name)
    total = sum(by_name.values())
    lines = [f"self-time ledger, {workload}, per repetition ({reps} traced):"]
    for layer, seconds in sorted(by_layer.items(), key=lambda item: -item[1]):
        lines.append(f"  {layer:<28} {seconds:10.4f} s  {100 * seconds / total:5.1f}%")
        for name, own in sorted(by_name.items(), key=lambda item: -item[1]):
            if tracing.LAYERS.get(name, "other") == layer:
                lines.append(f"      {name:<24} {own:10.4f} s")
    return lines, {"per_span": by_name, "per_layer": by_layer, "repetitions": reps}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    snapshot, seen, pretrain_seconds, raw_pretrain = harness.timed_snapshot()
    properties, prepare_seconds, scale = harness.measure(
        lambda: workload.prepare(args.seed, snapshot, seen))
    setup_seconds = pretrain_seconds + prepare_seconds * scale
    print(f"{args.workload} seed={args.seed} inputs: {json.dumps(properties)}")

    min_reps = MIN_REPS[args.workload]
    if not args.trace:
        phase = workload.phase(args.seconds, min_reps)
        print(f"samples: {len(phase.latencies_ms)} latencies, {len(phase.rates)} rates; "
              f"latency_p99_ms={p99(phase.latencies_ms):.3f}")
        print(f"as measured (unscaled): setup_s={raw_pretrain + prepare_seconds:.4f} "
              f"cols_per_s={harness.median(phase.raw_rates):.2f} "
              f"latency_p50_ms={harness.median(phase.raw_latencies_ms):.3f} "
              f"latency_p99_ms={p99(phase.raw_latencies_ms):.3f} "
              f"speed scale={harness.median(phase.scales):.3f}")
        metrics = end_to_end(phase, setup_seconds)
        return report(phase.failed == 0, phase.attempted, phase.failed, metrics, dict(END_TO_END))

    plain = workload.phase(args.seconds / 2, min_reps)
    OUT_DIR.mkdir(exist_ok=True)
    recorder = tracing.Recorder(OUT_DIR)
    uninstall = tracing.install(recorder)
    reset_transport_stats()
    try:
        traced = workload.phase(args.seconds / 2, TRACED_MIN_REPS[args.workload], recorder)
    finally:
        uninstall()
    fallbacks = sum(bucket.get("pickle_fallbacks", 0) + bucket.get("result_pickle_fallbacks", 0)
                    for bucket in transport_stats().values())

    per_rep = [rep_metrics(trace, cascade) for trace, cascade in zip(traced.traces, traced.cascade)]
    metrics = {name: sum(rep[name] for rep in per_rep) / len(per_rep) for name in per_rep[0]}
    repeated = all(rep[key] == per_rep[0][key] for rep in per_rep for key in EXACT_COUNTS)
    if not repeated:
        print("count check: exact counts differ between repetitions")
    for key in EXACT_COUNTS:
        metrics[key] = per_rep[0][key]
    metrics.update({key: 0.0 for key in ("service.queue_s", "service.batch_s", "service.batch_size",
                                         "frontend.shed", "frontend.failed", "client.lateness_ms")})
    metrics.update(traced.extra)
    metrics["transport.fallbacks"] = fallbacks / len(per_rep)
    online = args.workload == "online_http"
    metrics["client.latency_p99_ms"] = p99(traced.latencies_ms) if online else 0.0
    traced_scale = harness.median(traced.scales)
    for name, unit in PER_LAYER:
        if unit in ("s", "ms"):
            metrics[name] *= traced_scale
    if online:
        metrics["trace.overhead_ratio"] = (
            harness.median(traced.latencies_ms) / harness.median(plain.latencies_ms))
    else:
        metrics["trace.overhead_ratio"] = harness.median(plain.rates) / harness.median(traced.rates)
    covered = metrics["trace.coverage"] >= COVERAGE_TOLERANCE
    if args.workload in SERIAL_WORKLOADS and not covered:
        print(f"coverage check: named layers cover {metrics['trace.coverage']:.4f} "
              f"of the traced wall-clock, below {COVERAGE_TOLERANCE}")

    lines, ledger = ledger_lines(args.workload, traced.traces)
    print("\n".join(lines))
    print(f"tracing overhead ratio: {metrics['trace.overhead_ratio']:.3f} (above 1: traced is slower)")
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}"
    ledger["speed_scale"] = traced_scale  # the ledger is as measured; metrics are scaled
    ledger["metrics"] = metrics
    Path(f"{stem}-ledger.json").write_text(json.dumps(ledger, indent=2) + "\n", encoding="utf-8")
    tracing.write_spans(Path(f"{stem}-spans.tsv"), traced.traces)

    failed = plain.failed + traced.failed
    correct = failed == 0 and repeated and (covered or args.workload not in SERIAL_WORKLOADS)
    return report(correct, plain.attempted + traced.attempted, failed, metrics, dict(PER_LAYER))


def report(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> int:
    payload = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(payload))
    return 0


def stop_resource_tracker() -> None:
    """Stop the helper process the shm transport's shared memory started, and
    wait for it, so no process of the run outlives it."""
    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    status = main()
    stop_resource_tracker()
    sys.exit(status)
