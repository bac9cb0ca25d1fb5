"""E10 (Section 4.3): cascade vs. exhaustive execution.

"To minimize overhead, each step in the pipeline is executed ... only if a
preset confidence threshold c is not met by the prior step.  The steps are
executed in order of inference time."  This experiment measures the end-to-end
latency and accuracy of the confidence-gated cascade against running every
step on every column, and sweeps the confidence threshold c.

Every leg starts cold from the same state: its own unpickled copy of the
session typer as pretraining left it (pickled before any experiment ran),
fresh copies of the corpus and empty process-wide memo tables.  So no leg
reads the header scores or column profiles that an earlier leg, or an
earlier experiment of the same run, computed.
"""

from __future__ import annotations

import pickle
from pathlib import Path

from repro.core import colblock
from repro.core.pipeline import CascadeConfig, TypeDetectionPipeline
from repro.evaluation import evaluate_annotator, format_table
from repro.matching import embeddings

#: Machine-readable E10 results, committed at the repo root so the perf
#: trajectory of the cascade stays comparable across PRs.
BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_cascade_latency.json"

#: The default cascade's bars against the exhaustive leg: at most this
#: multiple of its time, and at most this far below its accuracy.
TIME_BAR = 1.10
ACCURACY_MARGIN = 0.10


def _pipeline_variant(sigmatyper, confidence_threshold, always_run_all):
    base = sigmatyper.global_model.pipeline
    config = CascadeConfig(
        confidence_threshold=confidence_threshold,
        tau=base.config.tau,
        top_k=base.config.top_k,
        always_run_all_steps=always_run_all,
        aggregation_method=base.config.aggregation_method,
    )
    return TypeDetectionPipeline(base.steps, config=config, aggregator=base.aggregator)


def _cold_typer(snapshot):
    """A fresh typer with every cache empty, as in a newly started process."""
    embeddings._HASH_CACHE.clear()
    colblock._SIG_CACHE.clear()
    return pickle.loads(snapshot)


def test_cascade_vs_exhaustive(
    benchmark, sigmatyper, sigmatyper_snapshot, test_corpus, record_result, record_json
):
    legs = [
        ("exhaustive (all steps, all columns)", 0.85, True),
        ("cascade, c = 0.70", 0.70, False),
        ("cascade, c = 0.85 (default)", 0.85, False),
        ("cascade, c = 0.95", 0.95, False),
    ]

    rows = []
    for name, threshold, always_run_all in legs:
        pipeline = _pipeline_variant(_cold_typer(sigmatyper_snapshot), threshold, always_run_all)
        tables = [table.copy() for table in test_corpus]
        result = evaluate_annotator(pipeline, tables, name=name)
        learned_step_columns = result.step_trace.get("table_embedding", 0)
        rows.append(
            {
                "configuration": name,
                "seconds_total": round(result.wall_seconds, 3),
                "columns_per_second": round(result.metrics.total / result.wall_seconds, 1),
                "columns_reaching_learned_step": learned_step_columns,
                "accuracy": result.metrics.accuracy,
                "macro_f1": result.metrics.macro_f1,
            }
        )

    default_cascade = _pipeline_variant(sigmatyper, 0.85, False)
    benchmark(default_cascade.annotate, test_corpus[0])

    record_result(
        "E10_cascade_latency",
        format_table(
            rows,
            title="E10 — confidence-gated cascade vs exhaustive execution (caches cold per leg)",
        ),
    )
    record_json(
        BENCH_JSON_PATH,
        {
            "experiment": "E10_cascade_latency",
            "caches": "cold per leg",
            "time_bar": TIME_BAR,
            "accuracy_margin": ACCURACY_MARGIN,
            "configurations": rows,
        },
    )

    exhaustive, *cascades = rows
    default = rows[2]
    # Shape: the cascade sends fewer columns to the learned step and is at
    # least as fast, while staying within a small accuracy margin.
    assert default["columns_reaching_learned_step"] < exhaustive["columns_reaching_learned_step"]
    assert default["seconds_total"] <= exhaustive["seconds_total"] * TIME_BAR
    assert default["accuracy"] >= exhaustive["accuracy"] - ACCURACY_MARGIN
    # A stricter threshold pushes more columns to the expensive step.
    assert rows[3]["columns_reaching_learned_step"] >= rows[1]["columns_reaching_learned_step"]
