"""E11: serving throughput — execution backends over bulk annotation.

The deployment the paper targets is a multi-tenant service annotating
customer tables online.  This experiment measures the serving layer built for
that setting: ``SigmaTyper.annotate_corpus`` sharded across the ``serial``,
``threaded``, and ``multiprocess`` execution backends at several worker
counts, plus the shared content-hash :class:`ProfileStore` that lets
short-lived tables reuse warm derived state.

Two properties are pinned:

* **parity** — every backend (and the store-backed cache) returns predictions
  bit-identical to the serial path;
* **throughput** — with enough usable CPUs (≥ 4), the best parallel backend
  beats the serial path by at least 2×.  The speedup assertion scales down on
  constrained machines (a single-core container cannot speed up CPU-bound
  work by forking), but the measured numbers and the CPU budget are always
  recorded in ``BENCH_serving_throughput.json`` at the repo root.

Every configuration runs once per round, over ``ROUNDS`` rounds that start
with the serial call, and each round's speedup divides that round's serial
time by the configuration's time.  A row reports the median over rounds (the
best time is recorded beside it).  A single serial and a single parallel call
can land in different CPU speed states on a shared VM — serial calls of
identical work took 0.84–1.73 s on a 2-vCPU VM — so one pair of calls does
not measure the speedup.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import pytest

from repro.corpus import GitTablesConfig, GitTablesGenerator
from repro.evaluation import format_table
from repro.serving import ProfileStore, available_workers

#: Machine-readable E11 results, committed at the repo root alongside the E10
#: artifact so the serving-throughput trajectory stays comparable across PRs.
BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving_throughput.json"

#: Corpus size: large enough that per-shard work dominates pool/pickle
#: overhead, small enough for a CI smoke run.
SERVING_TABLES = 160

#: Rounds per configuration (each round runs every configuration once).
ROUNDS = 5


@pytest.fixture(scope="module")
def serving_corpus():
    """A dedicated bulk-annotation corpus (distinct from the training seeds)."""
    return GitTablesGenerator(
        GitTablesConfig(num_tables=SERVING_TABLES, seed=31337)
    ).generate_corpus()


def _fresh(tables):
    """Cold per-column caches, as every incoming request would carry."""
    return [table.copy() for table in tables]


def _comparable(predictions):
    """Prediction content without wall-clock timings (bit-exact floats)."""
    return [(p.table_name, p.step_trace, p.columns) for p in predictions]


def test_serving_throughput(benchmark, sigmatyper, serving_corpus, record_result):
    tables = list(serving_corpus)
    num_columns = sum(table.num_columns for table in tables)

    # Warm the model-level caches (embedder phrases, shape masks) once so
    # every configuration faces the same model state; per-column caches stay
    # cold per configuration because each gets fresh table copies.
    sigmatyper.annotate_corpus(_fresh(tables))

    # Serial first: it is every round's baseline and the parity reference.
    configurations = [
        ("serial", 1, None),
        ("multiprocess", 2, "multiprocess:2"),
        ("multiprocess", 4, "multiprocess:4"),
        ("threaded", 2, "threaded:2"),
        ("threaded", 4, "threaded:4"),
    ]

    samples: list[list[float]] = [[] for _ in configurations]
    reference = None
    for _ in range(ROUNDS):
        for (backend_name, workers, backend), seconds in zip(configurations, samples):
            batch = _fresh(tables)
            started = time.perf_counter()
            predictions = sigmatyper.annotate_corpus(batch, backend=backend)
            seconds.append(time.perf_counter() - started)
            if reference is None:
                reference = _comparable(predictions)
            else:
                # Parity: every call, serial or sharded, must be bit-identical
                # to the first serial call.
                assert _comparable(predictions) == reference, (
                    f"{backend_name}:{workers} diverged from the serial path"
                )

    serial_seconds = statistics.median(samples[0])
    rows = []
    for (backend_name, workers, _), seconds in zip(configurations, samples):
        median = statistics.median(seconds)
        speedups = [serial / elapsed for serial, elapsed in zip(samples[0], seconds)]
        rows.append(
            {
                "backend": backend_name,
                "workers": workers,
                "seconds_total": round(median, 3),
                "seconds_best": round(min(seconds), 3),
                "columns_per_second": round(num_columns / median, 1),
                "speedup_vs_serial": round(statistics.median(speedups), 2),
            }
        )

    # The shared profile store: a second wave of short-lived tables with
    # recurring content reuses warm derived state instead of recomputing it.
    store = ProfileStore(max_columns=8192)
    with store.activated():
        sigmatyper.annotate_corpus(_fresh(tables))
        started = time.perf_counter()
        warm_predictions = sigmatyper.annotate_corpus(_fresh(tables))
        warm_elapsed = time.perf_counter() - started
    assert _comparable(warm_predictions) == reference, "profile store changed predictions"
    store_row = {
        "backend": "serial + warm ProfileStore",
        "workers": 1,
        "seconds_total": round(warm_elapsed, 3),
        "columns_per_second": round(num_columns / warm_elapsed, 1),
        "speedup_vs_serial": round(serial_seconds / warm_elapsed, 2),
    }
    rows.append(store_row)

    usable_cpus = available_workers()
    record_result(
        "E11_serving_throughput",
        format_table(
            rows,
            title=(
                f"E11 — serving throughput by execution backend "
                f"({len(tables)} tables, {num_columns} columns, {usable_cpus} usable CPUs)"
            ),
        ),
    )
    BENCH_JSON_PATH.write_text(
        json.dumps(
            {
                "experiment": "E11_serving_throughput",
                "usable_cpus": usable_cpus,
                "num_tables": len(tables),
                "num_columns": num_columns,
                "rounds": ROUNDS,
                "configurations": rows,
                "profile_store": store.stats(),
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    # A representative serving operation for pytest-benchmark's timing stats:
    # one warm bulk call over a small slice.
    warm_slice = tables[:5]
    benchmark(sigmatyper.annotate_corpus, warm_slice)

    # The warm store must actually be reused for the second wave.
    assert store.hits > 0 and store.hit_rate > 0.4

    # Throughput: scaled to the machine's actual parallelism budget.  The
    # acceptance bar (≥ 2× on ≥ 4 workers) applies when the hardware can
    # physically deliver it; parity above is asserted unconditionally.
    best_parallel = max(
        row["speedup_vs_serial"]
        for row in rows
        if row["backend"] in ("threaded", "multiprocess")
    )
    if usable_cpus >= 4:
        assert best_parallel >= 2.0, (
            f"expected >= 2x speedup with {usable_cpus} CPUs, got {best_parallel}x"
        )
    elif usable_cpus >= 2:
        assert best_parallel >= 1.2, (
            f"expected >= 1.2x speedup with {usable_cpus} CPUs, got {best_parallel}x"
        )
