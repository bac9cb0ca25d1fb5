"""E15: block-native columnar kernels — vectorized profiling & featurization.

Every shard converts its tables with :meth:`~repro.core.table.Table.to_block`
where it runs, which gives each long column a typed tag/offset/blob view;
the :mod:`repro.core.colblock` kernels then run the profiling statistics as
vectorized numpy passes over those arrays instead of walking the cells one
at a time.  This experiment measures both paths on the *same* generated
corpus:

* **rebuild path** — plain list-backed copies, built outside the timed
  region: the seed per-value profiler/featurizer runs;
* **block-native path** — fresh plain copies converted with ``to_block()``
  inside the timed region (what every shard pays), then profiled and
  featurized through their views (:class:`~repro.core.colblock.ColumnView`).

Three properties are pinned:

* **throughput** — profiling + featurization runs at least **3× faster**
  block-native than on the rebuild path (vectorization, not parallelism:
  the gate holds on a 1-CPU container);
* **parity** — end-to-end predictions are bit-identical between the two
  paths (same floats, same ranking, same step traces);
* **fallbacks** — on this corpus the only tolerated kernel fallback reason
  is ``non-ascii text`` (the generator's accented city names — see the
  ASCII-fast-path caveat in ``docs/SERVING.md``).  Any other reason, or any
  encode fallback, is printed as ``UNEXPECTED KERNEL FALLBACK <reason>``
  and fails the run (the CI smoke job greps the log for that marker).

A fourth table is reported, not gated: the **crossover**, time per column of
``annotate_corpus`` on a warm typer with kernel views on every column
against none, at each of ``CROSSOVER_ROWS``.  Views cost a fixed amount per
column that only long columns win back; ``colblock.MIN_KERNEL_ROWS`` is set
from where this table crosses, and a later run re-checks it.
"""

from __future__ import annotations

import gc
import statistics
import time
from pathlib import Path

import pytest

from repro.core import colblock
from repro.core.table import Table
from repro.corpus import GitTablesConfig, GitTablesGenerator
from repro.evaluation import format_table
from repro.profiler.statistics import profile_column

#: Machine-readable E15 results, committed at the repo root alongside the
#: other benchmark artifacts so the kernel trajectory stays comparable.
BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_columnar_kernels.json"

#: Serving-scale shard: few tables, long columns — the regime the kernels
#: target (vectorization amortizes per-column setup over many cells).
KERNEL_TABLES = 10
MIN_ROWS = 3000
MAX_ROWS = 5000

#: Acceptance bar: profiling+featurization speedup, block-native vs rebuild.
SPEEDUP_BAR = 3.0

#: Timing repeats per path.  The legs are interleaved (rebuild, native,
#: rebuild, native, ...) and the per-leg minimum is taken, so a transient
#: load spike on a shared 1-CPU container cannot inflate one leg's every
#: sample.  A first untimed pass per leg warms the process-wide caches —
#: subword embedder, shape masks, type signatures — so both paths face
#: identical cache state.
REPEATS = 5

#: Fallback reasons this corpus is allowed to produce (accented city names).
EXPECTED_FALLBACK_REASONS = {"non-ascii text"}

#: Crossover table: rows per column, tables per row count, and alternating
#: timed repeats per path (after one untimed pass that warms the typer).
CROSSOVER_ROWS = (25, 50, 75, 100, 150, 250)
CROSSOVER_TABLES = 24
CROSSOVER_REPEATS = 5


@pytest.fixture(scope="module")
def kernel_corpus():
    """The generated corpus; every pass works on fresh copies of it."""
    return list(
        GitTablesGenerator(
            GitTablesConfig(
                num_tables=KERNEL_TABLES, seed=424242, min_rows=MIN_ROWS, max_rows=MAX_ROWS
            )
        ).generate_corpus()
    )


def _fresh(corpus: list[Table]) -> list[Table]:
    """Plain list-backed copies: cold memos, no views."""
    return [table.copy() for table in corpus]


def _profile_and_featurize(tables: list[Table], featurizer) -> int:
    """The serving hot loop: profile every column, featurize every table."""
    num_columns = 0
    for table in tables:
        for column in table.columns:
            profile_column(column)
        featurizer.extract_many([(column, table) for column in table.columns])
        num_columns += table.num_columns
    return num_columns


def _timed_pass(corpus: list[Table], featurizer, kernels: bool) -> tuple[float, int]:
    tables = _fresh(corpus)
    # Deterministic heap state: the previous pass's tables (and their
    # memoized profiles) are collected outside the timed region.
    gc.collect()
    started = time.perf_counter()
    if kernels:
        tables = [table.to_block() for table in tables]
    num_columns = _profile_and_featurize(tables, featurizer)
    return time.perf_counter() - started, num_columns


def _crossover(sigmatyper, monkeypatch) -> list[dict]:
    """Median time per column of ``annotate_corpus``, kernels against
    per-value, for tables of each of ``CROSSOVER_ROWS`` rows."""
    longest = max(CROSSOVER_ROWS)
    # One corpus cut to each length: only the row count differs between rows.
    full = GitTablesGenerator(
        GitTablesConfig(num_tables=CROSSOVER_TABLES, seed=2525, min_rows=longest, max_rows=longest)
    ).generate_corpus()
    num_columns = sum(table.num_columns for table in full)
    rows = []
    for num_rows in CROSSOVER_ROWS:
        corpus = [table.head(num_rows) for table in full]
        samples: dict = {True: [], False: []}
        for repeat in range(CROSSOVER_REPEATS + 1):
            for kernels in (True, False) if repeat % 2 else (False, True):
                # The bound gives every column a view, or none.
                monkeypatch.setattr(colblock, "MIN_KERNEL_ROWS", 0 if kernels else num_rows + 1)
                tables = [table.copy() for table in corpus]
                gc.collect()
                started = time.perf_counter()
                sigmatyper.annotate_corpus(tables)
                if repeat:
                    samples[kernels].append(time.perf_counter() - started)
        kernel_us, per_value_us = (
            statistics.median(samples[kernels]) / num_columns * 1e6 for kernels in (True, False)
        )
        rows.append(
            {
                "rows": num_rows,
                "columns": num_columns,
                "kernels_us_per_column": round(kernel_us, 1),
                "per_value_us_per_column": round(per_value_us, 1),
                "kernels_faster": kernel_us < per_value_us,
            }
        )
    monkeypatch.undo()
    return rows


def test_columnar_kernels(benchmark, sigmatyper, kernel_corpus, record_result, record_json, monkeypatch):
    featurizer = sigmatyper.global_model.classifier.featurizer
    corpus = kernel_corpus

    colblock.reset_kernel_stats()

    # Warm the process-wide caches once per path so the timed passes compare
    # kernel arithmetic, not cache population.
    _timed_pass(corpus, featurizer, kernels=False)
    _timed_pass(corpus, featurizer, kernels=True)

    rebuild_seconds = float("inf")
    native_seconds = float("inf")
    num_columns = 0
    for _ in range(REPEATS):
        rebuild_seconds = min(
            rebuild_seconds, _timed_pass(corpus, featurizer, kernels=False)[0]
        )
        seconds, num_columns = _timed_pass(corpus, featurizer, kernels=True)
        native_seconds = min(native_seconds, seconds)
    speedup = rebuild_seconds / native_seconds

    # End-to-end parity: annotate_corpus (which converts with to_block())
    # must produce predictions bit-identical to the pipeline reading plain
    # list-backed copies per value.
    reference = sigmatyper.global_model.pipeline.annotate_many(_fresh(corpus))
    native_predictions = sigmatyper.annotate_corpus(_fresh(corpus))
    assert native_predictions == reference, (
        "block-native kernels diverged from the per-value path"
    )

    # Fallback audit: only the documented non-ASCII reason is tolerated here.
    stats = colblock.kernel_stats()
    unexpected = {
        reason: count
        for reason, count in stats["fallback_reasons"].items()
        if reason not in EXPECTED_FALLBACK_REASONS
    }
    if stats["encode_fallbacks"]:
        unexpected["encode fallback"] = stats["encode_fallbacks"]
    for reason, count in sorted(unexpected.items()):
        print(f"UNEXPECTED KERNEL FALLBACK {reason} x{count}")
    assert not unexpected, f"unexpected kernel fallbacks: {unexpected}"

    assert speedup >= SPEEDUP_BAR, (
        f"expected block-native profiling+featurization to be >= {SPEEDUP_BAR}x "
        f"faster than the rebuild path, got {speedup:.2f}x "
        f"({rebuild_seconds:.3f}s vs {native_seconds:.3f}s)"
    )

    crossover = _crossover(sigmatyper, monkeypatch)
    rows = [
        {
            "path": "rebuild (plain lists)",
            "seconds_total": round(rebuild_seconds, 3),
            "columns_per_second": round(num_columns / rebuild_seconds, 1),
        },
        {
            "path": "block-native (kernel views)",
            "seconds_total": round(native_seconds, 3),
            "columns_per_second": round(num_columns / native_seconds, 1),
        },
    ]
    record_result(
        "E15_columnar_kernels",
        format_table(
            rows,
            title=(
                f"E15 — columnar kernels over {KERNEL_TABLES} tables / "
                f"{num_columns} columns x {MIN_ROWS}-{MAX_ROWS} rows "
                f"(speedup {speedup:.2f}x, bar {SPEEDUP_BAR:.0f}x, "
                f"hits {stats['kernel_hits']}, fallbacks {stats['kernel_fallbacks']})"
            ),
        )
        + "\n\n"
        + format_table(
            crossover,
            title=(
                f"E15 crossover — annotate_corpus time per column on a warm typer, "
                f"{CROSSOVER_TABLES} tables per row count, median of {CROSSOVER_REPEATS} "
                f"(MIN_KERNEL_ROWS = {colblock.MIN_KERNEL_ROWS}, not gated)"
            ),
        ),
    )
    record_json(
        BENCH_JSON_PATH,
        {
            "experiment": "E15_columnar_kernels",
            "num_tables": KERNEL_TABLES,
            "num_columns": num_columns,
            "min_rows": MIN_ROWS,
            "max_rows": MAX_ROWS,
            "configurations": rows,
            "speedup": round(speedup, 2),
            "speedup_bar": SPEEDUP_BAR,
            "kernel_stats": stats,
            "crossover": crossover,
            "min_kernel_rows": colblock.MIN_KERNEL_ROWS,
        },
    )

    # Representative operation for pytest-benchmark: the vectorized profile
    # kernel over the largest column's to_block() view (pure function, no
    # memo).
    tables = [table.to_block() for table in _fresh(corpus)]
    largest = max(
        (column for table in tables for column in table.columns),
        key=lambda column: len(column.values),
    )
    view = largest._kernel_view()
    assert view is not None
    benchmark(
        colblock.kernel_profile, view, largest.name, largest.data_type, 5, 5
    )
