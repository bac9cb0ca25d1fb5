"""E13: shard transport — pickle bytes over the pool's pipe vs shared memory.

The multiprocess backend pickles whole tables out to the workers and whole
prediction lists back.  Both transports of :mod:`repro.serving.transport`
carry those same pickle bytes: the pickle transport hands them to the worker
pool's pipe, the shm transport writes them into one shared-memory segment
per shard and leg and ships only a descriptor.  This experiment runs both on
the same corpus.

Three properties are pinned:

* **bytes** — the shm transport ships at least **5× fewer bytes per shard**
  over the pool's pipe than the pickle transport (it ships descriptors; the
  shard pickle crosses in shared memory and is counted as ``shm_bytes``);
* **parity** — both transports return predictions bit-identical to the
  serial path, with zero pickle fallbacks on this corpus;
* **lifecycle** — every shared-memory segment created during the run is
  unlinked by the end of it; any survivor is printed as ``LEAKED SEGMENT
  <name>`` (the CI smoke job greps the run log for exactly that marker and
  scans ``/dev/shm``).

On machines with ≥ 4 usable CPUs the run additionally gates on the shm
transport not being slower end-to-end than the pickle transport (the pipe
copy it removes is serial time in the parent).  On the 1-CPU build
container that wall-clock comparison is physics-noise, so parity and the
bytes accounting are the assertions there — canonical caveat in
``docs/SERVING.md``.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.corpus import GitTablesConfig, GitTablesGenerator
from repro.evaluation import format_table
from repro.serving import (
    MultiprocessBackend,
    PickleTransport,
    ShmTransport,
    available_workers,
    reset_transport_stats,
    transport_stats,
)
from repro.serving.transport import RESULT_SEGMENT_PREFIX, SHARD_SEGMENT_PREFIX

#: Machine-readable E13 results, committed at the repo root alongside the
#: other benchmark artifacts so the transport trajectory stays comparable.
BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_shard_transport.json"

#: Corpus size: small enough for a CI smoke run, large enough that each of
#: the 4 shards carries a meaningful payload.
TRANSPORT_TABLES = 120
WORKERS = 4

#: Acceptance bar: pickled bytes per shard, pickle transport vs shm.
BYTES_RATIO_BAR = 5.0


def _live_segments() -> list[str]:
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux fallback
        return []
    return sorted(
        name
        for name in os.listdir(shm_dir)
        if name.startswith((SHARD_SEGMENT_PREFIX, RESULT_SEGMENT_PREFIX))
    )


@pytest.fixture(scope="module")
def transport_corpus():
    """A dedicated bulk-annotation corpus (distinct from the training seeds)."""
    return GitTablesGenerator(
        GitTablesConfig(num_tables=TRANSPORT_TABLES, seed=90210)
    ).generate_corpus()


def _fresh(tables):
    """Cold per-column caches, as every incoming request would carry."""
    return [table.copy() for table in tables]


def test_shard_transport(benchmark, sigmatyper, transport_corpus, record_result, record_json):
    reset_transport_stats()
    tables = list(transport_corpus)
    num_columns = sum(table.num_columns for table in tables)

    # Warm the model-level caches once so every configuration faces the same
    # model state; per-column caches stay cold per configuration.
    sigmatyper.annotate_corpus(_fresh(tables))

    started = time.perf_counter()
    reference = sigmatyper.annotate_corpus(_fresh(tables))
    serial_seconds = time.perf_counter() - started

    transports = [
        ("pickle", PickleTransport()),
        ("shm", ShmTransport()),
    ]
    rows = [
        {
            "transport": "(serial reference)",
            "seconds_total": round(serial_seconds, 3),
            "columns_per_second": round(num_columns / serial_seconds, 1),
            "bytes_shipped": 0,
            "bytes_per_shard": 0,
            "shm_bytes": 0,
            "pickle_fallbacks": 0,
        }
    ]
    elapsed_by_transport = {}
    stats_by_transport = {}
    for name, transport in transports:
        backend = MultiprocessBackend(WORKERS, transport=transport)
        batch = _fresh(tables)
        started = time.perf_counter()
        predictions = sigmatyper.annotate_corpus(batch, backend=backend)
        elapsed = time.perf_counter() - started
        assert predictions == reference, (
            f"{name} transport diverged from the serial path"
        )
        stats = transport.stats
        assert stats.shards == WORKERS
        elapsed_by_transport[name] = elapsed
        stats_by_transport[name] = stats
        rows.append(
            {
                "transport": f"multiprocess:{WORKERS}+{name}",
                "seconds_total": round(elapsed, 3),
                "columns_per_second": round(num_columns / elapsed, 1),
                "bytes_shipped": stats.bytes_shipped,
                "bytes_per_shard": round(stats.bytes_shipped / stats.shards),
                "shm_bytes": stats.shm_bytes,
                "pickle_fallbacks": stats.pickle_fallbacks,
            }
        )

    # Lifecycle: segments balance out and nothing survives in /dev/shm.  Leaks
    # are printed with a stable marker for the CI log grep.
    shm_stats = stats_by_transport["shm"]
    assert shm_stats.segments_created > 0
    assert shm_stats.segments_created == shm_stats.segments_unlinked
    leaked = _live_segments()
    for name in leaked:
        print(f"LEAKED SEGMENT {name}")
    assert not leaked, f"shared-memory segments leaked: {leaked}"

    # Fidelity: this corpus must ride shared memory, never the fallback.
    assert shm_stats.pickle_fallbacks == 0

    # The acceptance bar: ≥ 5× fewer pickled bytes per shard.
    pickle_per_shard = stats_by_transport["pickle"].bytes_shipped / WORKERS
    shm_per_shard = shm_stats.bytes_shipped / WORKERS
    bytes_ratio = pickle_per_shard / shm_per_shard
    assert bytes_ratio >= BYTES_RATIO_BAR, (
        f"expected the shm transport to ship >= {BYTES_RATIO_BAR}x fewer pickled "
        f"bytes per shard, got {bytes_ratio:.1f}x "
        f"({pickle_per_shard:.0f} vs {shm_per_shard:.0f} bytes)"
    )

    usable_cpus = available_workers()
    if usable_cpus >= 4:
        # With real cores, removing the serialization overhead must show up:
        # the shm run may not be slower than the pickle run beyond noise.
        assert elapsed_by_transport["shm"] <= elapsed_by_transport["pickle"] * 1.25, (
            f"shm transport slower than pickle with {usable_cpus} CPUs: "
            f"{elapsed_by_transport['shm']:.3f}s vs {elapsed_by_transport['pickle']:.3f}s"
        )

    record_result(
        "E13_shard_transport",
        format_table(
            rows,
            title=(
                f"E13 — shard transport over {len(tables)} tables / {num_columns} columns, "
                f"{WORKERS} workers, {usable_cpus} usable CPUs "
                f"(bytes ratio {bytes_ratio:.1f}x, bar {BYTES_RATIO_BAR:.0f}x)"
            ),
        ),
    )
    record_json(
        BENCH_JSON_PATH,
        {
            "experiment": "E13_shard_transport",
            "usable_cpus": usable_cpus,
            "num_tables": len(tables),
            "num_columns": num_columns,
            "workers": WORKERS,
            "configurations": rows,
            "bytes_per_shard_ratio": round(bytes_ratio, 2),
            "bytes_ratio_bar": BYTES_RATIO_BAR,
            "leaked_segments": leaked,
            "transport_stats": transport_stats(),
        },
    )

    # Representative operation for pytest-benchmark: writing one shard into
    # a segment and unlinking it again (the parent-side cost of the shm path).
    transport = ShmTransport()
    shard = tables[: max(1, len(tables) // WORKERS)]
    benchmark(lambda: transport.release(transport.encode_shard(shard)))
