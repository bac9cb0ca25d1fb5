"""Shard transports: lifecycle, fallback, and parity.

Three contracts are pinned here:

* **parity** — annotating through ``multiprocess:N+shm`` (and every fallback
  path inside it) returns predictions bit-identical to the serial path;
* **lifecycle** — no ``/dev/shm`` segment survives a run, including runs
  where a forked worker crashed mid-shard or raised mid-annotation;
* **fallback** — any shard and any result pickle rides shared memory, cell
  types intact; one larger than ``ShmTransport.MAX_SEGMENT_BYTES`` rides the
  pool's pipe instead, never an error or a changed prediction.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

from datagen import mixed_table
from repro.core.errors import ConfigurationError
from repro.core.prediction import ColumnPrediction, TablePrediction, TypeScore
from repro.core.table import Table
from repro.serving import (
    MultiprocessBackend,
    PickleTransport,
    ShmTransport,
    resolve_backend,
    resolve_transport,
    reset_transport_stats,
    transport_stats,
)
from repro.serving.transport import RESULT_SEGMENT_PREFIX, SHARD_SEGMENT_PREFIX

SHM_DIR = "/dev/shm"


def _our_segments() -> list[str]:
    """Names of live shared-memory segments created by the shard transport."""
    if not os.path.isdir(SHM_DIR):  # pragma: no cover - non-Linux fallback
        return []
    return sorted(
        name
        for name in os.listdir(SHM_DIR)
        if name.startswith((SHARD_SEGMENT_PREFIX, RESULT_SEGMENT_PREFIX))
    )


@pytest.fixture(autouse=True)
def _no_segment_leaks():
    """Every test in this module must leave /dev/shm exactly as it found it."""
    before = _our_segments()
    yield
    assert _our_segments() == before, "test leaked shared-memory segments"


def _fresh(tables):
    return [table.copy() for table in tables]


def _typed_cells(column) -> tuple:
    """The header plus every cell as (exact type name, repr): equal only for
    the same values with the same exact types, and NaN-safe, unlike list
    equality (``repr`` of a float round-trips it, ``-0.0`` included)."""
    return column.name, [(type(value).__name__, repr(value)) for value in column.values]


# The canonical "every supported cell type" specimen lives in datagen so the
# transport and kernel suites share one value space.
_mixed_table = mixed_table


# ------------------------------------------------------------------ spec seam
class TestTransportSpecs:
    def test_multiprocess_spec_selects_transport(self):
        backend = resolve_backend("multiprocess:4+shm")
        assert isinstance(backend, MultiprocessBackend)
        assert backend.max_workers == 4
        assert backend.transport.name == "shm"
        assert backend.describe()["transport"] == "shm"
        assert resolve_backend("multiprocess+pickle").transport.name == "pickle"
        assert resolve_backend("multiprocess:2").transport.name == "pickle"

    def test_transport_spec_rejected_off_multiprocess(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("serial+shm")

    def test_unknown_transport_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("multiprocess:2+arrow")
        with pytest.raises(ConfigurationError):
            resolve_transport(42)

    def test_resolve_transport(self):
        assert resolve_transport(None).name == "pickle"
        assert resolve_transport("shm").name == "shm"
        transport = ShmTransport()
        assert resolve_transport(transport) is transport


# ------------------------------------------------------------------- lifecycle
def _shard_names(shard):
    return [[column.name for column in table.columns] for table in shard]


class TestLifecycle:
    def test_success_path_unlinks_every_segment(self):
        transport = ShmTransport()
        backend = MultiprocessBackend(max_workers=3, transport=transport)
        tables = [_mixed_table().copy() for _ in range(6)]
        results = backend.map_shards(_shard_names, tables)
        assert results == _shard_names(tables)
        assert transport.stats.segments_created > 0
        assert transport.stats.segments_created == transport.stats.segments_unlinked
        assert _our_segments() == []

    def test_worker_crash_mid_shard_leaks_nothing(self):
        transport = ShmTransport()
        backend = MultiprocessBackend(max_workers=2, transport=transport)
        tables = [_mixed_table().copy() for _ in range(4)]

        def crash(shard):
            os._exit(13)  # simulate a hard worker death, not an exception

        with pytest.raises(BrokenProcessPool):
            backend.map_shards(crash, tables)
        assert transport.stats.segments_created > 0
        assert _our_segments() == []

    def test_worker_exception_mid_shard_propagates_and_leaks_nothing(self):
        backend = MultiprocessBackend(max_workers=2, transport="shm")
        tables = [_mixed_table().copy() for _ in range(4)]

        def boom(shard):
            raise ValueError("annotation failed mid-shard")

        with pytest.raises(ValueError, match="mid-shard"):
            backend.map_shards(boom, tables)
        assert _our_segments() == []

    def test_encode_failure_mid_batch_releases_earlier_segments(self):
        """If encoding shard N fails (e.g. /dev/shm exhaustion), the segments
        already created for shards 0..N-1 must still be unlinked."""
        transport = ShmTransport()
        original_encode = transport.encode_shard
        calls = {"n": 0}

        def failing_encode(items):
            calls["n"] += 1
            if calls["n"] == 2:
                raise OSError("no space left on /dev/shm")
            return original_encode(items)

        transport.encode_shard = failing_encode
        backend = MultiprocessBackend(max_workers=2, transport=transport)
        tables = [_mixed_table().copy() for _ in range(4)]
        with pytest.raises(OSError, match="no space left"):
            backend.map_shards(_shard_names, tables)
        assert transport.stats.segments_created == 1
        assert transport.stats.segments_unlinked == 1
        assert _our_segments() == []

    def test_orphaned_result_segment_is_reclaimed_by_release(self):
        """A worker that died after creating its result segment but before
        reporting it back leaves a deterministically named orphan; release()
        must find and unlink it."""
        from multiprocessing import shared_memory

        transport = ShmTransport()
        payload = transport.encode_shard([_mixed_table()])
        assert payload[0] == "shm"
        uid = payload[1]
        # repro-lint: disable=RL003 deliberately orphaned to simulate a dead worker; release() below must reclaim it
        orphan = shared_memory.SharedMemory(
            create=True, name=f"{RESULT_SEGMENT_PREFIX}{uid}", size=16
        )
        orphan.close()
        transport.release(payload)
        assert _our_segments() == []
        # release is idempotent.
        transport.release(payload)


# -------------------------------------------------------------------- fallback
@pytest.fixture
def segment_ceiling(monkeypatch):
    """Set ``ShmTransport.MAX_SEGMENT_BYTES`` for one test."""
    return lambda size: monkeypatch.setattr(ShmTransport, "MAX_SEGMENT_BYTES", size)


class TestPickleFallback:
    def test_results_aliasing_input_views_survive_the_trip(self):
        """A shard function may return its own input tables: they come back
        whole, with every cell's exact type, and both legs ride shm."""
        transport = ShmTransport()
        backend = MultiprocessBackend(max_workers=2, transport=transport)
        tables = [_mixed_table().copy() for _ in range(4)]
        echoed = backend.map_shards(lambda shard: shard, tables)
        assert transport.stats.pickle_fallbacks == 0
        assert transport.stats.result_pickle_fallbacks == 0
        for got, expected in zip(echoed, tables):
            assert got.name == expected.name
            for got_column, expected_column in zip(got.columns, expected.columns):
                assert isinstance(got_column.values, list)
                assert _typed_cells(got_column) == _typed_cells(expected_column)
        assert _our_segments() == []

    def test_non_table_items_ride_shm(self):
        transport = ShmTransport()
        backend = MultiprocessBackend(max_workers=2, transport=transport)
        doubled = backend.map_shards(lambda shard: [2 * x for x in shard], list(range(10)))
        assert doubled == [2 * x for x in range(10)]
        assert transport.stats.pickle_fallbacks == 0
        assert transport.stats.result_pickle_fallbacks == 0
        # Two shard segments out, two result segments back, all unlinked.
        assert transport.stats.segments_created == 4
        assert transport.stats.segments_unlinked == 4

    def test_non_builtin_cells_ride_shm_bit_exactly(self):
        import numpy as np

        transport = ShmTransport()
        backend = MultiprocessBackend(max_workers=2, transport=transport)
        tables = [
            Table.from_columns_dict(
                {"c": [np.float64(1.5), np.float64("nan"), ("tuple", "cell"), None]},
                name=f"t{i}",
            )
            for i in range(4)
        ]
        # The worker reports each cell as it received it.
        seen = backend.map_shards(lambda shard: [_typed_cells(t.columns[0]) for t in shard], tables)
        assert seen == [_typed_cells(table.columns[0]) for table in tables]
        assert [kind for kind, _ in seen[0][1]] == ["float64", "float64", "tuple", "NoneType"]
        assert transport.stats.pickle_fallbacks == 0
        assert transport.stats.result_pickle_fallbacks == 0

    def test_oversized_shard_falls_back(self, segment_ceiling):
        segment_ceiling(64)
        transport = ShmTransport()
        backend = MultiprocessBackend(max_workers=2, transport=transport)
        tables = [_mixed_table().copy() for _ in range(4)]
        results = backend.map_shards(_shard_names, tables)
        assert results == _shard_names(tables)
        assert transport.stats.pickle_fallbacks == 2
        assert "MAX_SEGMENT_BYTES" in transport.stats.last_fallback_reason
        assert transport.stats.segments_created == 0
        assert _our_segments() == []

    def test_oversized_results_fall_back_while_shard_uses_shm(self, segment_ceiling):
        """Shard fits the segment ceiling, results do not: the worker must
        return pickled results rather than fail (per-leg fallback)."""
        small = Table.from_columns_dict({"c": ["x", "y"]}, name="t")
        shard = [small.copy(), small.copy()]
        segment_ceiling(len(pickle.dumps(shard, pickle.HIGHEST_PROTOCOL)))
        transport = ShmTransport()
        backend = MultiprocessBackend(max_workers=2, transport=transport)

        def fat_predictions(shard):
            return [
                TablePrediction(
                    table_name=table.name,
                    columns=[
                        ColumnPrediction(
                            column_index=0,
                            column_name="c" * 4096,
                            scores=[TypeScore(0.5, "city")],
                        )
                    ],
                )
                for table in shard
            ]

        tables = [small.copy() for _ in range(4)]
        results = backend.map_shards(fat_predictions, tables)
        assert [r.columns[0].column_name for r in results] == ["c" * 4096] * 4
        # The legs fall back independently and are counted independently.
        assert transport.stats.pickle_fallbacks == 0
        assert transport.stats.result_pickle_fallbacks == 2
        assert transport.stats.segments_created == transport.stats.segments_unlinked
        assert _our_segments() == []


# --------------------------------------------------------------------- parity
class TestTransportParity:
    def test_shm_annotation_matches_serial_and_pickle(self, pretrained_typer, eval_corpus):
        tables = [table.copy() for table in eval_corpus]
        serial = pretrained_typer.annotate_corpus(_fresh(tables))
        via_pickle = pretrained_typer.annotate_corpus(
            _fresh(tables), backend="multiprocess:2+pickle"
        )
        via_shm = pretrained_typer.annotate_corpus(_fresh(tables), backend="multiprocess:2+shm")
        assert serial == via_pickle
        assert serial == via_shm
        assert _our_segments() == []

    def test_shm_parity_across_worker_counts(self, pretrained_typer, eval_corpus):
        tables = [table.copy() for table in eval_corpus]
        serial = pretrained_typer.annotate_corpus(_fresh(tables))
        for spec in ("multiprocess:3+shm", "multiprocess:4+shm"):
            sharded = pretrained_typer.annotate_corpus(_fresh(tables), backend=spec)
            assert sharded == serial, spec

    def test_shm_ships_fewer_bytes_than_pickle(self, pretrained_typer, eval_corpus):
        tables = [table.copy() for table in eval_corpus]
        pickle_transport = PickleTransport()
        shm_transport = ShmTransport()
        pretrained_typer.annotate_corpus(
            _fresh(tables), backend=MultiprocessBackend(2, transport=pickle_transport)
        )
        pretrained_typer.annotate_corpus(
            _fresh(tables), backend=MultiprocessBackend(2, transport=shm_transport)
        )
        assert shm_transport.stats.pickle_fallbacks == 0
        assert shm_transport.stats.shards == pickle_transport.stats.shards
        # The acceptance bar proper (≥ 5×) is pinned by the E13 benchmark on a
        # larger corpus; here we require a clear win on the tiny test corpus.
        assert shm_transport.stats.bytes_shipped * 2 < pickle_transport.stats.bytes_shipped

    def test_pickle_transport_accounting_matches_actual_pickle(self):
        transport = PickleTransport()
        items = [_mixed_table()]
        payload = transport.encode_shard(items)
        assert transport.stats.bytes_shipped >= len(pickle.dumps(items, pickle.HIGHEST_PROTOCOL))
        decoded = transport.open_shard(payload)
        assert decoded[0].column_names == items[0].column_names

    def test_summary_reports_shard_transport_bytes(self, pretrained_typer, eval_corpus):
        tables = [table.copy() for table in eval_corpus][:4]
        pretrained_typer.annotate_corpus(_fresh(tables), backend="multiprocess:2+shm")
        summary = pretrained_typer.summary()
        assert "shard_transport" in summary
        assert summary["shard_transport"]["shm"]["shards"] > 0
        assert summary["shard_transport"]["shm"]["bytes_shipped"] > 0


# ---------------------------------------------------------- stats aggregation
class TestTransportStatsAggregation:
    """The process-wide aggregate sums counters per transport name as they
    are counted: re-resolving an in-use transport must never double count,
    and retired instances must not lose their history."""

    def test_re_resolving_an_in_use_transport_counts_once(self, segment_ceiling):
        # Regression: the name-keyed delta aggregate double counted when a
        # transport was re-resolved mid-run (instance + aggregate both fed).
        segment_ceiling(0)
        reset_transport_stats()
        transport = ShmTransport()
        payload = transport.encode_shard(["x"])
        transport.release(payload)
        assert resolve_transport(transport) is transport  # mid-run re-resolution
        resolve_transport(transport)
        payload = transport.encode_shard(["y"])
        transport.release(payload)
        aggregate = transport_stats()["shm"]
        assert transport.stats.shards == 2
        assert aggregate["shards"] == 2
        assert transport.stats.pickle_fallbacks == 2
        assert aggregate["pickle_fallbacks"] == 2

    def test_two_instances_of_one_name_sum(self):
        reset_transport_stats()
        first, second = PickleTransport(), PickleTransport()
        for transport in (first, second):
            transport.release(transport.encode_shard(["x"]))
        assert transport_stats()["pickle"]["shards"] == 2

    def test_retired_instances_keep_their_counts(self, segment_ceiling):
        import gc

        segment_ceiling(0)
        reset_transport_stats()
        transport = ShmTransport()
        transport.release(transport.encode_shard(["x"]))
        del transport
        gc.collect()
        aggregate = transport_stats()["shm"]
        assert aggregate["shards"] == 1
        assert aggregate["pickle_fallbacks"] == 1

    def test_reset_zeroes_the_aggregate_but_not_instances(self):
        transport = ShmTransport()
        transport.release(transport.encode_shard(["x"]))
        reset_transport_stats()
        assert "shm" not in transport_stats()
        assert transport.stats.shards == 1  # instance counters untouched
        transport.release(transport.encode_shard(["y"]))
        assert transport_stats()["shm"]["shards"] == 1  # only post-reset delta

    def test_concurrent_counting_loses_no_update(self):
        """More threads than cores counting on shared and separate instances
        at a tiny switch interval: every increment lands in both places."""
        reset_transport_stats()
        shared, rounds = PickleTransport(), 1000
        owned = [PickleTransport() for _ in range(8)]

        def count(own):
            for _ in range(rounds):
                for transport in (shared, own):
                    transport.release(transport.encode_shard(["x"]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=count, args=(own,)) for own in owned]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert shared.stats.shards == rounds * len(owned)
        assert all(own.stats.shards == rounds for own in owned)
        assert transport_stats()["pickle"]["shards"] == 2 * rounds * len(owned)
