"""Zero-copy shard transport: codecs, lifecycle, fallback, and parity.

Three contracts are pinned here:

* **parity** — annotating through ``multiprocess:N+shm`` (and every fallback
  path inside it) returns predictions bit-identical to the serial path;
* **lifecycle** — no ``/dev/shm`` segment survives a run, including runs
  where a forked worker crashed mid-shard or raised mid-annotation;
* **fallback** — shards the block codec cannot represent (non-table items,
  exotic cell values, oversized encodings) degrade to pickle transparently,
  never to an error or a changed prediction.
"""

from __future__ import annotations

import os
import pickle
import random
import sys
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

from datagen import mixed_table, random_prediction, random_table
from repro.core.errors import ConfigurationError, ServingError
from repro.core.prediction import ColumnPrediction, TablePrediction, TypeScore
from repro.core.table import Column, Table
from repro.serving import (
    ColumnBlockCodec,
    MultiprocessBackend,
    PickleTransport,
    PredictionBlockCodec,
    ShmTransport,
    resolve_backend,
    resolve_transport,
    reset_transport_stats,
    transport_stats,
)
from repro.serving.transport import (
    RESULT_SEGMENT_PREFIX,
    SHARD_SEGMENT_PREFIX,
    UnsupportedPayloadError,
)

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
# codec, kernel, and net-transport suites all fuzz the same value space.
_mixed_table = mixed_table


# ---------------------------------------------------------------- column block
class TestColumnBlockCodec:
    def test_roundtrip_preserves_values_types_and_boundaries(self):
        tables = [_mixed_table(), Table.from_columns_dict({"City": ["Berlin", "Paris"]}, name="t2")]
        block = ColumnBlockCodec.decode(memoryview(bytes(ColumnBlockCodec.encode_tables(tables))))
        assert block.num_tables == 2
        for index, original in enumerate(tables):
            view = Table.from_block(block, index)
            assert view.name == original.name
            assert view.metadata == original.metadata
            assert view.column_names == original.column_names
            for view_column, original_column in zip(view.columns, original.columns):
                assert view_column.semantic_type == original_column.semantic_type
                assert view_column.metadata == original_column.metadata
                decoded = list(view_column.values)
                assert len(decoded) == len(original_column.values)
                for got, expected in zip(decoded, original_column.values):
                    assert type(got) is type(expected)
                    if isinstance(expected, float) and expected != expected:
                        assert got != got  # NaN round-trips
                    else:
                        assert got == expected

    def test_view_columns_match_originals_cell_for_cell_and_type(self):
        table = _mixed_table()
        block = ColumnBlockCodec.decode(
            memoryview(bytes(ColumnBlockCodec.encode_tables([table])))
        )
        view = Table.from_block(block, 0)
        for view_column, original_column in zip(view.columns, table.columns):
            assert _typed_cells(view_column) == _typed_cells(original_column)

    def test_values_view_is_lazy_and_supports_sequence_protocol(self):
        table = Table.from_columns_dict({"c": ["a", "b", "c", "d"]}, name="t")
        block = ColumnBlockCodec.decode(
            memoryview(bytes(ColumnBlockCodec.encode_tables([table])))
        )
        values = Table.from_block(block, 0).columns[0].values
        assert len(values) == 4
        assert values[1] == "b" and values[-1] == "d"
        assert values[1:3] == ["b", "c"]
        assert "c" in values and list(values) == ["a", "b", "c", "d"]
        with pytest.raises(IndexError):
            values[7]

    def test_closed_block_raises_instead_of_reading_freed_memory(self):
        table = Table.from_columns_dict({"c": ["x"]}, name="t")
        block = ColumnBlockCodec.decode(
            memoryview(bytes(ColumnBlockCodec.encode_tables([table])))
        )
        view = Table.from_block(block, 0)
        block.close()
        with pytest.raises(ServingError):
            view.columns[0].values[0]

    def test_unsupported_cell_type_raises_for_fallback(self):
        table = Table.from_columns_dict({"c": [{"not": "scalar"}]}, name="t")
        with pytest.raises(UnsupportedPayloadError):
            ColumnBlockCodec.encode_tables([table])

    def test_subclass_scalars_are_rejected_not_silently_downcast(self):
        import numpy as np

        table = Table.from_columns_dict({"c": [np.float64(1.5)]}, name="t")
        with pytest.raises(UnsupportedPayloadError):
            ColumnBlockCodec.encode_tables([table])

    def test_from_view_skips_materialization(self):
        view_values = ("a", "b")  # any immutable sequence
        column = Column.from_view("c", view_values, semantic_type="city")
        assert column.values is view_values
        assert column.semantic_type == "city"
        assert column.copy().values == ["a", "b"]


# ----------------------------------------------------------- prediction records
class TestPredictionBlockCodec:
    def _prediction(self) -> TablePrediction:
        return TablePrediction(
            table_name="t",
            columns=[
                ColumnPrediction(
                    column_index=0,
                    column_name="Income",
                    scores=[TypeScore(0.875, "salary"), TypeScore(0.25, "price")],
                    source_step="header_matching",
                    abstained=False,
                    step_scores={
                        "header_matching": [TypeScore(0.875, "salary")],
                        "value_lookup": [],
                    },
                ),
                ColumnPrediction(
                    column_index=1,
                    column_name="odd □ name",
                    scores=[],
                    source_step="",
                    abstained=True,
                ),
            ],
            step_trace={"header_matching": 2, "value_lookup": 1},
            step_seconds={"header_matching": 0.125},
        )

    def test_roundtrip_is_exact(self):
        prediction = self._prediction()
        blob = PredictionBlockCodec.encode_predictions([prediction])
        (decoded,) = PredictionBlockCodec.decode_predictions(memoryview(bytes(blob)))
        assert decoded.table_name == prediction.table_name
        assert decoded.step_trace == prediction.step_trace
        assert decoded.step_seconds == prediction.step_seconds
        assert decoded.columns == prediction.columns

    def test_non_prediction_results_raise_for_fallback(self):
        with pytest.raises(UnsupportedPayloadError):
            PredictionBlockCodec.encode_predictions([{"not": "a prediction"}])


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
        with pytest.raises(ConfigurationError):
            ShmTransport(max_segment_bytes=0)


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
class TestPickleFallback:
    def test_results_aliasing_input_views_survive_the_trip(self):
        """A shard function may return the view-backed input tables
        themselves; the escaping lazy views must be materialized, not shipped
        as dead pointers into an unlinked segment."""
        transport = ShmTransport()
        backend = MultiprocessBackend(max_workers=2, transport=transport)
        tables = [_mixed_table().copy() for _ in range(4)]
        echoed = backend.map_shards(lambda shard: shard, tables)
        assert transport.stats.pickle_fallbacks == 0  # shards rode shm
        assert transport.stats.result_pickle_fallbacks == 2  # tables are not predictions
        for got, expected in zip(echoed, tables):
            assert got.name == expected.name
            for got_column, expected_column in zip(got.columns, expected.columns):
                assert isinstance(got_column.values, list)  # views were materialized
                assert _typed_cells(got_column) == _typed_cells(expected_column)
        assert _our_segments() == []

    def test_non_table_items_fall_back(self):
        transport = ShmTransport()
        backend = MultiprocessBackend(max_workers=2, transport=transport)
        doubled = backend.map_shards(lambda shard: [2 * x for x in shard], list(range(10)))
        assert doubled == [2 * x for x in range(10)]
        assert transport.stats.pickle_fallbacks == 2
        # Integer results cannot ride the record codec either.
        assert transport.stats.result_pickle_fallbacks == 2
        assert transport.stats.segments_created == 0

    def test_unsupported_cell_values_fall_back(self):
        transport = ShmTransport()
        backend = MultiprocessBackend(max_workers=2, transport=transport)
        tables = [
            Table.from_columns_dict({"c": [("tuple", "cell")]}, name=f"t{i}") for i in range(4)
        ]
        results = backend.map_shards(_shard_names, tables)
        assert results == _shard_names(tables)
        assert transport.stats.pickle_fallbacks == 2

    def test_oversized_shard_falls_back(self):
        transport = ShmTransport(max_segment_bytes=64)
        backend = MultiprocessBackend(max_workers=2, transport=transport)
        tables = [_mixed_table().copy() for _ in range(4)]
        results = backend.map_shards(_shard_names, tables)
        assert results == _shard_names(tables)
        assert transport.stats.pickle_fallbacks == 2
        assert "max_segment_bytes" in transport.stats.last_fallback_reason
        assert transport.stats.segments_created == 0
        assert _our_segments() == []

    def test_oversized_results_fall_back_while_shard_uses_shm(self):
        """Shard fits the segment budget, results do not: the worker must
        return pickled results rather than fail (per-leg fallback)."""
        small = Table.from_columns_dict({"c": ["x", "y"]}, name="t")
        shard_size = len(ColumnBlockCodec.encode_tables([small, small]))
        transport = ShmTransport(max_segment_bytes=shard_size)
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
        decoded, cleanup = transport.open_shard(payload)
        cleanup()
        assert decoded[0].column_names == items[0].column_names

    def test_summary_reports_shard_transport_bytes(self, pretrained_typer, eval_corpus):
        tables = [table.copy() for table in eval_corpus][:4]
        pretrained_typer.annotate_corpus(_fresh(tables), backend="multiprocess:2+shm")
        summary = pretrained_typer.summary()
        assert "shard_transport" in summary
        assert summary["shard_transport"]["shm"]["shards"] > 0
        assert summary["shard_transport"]["shm"]["bytes_shipped"] > 0


# ------------------------------------------------------- property-style fuzz
class TestCodecFuzz:
    """Seeded 500-trial round-trip fuzz over the full supported value space.

    ``datagen.random_table`` / ``random_prediction`` draw random tag mixes —
    bigints, NaN/inf, non-ASCII and control characters, empty columns and
    zero-row tables, nested metadata — and every trial must round-trip
    bit-exactly through the block codecs.  Failures reproduce from the seed.
    """

    def test_column_block_roundtrip_500_random_tables(self):
        rng = random.Random(0xC0DEC)
        for trial in range(500):
            table = random_table(rng)
            blob = ColumnBlockCodec.encode_tables([table])
            block = ColumnBlockCodec.decode(memoryview(bytes(blob)))
            view = Table.from_block(block, 0)
            context = f"trial {trial}, table {table.name!r}"
            assert view.name == table.name, context
            assert view.metadata == table.metadata, context
            assert view.column_names == table.column_names, context
            for view_column, original in zip(view.columns, table.columns):
                assert view_column.semantic_type == original.semantic_type, context
                assert view_column.metadata == original.metadata, context
                decoded = list(view_column.values)
                assert len(decoded) == len(original.values), context
                for got, expected in zip(decoded, original.values):
                    assert type(got) is type(expected), (context, got, expected)
                    if isinstance(expected, float) and expected != expected:
                        assert got != got, context
                    else:
                        assert got == expected, (context, got, expected)

    def test_multi_table_shards_roundtrip(self):
        rng = random.Random(0x5EED)
        for trial in range(50):
            tables = [random_table(rng) for _ in range(rng.randint(2, 5))]
            block = ColumnBlockCodec.decode(
                memoryview(bytes(ColumnBlockCodec.encode_tables(tables)))
            )
            assert block.num_tables == len(tables)
            for index, original in enumerate(tables):
                view = Table.from_block(block, index)
                assert view.name == original.name
                assert len(view.columns) == len(original.columns)
                for view_column, original_column in zip(view.columns, original.columns):
                    assert _typed_cells(view_column) == _typed_cells(original_column)

    def test_prediction_block_roundtrip_500_random_predictions(self):
        rng = random.Random(0xFACADE)
        for trial in range(500):
            prediction = random_prediction(rng)
            blob = PredictionBlockCodec.encode_predictions([prediction])
            (decoded,) = PredictionBlockCodec.decode_predictions(memoryview(bytes(blob)))
            context = f"trial {trial}"
            assert decoded.table_name == prediction.table_name, context
            assert decoded.step_trace == prediction.step_trace, context
            assert decoded.step_seconds == prediction.step_seconds, context
            assert len(decoded.columns) == len(prediction.columns), context
            for got, expected in zip(decoded.columns, prediction.columns):
                assert got.column_index == expected.column_index, context
                assert got.column_name == expected.column_name, context
                assert got.source_step == expected.source_step, context
                assert got.abstained == expected.abstained, context
                assert got.scores == expected.scores, context
                assert got.step_scores == expected.step_scores, context


# ---------------------------------------------------------- stats aggregation
class TestTransportStatsAggregation:
    """The process-wide aggregate sums counters per transport name as they
    are counted: re-resolving an in-use transport must never double count,
    and retired instances must not lose their history."""

    def test_re_resolving_an_in_use_transport_counts_once(self):
        # Regression: the name-keyed delta aggregate double counted when a
        # transport was re-resolved mid-run (instance + aggregate both fed).
        reset_transport_stats()
        transport = ShmTransport()
        payload = transport.encode_shard(["not-a-table"])
        transport.release(payload)
        assert resolve_transport(transport) is transport  # mid-run re-resolution
        resolve_transport(transport)
        payload = transport.encode_shard(["still-not-a-table"])
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

    def test_retired_instances_keep_their_counts(self):
        import gc

        reset_transport_stats()
        transport = ShmTransport()
        transport.release(transport.encode_shard(["not-a-table"]))
        del transport
        gc.collect()
        aggregate = transport_stats()["shm"]
        assert aggregate["shards"] == 1
        assert aggregate["pickle_fallbacks"] == 1

    def test_reset_zeroes_the_aggregate_but_not_instances(self):
        transport = ShmTransport()
        transport.release(transport.encode_shard(["not-a-table"]))
        reset_transport_stats()
        assert "shm" not in transport_stats()
        assert transport.stats.shards == 1  # instance counters untouched
        transport.release(transport.encode_shard(["again"]))
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
