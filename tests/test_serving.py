"""Serving layer: execution backends, column memos, async facade.

The serving layer's contract is *parity*: every execution backend and the
async service must produce predictions identical (bit-for-bit on the
confidence floats) to the plain serial path.  These tests pin that contract,
plus the concurrency behaviours that cannot regress silently — customer
isolation under concurrent requests, concurrent callers sharing one typer,
and graceful shutdown.
"""

from __future__ import annotations

import asyncio
import math
import threading

import numpy as np
import pytest

from repro.core.errors import ConfigurationError, ServingError
from repro.core.table import Column
from repro.serving import (
    AnnotationService,
    MultiprocessBackend,
    SerialBackend,
    resolve_backend,
    shard_items,
)


def _fresh(tables):
    """Copies with cold per-column caches, as a new request would carry."""
    return [table.copy() for table in tables]


@pytest.fixture()
def mixed_tables(eval_corpus, fig3_table):
    """A mixed corpus: generated tables plus the hand-written Fig. 3 table."""
    return [table.copy() for table in eval_corpus] + [fig3_table.copy()]


@pytest.fixture()
def adapted_typer(pretrained_typer, fig3_table):
    """The session system with one adapted customer (idempotent per session)."""
    if "acme" not in pretrained_typer.customer_ids:
        pretrained_typer.register_customer("acme")
        pretrained_typer.give_feedback("acme", fig3_table, "Income", "salary")
        pretrained_typer.give_feedback("acme", fig3_table, "Company", "company")
    return pretrained_typer


# --------------------------------------------------------------------- shards
class TestSharding:
    def test_shards_are_contiguous_and_complete(self):
        items = list(range(11))
        shards = shard_items(items, 4)
        assert [item for shard in shards for item in shard] == items
        assert len(shards) == 4
        assert all(shards)
        assert max(len(s) for s in shards) - min(len(s) for s in shards) <= 1

    def test_more_shards_than_items(self):
        assert shard_items([1, 2], 8) == [[1], [2]]
        assert shard_items([], 3) == []

    def test_invalid_shard_count(self):
        with pytest.raises(ConfigurationError):
            shard_items([1], 0)


class TestResolveBackend:
    def test_specs(self):
        assert isinstance(resolve_backend(None), SerialBackend)
        assert isinstance(resolve_backend("serial"), SerialBackend)
        multiprocess = resolve_backend("multiprocess:2")
        assert isinstance(multiprocess, MultiprocessBackend)
        assert multiprocess.max_workers == 2

    def test_instance_passthrough(self):
        backend = MultiprocessBackend(max_workers=2)
        assert resolve_backend(backend) is backend

    def test_unknown_spec(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("distributed")
        with pytest.raises(ConfigurationError):
            resolve_backend("multiprocess:many")
        with pytest.raises(ConfigurationError):
            resolve_backend("threaded:2")
        with pytest.raises(ConfigurationError):
            resolve_backend("serial:2")
        with pytest.raises(ConfigurationError):
            resolve_backend(42)

    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            MultiprocessBackend(max_workers=0)
        with pytest.raises(ConfigurationError):
            resolve_backend("multiprocess:0")

    def test_map_shards_preserves_order(self):
        doubler = lambda shard: [2 * item for item in shard]  # noqa: E731
        items = list(range(23))
        expected = [2 * item for item in items]
        assert SerialBackend().map_shards(doubler, items) == expected
        assert MultiprocessBackend(max_workers=4).map_shards(doubler, items) == expected


# -------------------------------------------------------------------- parity
class TestBackendParity:
    def test_multiprocess_matches_serial(self, pretrained_typer, mixed_tables):
        serial = pretrained_typer.annotate_corpus(_fresh(mixed_tables))
        multiprocess = pretrained_typer.annotate_corpus(
            _fresh(mixed_tables), backend="multiprocess:4"
        )
        assert serial == multiprocess

    def test_adapted_customer_bulk_matches_per_table(self, adapted_typer, mixed_tables):
        per_table = [adapted_typer.annotate(t, customer_id="acme") for t in mixed_tables]
        bulk = adapted_typer.annotate_corpus(mixed_tables, customer_id="acme")
        assert per_table == bulk
        # The adapted path reports the blended source step.
        assert all(
            column.source_step == "global+local"
            for prediction in bulk
            for column in prediction.columns
        )

    def test_adapted_customer_backends_match_serial(self, adapted_typer, mixed_tables):
        serial = adapted_typer.annotate_corpus(_fresh(mixed_tables), customer_id="acme")
        multiprocess = adapted_typer.annotate_corpus(
            _fresh(mixed_tables), customer_id="acme", backend="multiprocess:2"
        )
        assert serial == multiprocess

    def test_vectorized_blend_matches_combine_with_global(self, adapted_typer, mixed_tables):
        """The numpy blend in SigmaTyper._blend_with_local must reproduce the
        per-column reference semantics of LocalModel.combine_with_global —
        the two implementations of the W_g/W_l interpolation and the
        competing-type discount may never drift apart."""
        from repro.core.ontology import UNKNOWN_TYPE

        context = adapted_typer.customer("acme")
        local_model = context.local_model
        pipeline = adapted_typer._exhaustive_pipeline()  # noqa: SLF001
        for table in mixed_tables[:4]:
            blended = adapted_typer.annotate(table, customer_id="acme")
            reference = pipeline.annotate(table)
            for prediction, reference_prediction in zip(blended.columns, reference.columns):
                column = table.columns[prediction.column_index]
                global_scores = {
                    score.type_name: score.confidence for score in reference_prediction.scores
                }
                combined = local_model.combine_with_global(global_scores, column, table)
                combined.pop(UNKNOWN_TYPE, None)
                expected = sorted(
                    combined.items(), key=lambda item: (-item[1], item[0])
                )[: adapted_typer.config.top_k]
                assert [
                    (score.type_name, score.confidence) for score in prediction.scores
                ] == expected

    def test_unadapted_customer_matches_global(self, pretrained_typer, mixed_tables):
        if "fresh-tenant" not in pretrained_typer.customer_ids:
            pretrained_typer.register_customer("fresh-tenant")
        global_predictions = pretrained_typer.annotate_corpus(mixed_tables)
        customer_predictions = pretrained_typer.annotate_corpus(
            mixed_tables, customer_id="fresh-tenant"
        )
        assert global_predictions == customer_predictions

    def test_sharded_featurization_is_bit_identical(self, trained_classifier, eval_corpus):
        featurizer = trained_classifier.featurizer
        rows = [(column, table) for table in eval_corpus for column in table.columns]
        serial = featurizer.extract_many(rows)
        multiprocess = np.vstack(
            MultiprocessBackend(max_workers=2).map_shards(featurizer.extract_many, rows)
        )
        assert serial.tobytes() == multiprocess.tobytes()


# --------------------------------------------------------------- column memos
class TestColumnMemo:
    def test_invalidate_cache_refreshes_memo(self):
        column = Column("city", ["Berlin", "Paris", "Berlin"])
        assert column.value_counts() == {"Berlin": 2, "Paris": 1}
        column.values.append("Oslo")
        # Until invalidated, the memo still describes the old values.
        assert column.value_counts() == {"Berlin": 2, "Paris": 1}
        column.invalidate_cache()
        assert column.value_counts() == {"Berlin": 2, "Paris": 1, "Oslo": 1}

    def test_concurrent_callers_share_one_typer(self, pretrained_typer, mixed_tables):
        """Plain threads calling ``annotate_corpus`` on one typer at once
        (shared embedder and header caches) never move a prediction."""
        baseline = pretrained_typer.annotate_corpus(_fresh(mixed_tables))
        results: list = [None] * 4

        def call(index: int) -> None:
            results[index] = pretrained_typer.annotate_corpus(_fresh(mixed_tables))

        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        for predictions in results:
            assert baseline == predictions



# ------------------------------------------------------------------- service
class TestAnnotationService:
    def test_concurrent_requests_match_direct_annotation(self, adapted_typer, mixed_tables):
        expected_global = [adapted_typer.annotate(t) for t in mixed_tables]
        expected_acme = [adapted_typer.annotate(t, customer_id="acme") for t in mixed_tables]

        async def drive():
            async with AnnotationService(adapted_typer, max_batch_size=16) as service:
                global_results, acme_results = await asyncio.gather(
                    asyncio.gather(*[service.annotate(t) for t in mixed_tables]),
                    asyncio.gather(
                        *[service.annotate(t, customer_id="acme") for t in mixed_tables]
                    ),
                )
                return global_results, acme_results, service.stats

        global_results, acme_results, stats = asyncio.run(drive())
        assert global_results == expected_global
        assert acme_results == expected_acme
        assert stats.requests_total == 2 * len(mixed_tables)
        # Work-conserving: every gathered request queued before the worker
        # woke, so each drain took a full batch of 16 until the queue ran dry.
        assert stats.batches_total == math.ceil(2 * len(mixed_tables) / 16)
        assert stats.largest_batch == min(16, 2 * len(mixed_tables))
        assert stats.requests_by_customer["acme"] == len(mixed_tables)

    def test_customers_do_not_cross_contaminate(self, adapted_typer, fig3_table):
        """Customer B (no feedback) must see pure global predictions even when
        batched together with adapted customer A's requests."""
        if "blank-tenant" not in adapted_typer.customer_ids:
            adapted_typer.register_customer("blank-tenant")
        table = fig3_table.copy()
        expected_global = adapted_typer.annotate(table)
        expected_acme = adapted_typer.annotate(table, customer_id="acme")

        async def drive():
            async with AnnotationService(adapted_typer, max_batch_size=8) as service:
                return await asyncio.gather(
                    service.annotate(table, customer_id="acme"),
                    service.annotate(table, customer_id="blank-tenant"),
                    service.annotate(table),
                )

        acme, blank, global_ = asyncio.run(drive())
        assert blank == expected_global
        assert global_ == expected_global
        assert acme == expected_acme
        # The adapted customer's blend actually diverges from the global path.
        assert any(
            a.scores != g.scores for a, g in zip(acme.columns, global_.columns)
        )

    def test_unknown_customer_fails_that_request_only(self, pretrained_typer, fig3_table):
        async def drive():
            async with AnnotationService(pretrained_typer) as service:
                good, bad = await asyncio.gather(
                    service.annotate(fig3_table.copy()),
                    service.annotate(fig3_table.copy(), customer_id="no-such-tenant"),
                    return_exceptions=True,
                )
                return good, bad, service.stats.errors_total

        good, bad, errors = asyncio.run(drive())
        assert not isinstance(good, Exception)
        assert isinstance(bad, ServingError)
        assert errors == 1

    def test_shutdown_drains_then_rejects(self, pretrained_typer, fig3_table):
        async def drive():
            service = AnnotationService(pretrained_typer)
            await service.start()
            pending = [
                asyncio.ensure_future(service.annotate(fig3_table.copy())) for _ in range(3)
            ]
            await asyncio.sleep(0)  # let the requests reach the queue
            await service.shutdown()
            drained = await asyncio.gather(*pending)
            with pytest.raises(ServingError):
                await service.annotate(fig3_table.copy())
            return drained, service.is_running

        drained, running = asyncio.run(drive())
        assert len(drained) == 3
        assert all(prediction.columns for prediction in drained)
        assert not running

    def test_double_start_rejected(self, pretrained_typer):
        async def drive():
            async with AnnotationService(pretrained_typer) as service:
                with pytest.raises(ServingError):
                    await service.start()

        asyncio.run(drive())

    def test_invalid_configuration(self, pretrained_typer):
        with pytest.raises(ConfigurationError):
            AnnotationService(pretrained_typer, max_batch_size=0)


# ------------------------------------------------------------------ satellites
class TestSigmaTyperServingSatellites:
    def test_exhaustive_pipeline_declared_and_tau_synced(self, adapted_typer, fig3_table):
        adapted_typer.annotate(fig3_table, customer_id="acme")
        assert adapted_typer._exhaustive is not None  # noqa: SLF001
        original = adapted_typer.tau
        try:
            adapted_typer.set_tau(0.31)
            assert adapted_typer._exhaustive.config.tau == 0.31  # noqa: SLF001
        finally:
            adapted_typer.set_tau(original)
        adapted_typer.invalidate_exhaustive_pipeline()
        assert adapted_typer._exhaustive is None  # noqa: SLF001

    def test_calibrate_tau_matches_per_table_path(self, pretrained_typer, eval_corpus):
        """Bulk calibration must reproduce the old annotate-per-table loop."""
        original_tau = pretrained_typer.tau
        try:
            from repro.core.aggregation import calibrate_tau as calibrate_from_scores

            pretrained_typer.set_tau(0.0)
            scored = []
            for table in eval_corpus:
                prediction = pretrained_typer.annotate(table)
                for column, column_prediction in zip(table.columns, prediction.columns):
                    if column.semantic_type is None or not column_prediction.scores:
                        continue
                    scored.append(
                        (
                            column_prediction.confidence,
                            column_prediction.predicted_type == column.semantic_type,
                        )
                    )
            expected = calibrate_from_scores(scored, target_precision=0.9)
            pretrained_typer.set_tau(original_tau)

            calibrated = pretrained_typer.calibrate_tau(eval_corpus, target_precision=0.9)
            assert calibrated == expected
            assert pretrained_typer.tau == calibrated
        finally:
            pretrained_typer.set_tau(original_tau)
