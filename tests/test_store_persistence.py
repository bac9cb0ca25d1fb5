"""Store-key tokens and adaptive batching.

Two contracts that grew up alongside the profile store:

* **Cache tokens** — the featurizer's memoized feature prefix is keyed by
  :meth:`ColumnFeaturizer.cache_token`, a digest of the embedder's learned
  state: featurizers with identical state share stored feature vectors
  bit-identically, and any refit changes the token.
* **Adaptive batching** — the bounds of the per-customer AIMD controller and
  the adaptive service's parity with direct annotation.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.errors import ConfigurationError
from repro.core.table import Column, get_active_profile_store
from repro.embedding_model import ColumnFeaturizer
from repro.embedding_model.features import FeaturizerConfig
from repro.serving import AdaptiveBatchingConfig, AnnotationService, ProfileStore
from repro.serving.service import _AimdController


def _comparable(predictions):
    """Everything except wall-clock timings (bit-exact float comparison)."""
    return [(p.table_name, p.step_trace, p.columns) for p in predictions]


@pytest.fixture(autouse=True)
def _no_leaked_store():
    yield
    assert get_active_profile_store() is None


@pytest.fixture()
def mixed_tables(eval_corpus, fig3_table):
    return [table.copy() for table in eval_corpus] + [fig3_table.copy()]


# ---------------------------------------------------------------- cache tokens
class TestRestartWarmth:
    def test_fresh_featurizer_reuses_stored_feature_vectors(self):
        """The memoized feature prefix must be reusable by a *different*
        featurizer instance with the same learned state."""
        shared_embedder_config = FeaturizerConfig(include_table_context=False)
        first = ColumnFeaturizer(config=shared_embedder_config)
        second = ColumnFeaturizer(embedder=first.embedder, config=shared_embedder_config)
        assert first.cache_token() == second.cache_token()

        store = ProfileStore()
        with store.activated():
            expected = first.extract(Column("Income", ["$ 50K", "$ 60K", "$ 70K"]))
            hits_before = store.hits
            served = second.extract(Column("Income", ["$ 50K", "$ 60K", "$ 70K"]))
        assert store.hits > hits_before
        assert served.tobytes() == expected.tobytes()

    def test_distinct_embedders_never_share_tokens(self):
        first = ColumnFeaturizer()
        second = ColumnFeaturizer()
        second.embedder.fit([["alpha", "beta"], ["beta", "gamma"]])
        assert first.cache_token() != second.cache_token()

    def test_refit_with_same_vocab_size_changes_the_token(self):
        """An in-place refit must invalidate the token even when the new
        vocabulary happens to have the same size as the old one."""
        featurizer = ColumnFeaturizer()
        featurizer.embedder.fit([["alpha", "beta"], ["beta", "gamma"]])
        before = featurizer.cache_token()
        featurizer.embedder.fit([["alpha", "gamma"], ["alpha", "beta"]])
        assert len(featurizer.embedder.vocabulary) == 3  # same size, new weights
        assert featurizer.cache_token() != before


# ---------------------------------------------------------- adaptive batching
class TestAdaptiveController:
    def test_window_and_size_never_leave_their_bounds(self):
        config = AdaptiveBatchingConfig(
            min_batch_delay=0.001,
            max_batch_delay=0.02,
            max_batch_size=16,
            delay_increase=0.005,
            size_increase=8,
            backoff=0.5,
            target_batch_seconds=0.1,
        )
        controller = _AimdController(config, delay=0.01, size=4)
        # Sustained saturation: additive increase must saturate at the caps.
        for _ in range(100):
            controller.observe(batch_size=controller.size, batch_seconds=0.01)
            assert controller.delay <= config.max_batch_delay
            assert controller.size <= config.max_batch_size
        assert controller.delay == config.max_batch_delay
        assert controller.size == config.max_batch_size
        # Sustained latency breaches: multiplicative decrease floors out.
        for _ in range(100):
            controller.observe(batch_size=1, batch_seconds=1.0)
            assert controller.delay >= config.min_batch_delay
            assert controller.size >= 1
        assert controller.size == 1
        assert controller.delay == pytest.approx(config.min_batch_delay)

    def test_idle_windows_shrink_the_delay(self):
        config = AdaptiveBatchingConfig(min_batch_delay=0.0, max_batch_delay=0.05)
        controller = _AimdController(config, delay=0.05, size=32)
        for _ in range(10):
            controller.observe(batch_size=1, batch_seconds=0.01)
        assert controller.delay < 0.05
        assert controller.decreases == 10

    def test_arrival_rate_estimate(self):
        config = AdaptiveBatchingConfig()
        controller = _AimdController(config, delay=0.01, size=8)
        assert controller.arrival_rate == 0.0
        for tick in range(5):
            controller.record_arrival(10.0 + tick * 0.1)
        assert controller.arrival_rate == pytest.approx(10.0)

    def test_controller_initial_state_is_clamped(self):
        config = AdaptiveBatchingConfig(
            min_batch_delay=0.002, max_batch_delay=0.01, max_batch_size=8
        )
        controller = _AimdController(config, delay=5.0, size=500)
        assert controller.delay == 0.01
        assert controller.size == 8

    def test_invalid_adaptive_config(self, pretrained_typer):
        with pytest.raises(ConfigurationError):
            AdaptiveBatchingConfig(backoff=1.5).validate()
        with pytest.raises(ConfigurationError):
            AdaptiveBatchingConfig(min_batch_delay=0.2, max_batch_delay=0.1).validate()
        with pytest.raises(ConfigurationError):
            AdaptiveBatchingConfig(max_batch_size=0).validate()
        with pytest.raises(ConfigurationError):
            AnnotationService(pretrained_typer, adaptive="yes")  # type: ignore[arg-type]


class TestAdaptiveService:
    def test_adaptive_service_is_bit_identical_and_exposes_decisions(
        self, pretrained_typer, mixed_tables
    ):
        expected = [pretrained_typer.annotate(t) for t in mixed_tables]

        async def drive():
            config = AdaptiveBatchingConfig(max_batch_delay=0.05, max_batch_size=8)
            async with AnnotationService(
                pretrained_typer, max_batch_size=4, max_batch_delay=0.02, adaptive=config
            ) as service:
                results = await asyncio.gather(
                    *[service.annotate(t) for t in mixed_tables]
                )
                return results, service.stats, service.summary()

        results, stats, summary = asyncio.run(drive())
        assert _comparable(results) == _comparable(expected)
        assert summary["adaptive"] is True
        # The controller's decisions are observable in the stats.
        assert "<global>" in stats.controllers
        decision = stats.controllers["<global>"]
        assert 0.0 <= decision["batch_delay"] <= 0.05
        assert 1 <= decision["batch_size"] <= 8
        assert decision["batches"] == stats.batches_total
        assert stats.batch_seconds_total > 0.0
        assert stats.to_dict()["controllers"]["<global>"] == decision

    def test_adaptive_controllers_are_per_customer(self, pretrained_typer, fig3_table):
        if "tenant-a" not in pretrained_typer.customer_ids:
            pretrained_typer.register_customer("tenant-a")

        async def drive():
            async with AnnotationService(
                pretrained_typer, max_batch_delay=0.02, adaptive=True
            ) as service:
                await asyncio.gather(
                    service.annotate(fig3_table.copy()),
                    service.annotate(fig3_table.copy(), customer_id="tenant-a"),
                )
                return service.stats

        stats = asyncio.run(drive())
        assert set(stats.controllers) == {"<global>", "tenant-a"}

    def test_fixed_mode_reports_no_controllers(self, pretrained_typer, fig3_table):
        async def drive():
            async with AnnotationService(pretrained_typer, max_batch_delay=0.0) as service:
                await service.annotate(fig3_table.copy())
                return service.stats, service.summary()

        stats, summary = asyncio.run(drive())
        assert stats.controllers == {}
        assert summary["adaptive"] is False
