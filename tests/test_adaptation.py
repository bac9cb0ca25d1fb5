"""Unit tests for the global/local model architecture and weight vectors."""

from __future__ import annotations

import pytest

from repro.adaptation import (
    CustomerContext,
    GlobalLocalWeights,
    GlobalModel,
    GlobalModelConfig,
    LocalModel,
    LocalModelConfig,
    WeightScheduleConfig,
)
from repro.core.errors import ConfigurationError
from repro.corpus import GitTablesConfig, GitTablesGenerator
from repro.dpbd import DPBDSession


class TestWeightSchedules:
    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            WeightScheduleConfig(schedule="exponential").validate()
        with pytest.raises(ConfigurationError):
            WeightScheduleConfig(saturation_k=0).validate()
        with pytest.raises(ConfigurationError):
            WeightScheduleConfig(max_local_weight=0.0).validate()

    def test_local_weight_starts_at_zero(self):
        weights = GlobalLocalWeights()
        assert weights.local_weight("salary") == 0.0
        assert weights.global_weight("salary") == 1.0

    def test_local_weight_grows_with_observations(self):
        weights = GlobalLocalWeights()
        previous = 0.0
        for _ in range(5):
            weights.record_observation("salary")
            current = weights.local_weight("salary")
            assert current > previous
            previous = current
        assert previous <= weights.config.max_local_weight

    def test_saturating_never_reaches_cap_exactly_fast(self):
        weights = GlobalLocalWeights(config=WeightScheduleConfig(saturation_k=2.0))
        weights.record_observation("salary")
        assert weights.local_weight("salary") == pytest.approx(1 / 3)

    def test_linear_schedule(self):
        weights = GlobalLocalWeights(
            config=WeightScheduleConfig(schedule="linear", linear_n_max=4.0, max_local_weight=0.9)
        )
        for _ in range(2):
            weights.record_observation("salary")
        assert weights.local_weight("salary") == pytest.approx(0.5)
        for _ in range(10):
            weights.record_observation("salary")
        assert weights.local_weight("salary") == 0.9

    def test_implicit_observations_count_less(self):
        explicit = GlobalLocalWeights()
        implicit = GlobalLocalWeights()
        explicit.record_observation("salary")
        implicit.record_observation("salary", implicit=True)
        assert implicit.local_weight("salary") < explicit.local_weight("salary")

    def test_empty_type_rejected(self):
        with pytest.raises(ConfigurationError):
            GlobalLocalWeights().record_observation("")

    def test_combine_scores_interpolates(self):
        weights = GlobalLocalWeights(config=WeightScheduleConfig(saturation_k=1.0))
        weights.record_observation("salary")  # local weight 0.5
        combined = weights.combine_scores({"salary": 0.2, "revenue": 0.8}, {"salary": 1.0})
        assert combined["salary"] == pytest.approx(0.6)
        # Types without local observations keep their global confidence.
        assert combined["revenue"] == pytest.approx(0.8)

    def test_combine_scores_order_is_hashseed_independent(self):
        """Regression (repro-lint RL004): combining iterates the union of the
        two score dicts in sorted order, so the combined mapping — and any
        insertion-order-sensitive consumer (max tie-breaks, codecs) — is
        identical across interpreters regardless of PYTHONHASHSEED."""
        weights = GlobalLocalWeights(config=WeightScheduleConfig(saturation_k=1.0))
        weights.record_observation("salary")
        combined = weights.combine_scores(
            {"salary": 0.2, "revenue": 0.8}, {"zip": 0.1, "salary": 1.0, "age": 0.3}
        )
        assert list(combined) == sorted(combined)

    def test_weight_vectors(self):
        weights = GlobalLocalWeights()
        weights.record_observation("salary")
        global_w, local_w = weights.weight_vectors()
        assert set(global_w) == {"salary"}
        assert global_w["salary"] + local_w["salary"] == pytest.approx(1.0)


class TestLocalModel:
    def _update(self, fig3_table, corpus):
        session = DPBDSession(source_corpus=corpus)
        return session.relabel(fig3_table, "Income", "salary", previous_type="revenue")

    @pytest.fixture(scope="class")
    def corpus(self):
        return GitTablesGenerator(GitTablesConfig(num_tables=20, seed=31)).generate_corpus()

    def test_apply_update_accumulates_state(self, fig3_table, corpus):
        model = LocalModel("acme")
        assert not model.has_adaptations()
        model.apply_update(self._update(fig3_table, corpus))
        assert model.has_adaptations()
        assert model.adapted_types == ["salary"]
        assert len(model.labeling_functions) >= 3
        assert len(model.training_examples) >= 1

    def test_predict_scores_after_feedback(self, fig3_table, corpus):
        model = LocalModel("acme")
        model.apply_update(self._update(fig3_table, corpus))
        scores = model.predict_scores(fig3_table["Income"], fig3_table)
        assert scores.get("salary", 0.0) > 0.5

    def test_predict_scores_table_equals_per_column(self, fig3_table, corpus):
        model = LocalModel("acme")
        model.apply_update(self._update(fig3_table, corpus))
        model.apply_update(DPBDSession(source_corpus=corpus).approve(fig3_table, "Cities", "city"))
        for table in [fig3_table, *corpus.tables]:
            expected = [model.predict_scores(column, table) for column in table.columns]
            assert model.predict_scores_table(table.columns, table) == expected

    def test_combine_with_global_moves_towards_local(self, fig3_table, corpus):
        model = LocalModel("acme")
        update = self._update(fig3_table, corpus)
        model.apply_update(update)
        model.apply_update(self._update(fig3_table, corpus))
        combined = model.combine_with_global(
            {"revenue": 0.9, "salary": 0.1}, fig3_table["Income"], fig3_table
        )
        assert combined["salary"] > 0.1
        # Without adaptations the global scores pass through untouched.
        fresh = LocalModel("other")
        assert fresh.combine_with_global({"revenue": 0.9}, fig3_table["Income"]) == {"revenue": 0.9}

    def test_training_example_cap(self, fig3_table, corpus):
        model = LocalModel("acme", config=LocalModelConfig(max_training_examples=3))
        for _ in range(5):
            model.apply_update(self._update(fig3_table, corpus))
        assert len(model.training_examples) <= 3

    def test_summary_contents(self, fig3_table, corpus):
        model = LocalModel("acme")
        model.apply_update(self._update(fig3_table, corpus))
        summary = model.summary()
        assert summary["customer_id"] == "acme"
        assert summary["updates_applied"] == 1
        assert "salary" in summary["local_weights"]

    def test_finetune_without_classifier_is_noop(self, fig3_table, corpus):
        model = LocalModel("acme")
        model.apply_update(self._update(fig3_table, corpus))
        assert model.finetune_classifier() is False


class TestCustomerContext:
    def test_create_and_apply(self, fig3_table):
        context = CustomerContext.create("acme")
        update = context.dpbd.relabel(fig3_table, "Income", "salary")
        context.apply(update)
        assert context.local_model.has_adaptations()
        assert len(context.applied_updates) == 1
        assert context.summary()["feedback"]["relabel"] == 1


class TestGlobalModel:
    @pytest.fixture(scope="class")
    def heuristics_only_model(self):
        corpus = GitTablesGenerator(GitTablesConfig(num_tables=12, seed=41)).generate_corpus()
        return GlobalModel.pretrain(
            training_corpus=corpus,
            include_learned_model=False,
            config=GlobalModelConfig(),
        )

    def test_pipeline_composition_without_learned_model(self, heuristics_only_model):
        assert heuristics_only_model.pipeline.step_names == ["header_matching", "value_lookup"]
        assert heuristics_only_model.classifier is None

    def test_annotation_works(self, heuristics_only_model, fig3_table):
        prediction = heuristics_only_model.annotate(fig3_table)
        assert len(prediction) == 4
        assert prediction.as_mapping()["Name"] == "name"

    def test_full_model_has_three_steps(self, pretrained_typer):
        assert pretrained_typer.global_model.pipeline.step_names == [
            "header_matching",
            "value_lookup",
            "table_embedding",
        ]
        assert pretrained_typer.global_model.classifier is not None

    def test_global_labeling_function_store_shared(self, heuristics_only_model):
        store = heuristics_only_model.global_labeling_functions
        assert len(store) == 0
