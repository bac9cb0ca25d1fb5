"""Unit tests for featurization, dataset assembly, the learned classifier,
and OOD detection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ConfigurationError, ModelNotTrainedError
from repro.core.ontology import UNKNOWN_TYPE
from repro.core.table import Column, Table
from repro.corpus import build_ood_corpus
from repro.embedding_model import (
    ColumnFeaturizer,
    FeaturizerConfig,
    LabelVocabulary,
    OODDetector,
    TableEmbeddingClassifier,
    TableEmbeddingStep,
    auroc,
    build_dataset,
    energy_score,
    entropy_score,
    max_softmax_score,
)


class TestColumnFeaturizer:
    def test_fixed_dimension(self):
        featurizer = ColumnFeaturizer()
        column = Column("salary", ["100", "200", "300"])
        table = Table([column, Column("city", ["Rome", "Pisa", "Bari"])])
        vector_alone = featurizer.extract(column)
        vector_in_table = featurizer.extract(column, table)
        assert vector_alone.shape == (featurizer.dim,)
        assert vector_in_table.shape == (featurizer.dim,)

    def test_feature_groups_sum_to_dim(self):
        featurizer = ColumnFeaturizer()
        assert sum(featurizer.feature_groups.values()) == featurizer.dim

    def test_context_changes_features(self):
        featurizer = ColumnFeaturizer()
        column = Column("value", ["1", "2", "3"])
        numeric_table = Table([column, Column("other", ["4", "5", "6"])])
        text_table = Table([column, Column("other", ["a", "b", "c"])])
        assert not np.allclose(
            featurizer.extract(column, numeric_table), featurizer.extract(column, text_table)
        )

    def test_header_exclusion_changes_dim(self):
        with_header = ColumnFeaturizer(config=FeaturizerConfig(include_header=True))
        without_header = ColumnFeaturizer(config=FeaturizerConfig(include_header=False))
        assert with_header.dim > without_header.dim

    def test_deterministic(self):
        featurizer = ColumnFeaturizer()
        column = Column("email", ["a@x.com", "b@y.com"])
        np.testing.assert_allclose(featurizer.extract(column), featurizer.extract(column))

    def test_different_types_get_different_features(self):
        featurizer = ColumnFeaturizer()
        emails = Column("a", ["a@x.com", "b@y.org", "c@z.io"])
        prices = Column("a", ["10.99", "5.49", "99.00"])
        assert not np.allclose(featurizer.extract(emails), featurizer.extract(prices))

    def test_empty_column_is_finite(self):
        featurizer = ColumnFeaturizer()
        vector = featurizer.extract(Column("empty", [None, "", None]))
        assert np.all(np.isfinite(vector))

    def test_extract_many_shape(self):
        featurizer = ColumnFeaturizer()
        rows = [(Column("a", ["1"]), None), (Column("b", ["x"]), None)]
        assert featurizer.extract_many(rows).shape == (2, featurizer.dim)
        assert featurizer.extract_many([]).shape == (0, featurizer.dim)


class TestCacheToken:
    def test_fresh_featurizer_reuses_memoized_feature_vectors(self, monkeypatch):
        """The memoized feature prefix must be served to a *different*
        featurizer instance with the same learned state, not recomputed."""
        config = FeaturizerConfig(include_table_context=False)
        first = ColumnFeaturizer(config=config)
        second = ColumnFeaturizer(embedder=first.embedder, config=config)
        assert first.cache_token() == second.cache_token()

        column = Column("Income", ["$ 50K", "$ 60K", "$ 70K"])
        expected = first.extract(column)

        def recompute(_column):
            raise AssertionError("the memoized feature prefix was recomputed")

        monkeypatch.setattr(second, "_compute_column_features", recompute)
        served = second.extract(column)
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


class TestLabelVocabulary:
    def test_from_labels_sorted_and_unknown_appended(self):
        vocabulary = LabelVocabulary.from_labels(["b", "a", "b"])
        assert vocabulary.types[:2] == ["a", "b"]
        assert vocabulary.types[-1] == UNKNOWN_TYPE
        assert vocabulary.unknown_index == 2

    def test_index_round_trip(self):
        vocabulary = LabelVocabulary.from_labels(["x", "y"], include_unknown=False)
        for type_name in vocabulary:
            assert vocabulary.type_at(vocabulary.index_of(type_name)) == type_name

    def test_unknown_label_rejected(self):
        vocabulary = LabelVocabulary.from_labels(["x"], include_unknown=False)
        with pytest.raises(ConfigurationError):
            vocabulary.index_of("zzz")
        with pytest.raises(ConfigurationError):
            vocabulary.type_at(99)

    def test_serialization(self):
        vocabulary = LabelVocabulary.from_labels(["x", "y"])
        restored = LabelVocabulary.from_dict(vocabulary.to_dict())
        assert restored.types == vocabulary.types


class TestBuildDataset:
    def test_dataset_covers_labeled_columns(self, small_corpus):
        featurizer = ColumnFeaturizer()
        dataset = build_dataset(small_corpus, featurizer)
        assert len(dataset) == len(small_corpus.labeled_columns())
        assert dataset.features.shape == (len(dataset), featurizer.dim)
        assert set(np.unique(dataset.labels)) <= set(range(len(dataset.vocabulary)))

    def test_background_corpus_becomes_unknown(self, small_corpus, background_corpus):
        featurizer = ColumnFeaturizer()
        dataset = build_dataset(small_corpus, featurizer, background_corpus=background_corpus)
        counts = dataset.class_counts()
        assert counts.get(UNKNOWN_TYPE, 0) == background_corpus.num_columns

    def test_extra_examples_added(self, small_corpus):
        featurizer = ColumnFeaturizer()
        extra = [(Column("income", ["1", "2"]), None, "salary")]
        baseline = build_dataset(small_corpus, featurizer)
        extended = build_dataset(small_corpus, featurizer, extra_examples=extra)
        assert len(extended) == len(baseline) + 1

    def test_merged_with_requires_same_vocabulary(self, small_corpus):
        featurizer = ColumnFeaturizer()
        dataset = build_dataset(small_corpus, featurizer)
        merged = dataset.merged_with(dataset)
        assert len(merged) == 2 * len(dataset)
        other = build_dataset(small_corpus, featurizer, vocabulary=LabelVocabulary(["only"]))
        with pytest.raises(ConfigurationError):
            dataset.merged_with(other)


class TestTableEmbeddingClassifier:
    def test_training_report(self, trained_classifier, small_corpus):
        report = trained_classifier.last_fit_report
        assert report is not None
        assert report.num_examples >= len(small_corpus.labeled_columns())
        assert report.final_train_accuracy > 0.5

    def test_predict_proba_sums_to_one(self, trained_classifier):
        column = Column("salary", ["52000", "61000", "70500"])
        probabilities = trained_classifier.predict_proba(column)
        assert sum(probabilities.values()) == pytest.approx(1.0, abs=1e-6)

    def test_predict_column_ranked(self, trained_classifier):
        column = Column("email", ["a@x.com", "b@y.org", "c@corp.com"])
        scores = trained_classifier.predict_column(column, top_k=5)
        assert len(scores) == 5
        assert scores[0].confidence >= scores[-1].confidence

    def test_accuracy_on_held_out_corpus(self, trained_classifier, eval_corpus):
        correct = total = 0
        for table in eval_corpus:
            for column in table.columns:
                if column.semantic_type is None:
                    continue
                total += 1
                if trained_classifier.predict_type(column, table) == column.semantic_type:
                    correct += 1
        assert correct / total > 0.45, f"classifier accuracy too low: {correct}/{total}"

    def test_unknown_class_present(self, trained_classifier):
        assert UNKNOWN_TYPE in trained_classifier.known_types()

    def test_use_before_fit_raises(self):
        classifier = TableEmbeddingClassifier()
        with pytest.raises(ModelNotTrainedError):
            classifier.predict_type(Column("x", ["1"]))

    def test_finetune_shifts_predictions(self, small_corpus, background_corpus):
        from repro.nn import MLPConfig

        classifier = TableEmbeddingClassifier(mlp_config=MLPConfig(max_epochs=8, hidden_sizes=(64,), seed=2))
        classifier.fit(small_corpus, background_corpus=background_corpus)
        column = Column("mystery", ["50500", "61000", "72000", "55000"])
        examples = [(column, None, "salary")] * 5
        before = classifier.predict_proba(column).get("salary", 0.0)
        classifier.finetune(examples, epochs=8)
        after = classifier.predict_proba(column).get("salary", 0.0)
        assert after >= before

    def test_finetune_before_fit_raises(self):
        classifier = TableEmbeddingClassifier()
        with pytest.raises(ModelNotTrainedError):
            classifier.finetune([(Column("x", ["1"]), None, "salary")])

    def test_snapshot_restore_weights(self, trained_classifier):
        column = Column("city", ["Rome", "Bari"])
        reference = trained_classifier.predict_proba(column)
        weights = trained_classifier.snapshot_weights()
        trained_classifier.restore_weights(weights)
        assert trained_classifier.predict_proba(column) == pytest.approx(reference)


class TestTableEmbeddingStep:
    def test_requires_trained_classifier(self):
        with pytest.raises(ModelNotTrainedError):
            TableEmbeddingStep(TableEmbeddingClassifier())

    def test_predicts_all_requested_columns(self, trained_classifier, eval_corpus):
        step = TableEmbeddingStep(trained_classifier, top_k=3)
        table = eval_corpus[0]
        results = step.predict_columns(table, [0, 1])
        assert set(results) == {0, 1}
        assert all(len(scores) <= 3 for scores in results.values())


class TestOODScores:
    def test_max_softmax(self):
        assert max_softmax_score([0.7, 0.2, 0.1]) == 0.7
        assert max_softmax_score([]) == 0.0

    def test_entropy_bounds(self):
        assert entropy_score([1.0, 0.0]) == 0.0
        assert entropy_score([0.5, 0.5]) == pytest.approx(1.0)
        assert entropy_score([1.0]) == 0.0

    def test_energy_monotonic_in_logit_magnitude(self):
        confident = energy_score([10.0, 0.0, 0.0])
        unsure = energy_score([0.1, 0.0, 0.0])
        assert confident < unsure  # higher energy = more OOD

    def test_energy_invalid_temperature(self):
        with pytest.raises(ConfigurationError):
            energy_score([1.0], temperature=0.0)

    def test_auroc_separable(self):
        assert auroc([0.1, 0.2, 0.3], [0.8, 0.9]) == 1.0
        assert auroc([0.8, 0.9], [0.1, 0.2]) == 0.0
        assert auroc([], [0.5]) == 0.5


class TestOODDetector:
    def test_invalid_method_rejected(self, trained_classifier):
        with pytest.raises(ConfigurationError):
            OODDetector(trained_classifier, method="magic")

    def test_calibration_and_decisions(self, trained_classifier, eval_corpus):
        detector = OODDetector(trained_classifier, method="max_softmax", accept_fraction=0.9)
        in_distribution = [
            (entry.column, entry.table) for entry in eval_corpus.labeled_columns()[:40]
        ]
        threshold = detector.calibrate(in_distribution)
        assert detector.threshold == threshold
        accepted = sum(
            not detector.is_out_of_distribution(column, table) for column, table in in_distribution
        )
        # Roughly the accept fraction of in-distribution columns stays accepted.
        assert accepted / len(in_distribution) >= 0.6

    def test_ood_columns_flagged_more_often_than_in_distribution(self, trained_classifier, eval_corpus):
        detector = OODDetector(trained_classifier, method="max_softmax", accept_fraction=0.9)
        in_distribution = [(e.column, e.table) for e in eval_corpus.labeled_columns()[:40]]
        detector.calibrate(in_distribution)
        ood_corpus = build_ood_corpus(num_tables=6, seed=123)
        ood_columns = [
            (entry.column, entry.table)
            for entry in ood_corpus.columns()
            if str(entry.label).startswith("ood:")
        ]
        ood_flag_rate = sum(
            detector.is_out_of_distribution(column, table) for column, table in ood_columns
        ) / len(ood_columns)
        in_flag_rate = sum(
            detector.is_out_of_distribution(column, table) for column, table in in_distribution
        ) / len(in_distribution)
        assert ood_flag_rate > in_flag_rate

    def test_calibration_requires_columns(self, trained_classifier):
        detector = OODDetector(trained_classifier)
        with pytest.raises(ConfigurationError):
            detector.calibrate([])
