"""Unit tests for the DPBD subsystem (feedback, LF inference, label models,
weak-label generation, and the session loop)."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError, FeedbackError
from repro.core.table import Column, Table
from repro.corpus import GitTablesConfig, GitTablesGenerator
from repro.dpbd import (
    AgreementWeightedLabelModel,
    ColumnRelabel,
    DPBDSession,
    ExplicitApproval,
    FeedbackLog,
    ImplicitApproval,
    MajorityVoteLabelModel,
    WeakLabelingConfig,
    generate_weak_labels,
    infer_labeling_functions,
)
from repro.dpbd.label_model import _build_vote_matrix
from repro.dpbd.lf_inference import LFInferenceConfig
from repro.lookup.labeling_functions import (
    CoOccurrenceLF,
    HeaderMatchLF,
    LFContext,
    MeanRangeLF,
    ValueRangeLF,
    ValueSetLF,
)


@pytest.fixture(scope="module")
def source_corpus():
    return GitTablesGenerator(GitTablesConfig(num_tables=40, seed=2)).generate_corpus()


class TestFeedbackEvents:
    def test_relabel_exposes_column(self, fig3_table):
        event = ColumnRelabel(fig3_table, "Income", "salary", previous_type="revenue")
        assert event.column.name == "Income"
        assert event.kind == "relabel"

    def test_relabel_requires_existing_column(self, fig3_table):
        with pytest.raises(FeedbackError):
            ColumnRelabel(fig3_table, "DoesNotExist", "salary")

    def test_relabel_requires_type(self, fig3_table):
        with pytest.raises(FeedbackError):
            ColumnRelabel(fig3_table, "Income", "")

    def test_approvals(self, fig3_table):
        explicit = ExplicitApproval(fig3_table, "Name", "name")
        implicit = ImplicitApproval(fig3_table, "Cities", "city")
        assert explicit.kind == "approval"
        assert implicit.kind == "implicit_approval"
        with pytest.raises(FeedbackError):
            ImplicitApproval(fig3_table, "Missing", "city")

    def test_event_ids_increase(self, fig3_table):
        first = ColumnRelabel(fig3_table, "Income", "salary")
        second = ColumnRelabel(fig3_table, "Income", "salary")
        assert second.event_id > first.event_id

    def test_feedback_log(self, fig3_table):
        log = FeedbackLog()
        log.record(ColumnRelabel(fig3_table, "Income", "salary"))
        log.record(ImplicitApproval(fig3_table, "Name", "name"))
        log.record(ExplicitApproval(fig3_table, "Cities", "city"))
        assert len(log) == 3
        assert len(log.relabels()) == 1
        assert len(log.approvals()) == 2
        assert len(log.events_for_type("salary")) == 1
        assert log.summary() == {"relabel": 1, "implicit_approval": 1, "approval": 1}


class TestLFInference:
    def test_numeric_column_produces_fig3_lf_kinds(self, fig3_table):
        functions = infer_labeling_functions(
            fig3_table["Income"], "salary", table=fig3_table, neighbor_types=["name", "company", "city"]
        )
        kinds = {type(function) for function in functions}
        assert ValueRangeLF in kinds      # LF1
        assert MeanRangeLF in kinds       # LF2
        assert CoOccurrenceLF in kinds    # LF3
        assert HeaderMatchLF in kinds     # LF4
        assert all(function.target_type == "salary" for function in functions)
        assert all(function.source == "local" for function in functions)

    def test_neighbor_types_fall_back_to_table_annotations(self, fig3_table):
        functions = infer_labeling_functions(fig3_table["Income"], "salary", table=fig3_table)
        assert any(isinstance(function, CoOccurrenceLF) for function in functions)

    def test_categorical_column_produces_value_set(self):
        table = Table.from_columns_dict({"status": ["Active", "Inactive"] * 10})
        functions = infer_labeling_functions(table["status"], "status", table=table)
        assert any(isinstance(function, ValueSetLF) for function in functions)

    def test_header_rule_can_be_disabled(self, fig3_table):
        config = LFInferenceConfig(include_header_rule=False)
        functions = infer_labeling_functions(fig3_table["Income"], "salary", config=config)
        assert not any(isinstance(function, HeaderMatchLF) for function in functions)

    def test_inferred_range_covers_demonstration(self, fig3_table):
        functions = infer_labeling_functions(fig3_table["Income"], "salary")
        range_lf = next(f for f in functions if isinstance(f, ValueRangeLF))
        assert range_lf.apply(fig3_table["Income"]) == 1.0

    def test_punctuation_only_header_gets_no_header_rule(self, pretrained_typer):
        """A header that normalises to "" has nothing to match: relabelling its
        column infers every other rule, and no HeaderMatchLF (which rejects an
        empty header)."""
        table = Table.from_columns_dict(
            {
                "#": ["1001", "1002", "1003", "1004"],
                "Name": ["Han Phi", "Thomas Do", "Alexis Nan", "Bo Chen"],
                "Cities": ["New York", "Amsterdam", "Paris", "Berlin"],
            },
            name="hash-header",
            semantic_types={"Name": "name", "Cities": "city"},
        )
        expected = {ValueRangeLF, MeanRangeLF, CoOccurrenceLF}
        functions = infer_labeling_functions(table["#"], "customer_id", table=table)
        assert {type(function) for function in functions} == expected
        pretrained_typer.register_customer("hash-header-customer")
        update = pretrained_typer.give_feedback("hash-header-customer", table, "#", "customer_id")
        assert {type(function) for function in update.labeling_functions} == expected


class TestLabelModels:
    def _functions(self):
        return [
            HeaderMatchLF("salary", ["income"]),
            ValueRangeLF("salary", 40_000, 80_000),
            HeaderMatchLF("city", ["town", "city"]),
        ]

    def test_majority_vote_abstention_semantics(self):
        model = MajorityVoteLabelModel()
        column = Column("income", ["50000", "60000"])
        distribution = model.label_distributions(self._functions(), [(column, None)])[0]
        # Both salary LFs fire at 1.0; the city LF abstains entirely.
        assert distribution["salary"] == pytest.approx(1.0)
        assert "city" not in distribution

    def test_majority_vote_empty_functions(self):
        columns = [(Column("x", ["1"]), None)]
        assert MajorityVoteLabelModel().label_distributions([], columns) == [{}]

    def test_agreement_weighted_reliabilities(self):
        model = AgreementWeightedLabelModel()
        columns = [
            (Column("income", ["50000", "60000"]), None),
            (Column("salary", ["55000", "65000"]), None),
            (Column("price", ["3", "4"]), None),
        ]
        functions = [
            ValueRangeLF("salary", 40_000, 80_000, name="range"),
            MeanRangeLF("salary", 45_000, 70_000, name="mean"),
            HeaderMatchLF("salary", ["completely_unrelated_header"], name="lonely"),
        ]
        distributions = model.label_distributions(functions, columns)
        assert len(distributions) == 3
        assert set(model.last_reliabilities) == {"range", "mean", "lonely"}
        assert all(0.0 <= r <= 1.0 for r in model.last_reliabilities.values())

    def test_agreement_invalid_config(self):
        with pytest.raises(ConfigurationError):
            AgreementWeightedLabelModel(smoothing=2.0)

    def test_vote_matrix_equals_per_column_loop(self, fig3_table, source_corpus):
        functions = [
            *infer_labeling_functions(
                fig3_table["Income"], "salary", table=fig3_table, neighbor_types=["name", "company", "city"]
            ),
            HeaderMatchLF("city", ["town", "city"]),
            CoOccurrenceLF("city", ["country"]),
            CoOccurrenceLF("name", ["first_name", "last_name"]),
            ValueSetLF("country", ["Germany", "France", "Japan"]),
        ]
        columns = [(entry.column, entry.table) for entry in source_corpus.columns()]
        expected = [
            [function.apply(column, LFContext(table=table)) for function in functions]
            for column, table in columns
        ]
        assert _build_vote_matrix(functions, columns).votes == expected


class TestWeakLabelGeneration:
    def test_salary_feedback_mines_salary_columns(self, fig3_table, source_corpus):
        functions = infer_labeling_functions(
            fig3_table["Income"], "salary", table=fig3_table, neighbor_types=["name", "company", "city"]
        )
        weak = generate_weak_labels(source_corpus, functions)
        assert all(label.label == "salary" for label in weak)
        # Weak labels should be dominated by columns that truly are salaries.
        if weak:
            truly_salary = sum(1 for label in weak if label.column.semantic_type == "salary")
            assert truly_salary / len(weak) >= 0.5

    def test_no_functions_no_labels(self, source_corpus):
        assert generate_weak_labels(source_corpus, []) == []

    def test_respect_existing_labels(self, source_corpus):
        # A deliberately over-broad rule would otherwise relabel everything.
        broad = [ValueRangeLF("salary", -1e12, 1e12)]
        respectful = generate_weak_labels(
            source_corpus, broad, config=WeakLabelingConfig(respect_existing_labels=True)
        )
        assert all(
            label.column.semantic_type in (None, "salary") for label in respectful
        )

    def test_max_examples_per_type(self, source_corpus):
        broad = [ValueRangeLF("count", -1e12, 1e12)]
        config = WeakLabelingConfig(
            respect_existing_labels=False, max_examples_per_type=5, min_confidence=0.5
        )
        weak = generate_weak_labels(source_corpus, broad, config=config)
        assert len(weak) <= 5

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            WeakLabelingConfig(min_confidence=1.5).validate()
        with pytest.raises(ConfigurationError):
            WeakLabelingConfig(max_examples_per_type=0).validate()


class TestDPBDSession:
    def test_relabel_produces_update(self, fig3_table, source_corpus):
        session = DPBDSession(source_corpus=source_corpus)
        update = session.relabel(fig3_table, "Income", "salary", previous_type="revenue")
        assert update.target_type == "salary"
        assert len(update.labeling_functions) >= 3
        assert update.num_training_examples == len(update.weak_labels) + 1
        demonstration = update.training_examples()[0]
        assert demonstration[2] == "salary"
        assert len(session.log) == 1

    def test_implicit_approval_downweights_rules(self, fig3_table, source_corpus):
        session = DPBDSession(source_corpus=source_corpus)
        update = session.approve(fig3_table, "Cities", "city", implicit=True)
        assert all(function.weight <= 0.5 for function in update.labeling_functions)

    def test_explicit_approval_keeps_full_weight(self, fig3_table, source_corpus):
        session = DPBDSession(source_corpus=source_corpus)
        update = session.approve(fig3_table, "Cities", "city", implicit=False)
        assert any(function.weight > 0.5 for function in update.labeling_functions)

    def test_session_without_corpus(self, fig3_table):
        session = DPBDSession()
        update = session.relabel(fig3_table, "Income", "salary")
        assert update.weak_labels == []
        assert update.labeling_functions
