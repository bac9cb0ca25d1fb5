"""Unit tests for prediction data structures."""

from __future__ import annotations

import dataclasses

from repro.core.ontology import UNKNOWN_TYPE
from repro.core.prediction import ColumnPrediction, TablePrediction, TypeScore, merge_scores


class TestTypeScore:
    def test_confidence_is_clipped(self):
        assert TypeScore(confidence=1.7, type_name="city").confidence == 1.0
        assert TypeScore(confidence=-0.3, type_name="city").confidence == 0.0

    def test_scaled(self):
        score = TypeScore(confidence=0.8, type_name="city")
        assert score.scaled(0.5).confidence == 0.4
        assert score.scaled(0.5).type_name == "city"

    def test_ordering_by_confidence(self):
        low = TypeScore(confidence=0.2, type_name="a")
        high = TypeScore(confidence=0.9, type_name="b")
        assert max([low, high]) is high


class TestMergeScores:
    def test_keeps_maximum_per_type(self):
        merged = merge_scores(
            [
                [TypeScore(0.5, "city"), TypeScore(0.4, "country")],
                [TypeScore(0.8, "city")],
            ]
        )
        assert merged[0].type_name == "city"
        assert merged[0].confidence == 0.8
        assert {score.type_name for score in merged} == {"city", "country"}

    def test_sorted_descending(self):
        merged = merge_scores([[TypeScore(0.1, "a"), TypeScore(0.9, "b")]])
        assert [score.type_name for score in merged] == ["b", "a"]

    def test_empty(self):
        assert merge_scores([]) == []


class TestColumnPrediction:
    def test_scores_sorted_on_construction(self):
        prediction = ColumnPrediction(
            column_index=0,
            column_name="x",
            scores=[TypeScore(0.3, "b"), TypeScore(0.7, "a")],
        )
        assert prediction.predicted_type == "a"
        assert prediction.confidence == 0.7

    def test_abstained_reports_unknown(self):
        prediction = ColumnPrediction(
            column_index=0, column_name="x", scores=[TypeScore(0.9, "a")], abstained=True
        )
        assert prediction.predicted_type == UNKNOWN_TYPE
        assert prediction.confidence == 0.0

    def test_empty_scores_report_unknown(self):
        prediction = ColumnPrediction(column_index=0, column_name="x")
        assert prediction.predicted_type == UNKNOWN_TYPE

    def test_top_k_and_score_for(self):
        prediction = ColumnPrediction(
            column_index=0,
            column_name="x",
            scores=[TypeScore(0.7, "a"), TypeScore(0.3, "b"), TypeScore(0.1, "c")],
        )
        assert [score.type_name for score in prediction.top_k(2)] == ["a", "b"]
        assert prediction.score_for("b") == 0.3
        assert prediction.score_for("missing") == 0.0

    def test_to_dict(self):
        prediction = ColumnPrediction(column_index=1, column_name="x", scores=[TypeScore(0.5, "a")])
        payload = prediction.to_dict()
        assert payload["predicted_type"] == "a"
        assert payload["column_index"] == 1
        assert payload["top_k"][0]["type"] == "a"


class TestTablePrediction:
    def _prediction(self, **changes) -> TablePrediction:
        fields = {
            "table_name": "t",
            "columns": [
                ColumnPrediction(0, "a", [TypeScore(0.9, "city")], source_step="header_matching"),
                ColumnPrediction(1, "b", [TypeScore(0.2, "country")], abstained=True),
            ],
            "step_trace": {"header_matching": 2},
            "step_seconds": {"header_matching": 0.001},
        }
        fields.update(changes)
        return TablePrediction(**fields)

    def test_equality_ignores_only_wall_clock(self):
        reference = self._prediction()
        assert reference == self._prediction(step_seconds={"header_matching": 0.5, "x": 1.0})
        first = reference.columns[0]
        for other in (
            self._prediction(step_trace={"header_matching": 2, "value_lookup": 1}),
            self._prediction(
                columns=[dataclasses.replace(first, scores=[TypeScore(0.8, "city")])]
                + reference.columns[1:]
            ),
            self._prediction(
                columns=[dataclasses.replace(first, source_step="value_lookup")]
                + reference.columns[1:]
            ),
        ):
            assert reference != other

    def test_len_and_iteration(self):
        prediction = self._prediction()
        assert len(prediction) == 2
        assert [p.column_name for p in prediction] == ["a", "b"]

    def test_prediction_for(self):
        prediction = self._prediction()
        assert prediction.prediction_for("a").predicted_type == "city"
        assert prediction.prediction_for("missing") is None

    def test_predicted_types_and_mapping(self):
        prediction = self._prediction()
        assert prediction.predicted_types() == ["city", UNKNOWN_TYPE]
        assert prediction.as_mapping() == {"a": "city", "b": UNKNOWN_TYPE}

    def test_abstention_rate(self):
        assert self._prediction().abstention_rate() == 0.5
        assert TablePrediction(table_name="empty").abstention_rate() == 0.0

    def test_to_dict(self):
        payload = self._prediction().to_dict()
        assert payload["table_name"] == "t"
        assert len(payload["columns"]) == 2
