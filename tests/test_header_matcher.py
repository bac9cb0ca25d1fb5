"""Unit tests for the header-matching pipeline step."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.core.table import Column, Table
from repro.matching.header_matcher import HeaderMatcher, HeaderMatcherConfig


@pytest.fixture(scope="module")
def matcher(ontology):
    return HeaderMatcher.with_trained_embedder(ontology)


class TestConfigValidation:
    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ConfigurationError):
            HeaderMatcherConfig(syntactic_threshold=1.5).validate()
        with pytest.raises(ConfigurationError):
            HeaderMatcherConfig(exact_threshold=0.5, syntactic_threshold=0.8).validate()
        with pytest.raises(ConfigurationError):
            HeaderMatcherConfig(top_k=0).validate()


class TestHeaderMatching:
    def test_exact_header_gets_full_confidence(self, matcher):
        column = Column("salary", ["50000", "60000"])
        scores = matcher.predict_column(column)
        assert scores[0].type_name == "salary"
        assert scores[0].confidence == 1.0

    def test_synonym_header_matches(self, matcher):
        column = Column("Income", ["50000", "60000"])
        scores = matcher.predict_column(column)
        assert scores[0].type_name == "salary"

    def test_case_and_separator_insensitive(self, matcher):
        column = Column("ZIP-CODE", ["90210", "10001"])
        scores = matcher.predict_column(column)
        assert scores[0].type_name == "zip_code"

    def test_empty_header_yields_no_candidates(self, matcher):
        assert matcher.predict_column(Column("", ["a", "b"])) == []

    def test_uninformative_header_low_or_no_confidence(self, matcher):
        scores = matcher.predict_column(Column("col_3", ["a", "b"]))
        assert not scores or scores[0].confidence < 1.0

    def test_kind_filter_blocks_contradicting_types(self, ontology):
        matcher = HeaderMatcher.with_trained_embedder(ontology)
        # A column named "city" but containing numbers: the textual type
        # "city" contradicts the numeric values and must be filtered out.
        numeric_city = Column("city", ["1", "2", "3", "4"])
        scores = matcher.predict_column(numeric_city)
        assert all(score.type_name != "city" for score in scores)

    def test_kind_filter_can_be_disabled(self, ontology):
        config = HeaderMatcherConfig(filter_by_data_kind=False)
        matcher = HeaderMatcher(ontology, config=config)
        numeric_city = Column("city", ["1", "2", "3", "4"])
        scores = matcher.predict_column(numeric_city)
        assert any(score.type_name == "city" for score in scores)

    def test_top_k_respected(self, ontology):
        matcher = HeaderMatcher.with_trained_embedder(ontology, config=HeaderMatcherConfig(top_k=2))
        scores = matcher.predict_column(Column("name", ["Ann", "Bob"]))
        assert len(scores) <= 2

    def test_predict_columns_subset(self, matcher):
        table = Table.from_columns_dict({"salary": ["100"], "city": ["Rome"], "x": ["?"]})
        results = matcher.predict_columns(table, [0, 2])
        assert set(results) == {0, 2}

    def test_predict_columns_all_by_default(self, matcher):
        table = Table.from_columns_dict({"salary": ["100"], "city": ["Rome"]})
        assert set(matcher.predict_columns(table)) == {0, 1}

    def test_unknown_type_never_predicted(self, matcher, ontology):
        table = Table.from_columns_dict({"unknown": ["a", "b"]})
        scores = matcher.predict_columns(table)[0]
        assert all(score.type_name != "unknown" for score in scores)

    def test_syntactic_only_matcher_without_embedder(self, ontology):
        matcher = HeaderMatcher(ontology)  # no embedder at all
        scores = matcher.predict_column(Column("salary", ["50000"]))
        assert scores and scores[0].type_name == "salary"

    def test_abbreviated_database_header(self, matcher):
        scores = matcher.predict_column(Column("cust_nm", ["Ann Smith", "Bob Jones"]))
        # Should surface a person/name-ish candidate among the top ones rather
        # than nothing at all.
        assert scores, "abbreviated header should still produce candidates"
