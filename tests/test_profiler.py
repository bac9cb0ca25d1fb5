"""Unit tests for the data profiler (statistics and expectation suites)."""

from __future__ import annotations

import pytest

from datagen import random_corpus
from repro.core import colblock
from repro.core.datatypes import DataType
from repro.core.errors import ConfigurationError
from repro.core.table import Column
from repro.profiler import (
    Expectation,
    ExpectationSuite,
    build_expectation_suite,
    character_template,
    profile_column,
)


class TestCharacterTemplate:
    @pytest.mark.parametrize(
        "value,template",
        [
            ("AB-123", "AA-999"),
            ("abc", "aaa"),
            ("a1b2", "a9a9"),
            ("", ""),
            ("ABCD", "AAA+"),
        ],
    )
    def test_templates(self, value, template):
        assert character_template(value) == template


class TestProfileColumn:
    def test_numeric_profile(self):
        column = Column("salary", ["10", "20", "30", "40", None])
        profile = profile_column(column)
        assert profile.data_type is DataType.INTEGER
        assert profile.row_count == 5
        assert profile.null_count == 1
        assert profile.minimum == 10
        assert profile.maximum == 40
        assert profile.mean == pytest.approx(25.0)
        assert profile.median == pytest.approx(25.0)
        assert profile.quartile_1 == pytest.approx(17.5)
        assert profile.quartile_3 == pytest.approx(32.5)
        assert profile.is_numeric

    def test_text_profile(self):
        column = Column("status", ["Active", "Inactive", "Active", "Active"])
        profile = profile_column(column)
        assert not profile.is_numeric
        assert profile.distinct_count == 2
        assert profile.most_frequent_values[0] == "Active"
        assert profile.looks_categorical
        assert not profile.looks_like_identifier
        assert 0 < profile.alpha_fraction <= 1.0

    def test_identifier_detection(self):
        column = Column("id", [f"REC-{i}" for i in range(50)])
        profile = profile_column(column)
        assert profile.looks_like_identifier
        assert profile.unique_fraction == 1.0

    def test_null_fraction_and_empty(self):
        profile = profile_column(Column("x", [None, "", "N/A"]))
        assert profile.null_fraction == 1.0
        assert profile.distinct_count == 0
        assert not profile.is_numeric

    def test_templates_extracted(self):
        column = Column("sku", ["AB-123", "CD-456", "EF-789"])
        profile = profile_column(column)
        assert profile.common_templates == ["AA-999"]

    def test_to_dict_is_serialisable(self):
        import json

        payload = profile_column(Column("x", ["1", "2"])).to_dict()
        assert json.loads(json.dumps(payload))["row_count"] == 2


class TestExpectations:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            Expectation("does_not_exist", {})

    def test_invalid_mostly_rejected(self):
        with pytest.raises(ConfigurationError):
            Expectation("values_between", {"min": 0, "max": 1}, mostly=0.0)

    def test_values_between(self):
        expectation = Expectation("values_between", {"min": 0, "max": 100}, mostly=0.8)
        good = Column("x", ["10", "20", "99"])
        bad = Column("x", ["10", "500", "900"])
        assert expectation.check(good).success
        assert not expectation.check(bad).success

    def test_mean_between(self):
        expectation = Expectation("mean_between", {"min": 15, "max": 25})
        assert expectation.check(Column("x", ["10", "20", "30"])).success
        assert not expectation.check(Column("x", ["100", "200"])).success

    def test_std_dev_between(self):
        expectation = Expectation("std_dev_between", {"min": 0, "max": 1})
        assert expectation.check(Column("x", ["5", "5", "5"])).success
        assert not expectation.check(Column("x", ["5", "500"])).success

    def test_values_in_set(self):
        expectation = Expectation("values_in_set", {"values": ["A", "B"]}, mostly=0.9)
        assert expectation.check(Column("x", ["a", "b", "A"])).success
        assert not expectation.check(Column("x", ["a", "z", "q"])).success

    def test_values_match_regex(self):
        expectation = Expectation("values_match_regex", {"pattern": r"\d+"})
        assert expectation.check(Column("x", ["1", "22", "333"])).success
        assert not expectation.check(Column("x", ["1", "two", "three"])).success

    def test_values_match_template(self):
        expectation = Expectation("values_match_template", {"templates": ["AA-999"]}, mostly=0.6)
        assert expectation.check(Column("x", ["AB-123", "CD-977"])).success

    @pytest.mark.parametrize("kernels", [True, False])
    def test_values_match_template_equals_per_value_count(self, kernels):
        previous = colblock.set_kernels_enabled(kernels)
        try:
            for table in random_corpus(5, 30):
                for column in table.to_block().columns:
                    texts = column.text_values()
                    templates = [*(character_template(text) for text in texts[:2]), "a9"]
                    # A repeated template must not count its values twice.
                    expectation = Expectation(
                        "values_match_template", {"templates": templates + templates[:1]}, mostly=0.5
                    )
                    hits = sum(1 for text in texts if character_template(text) in templates)
                    fraction = hits / len(texts) if texts else 0.0
                    result = expectation.check(column)
                    assert result.observed_fraction == fraction
                    assert result.success == (bool(texts) and fraction >= 0.5)
        finally:
            colblock.set_kernels_enabled(previous)

    def test_values_match_template_follows_invalidate_cache(self):
        expectation = Expectation("values_match_template", {"templates": ["AA-999"]}, mostly=0.6)
        column = Column("x", ["AB-123", "CD-977"])
        assert expectation.check(column).observed_fraction == 1.0
        column.values[0] = "ab"
        column.invalidate_cache()
        assert expectation.check(column).observed_fraction == 0.5

    def test_null_fraction_at_most(self):
        expectation = Expectation("null_fraction_at_most", {"max": 0.25})
        assert expectation.check(Column("x", ["a", "b", "c", None])).success
        assert not expectation.check(Column("x", ["a", None, None, None])).success

    def test_distinct_count_between(self):
        expectation = Expectation("distinct_count_between", {"min": 1, "max": 2})
        assert expectation.check(Column("x", ["a", "b", "a"])).success
        assert not expectation.check(Column("x", ["a", "b", "c"])).success

    def test_value_lengths_between(self):
        expectation = Expectation("value_lengths_between", {"min": 2, "max": 4})
        assert expectation.check(Column("x", ["ab", "abcd"])).success
        assert not expectation.check(Column("x", ["a", "abcdefgh"])).success

    def test_unique_fraction_at_least(self):
        expectation = Expectation("unique_fraction_at_least", {"min": 0.9})
        assert expectation.check(Column("x", ["a", "b", "c"])).success
        assert not expectation.check(Column("x", ["a", "a", "a"])).success

    def test_no_applicable_values(self):
        expectation = Expectation("values_between", {"min": 0, "max": 1})
        result = expectation.check(Column("x", ["not", "numbers"]))
        assert not result.success
        assert result.observed_fraction == 0.0

    def test_describe(self):
        text = Expectation("values_between", {"min": 0, "max": 1}).describe()
        assert "values_between" in text and "min" in text


class TestExpectationSuite:
    def test_validate_and_success_fraction(self):
        suite = ExpectationSuite(
            "s",
            [
                Expectation("values_between", {"min": 0, "max": 100}),
                Expectation("mean_between", {"min": 1000, "max": 2000}),
            ],
        )
        column = Column("x", ["10", "20"])
        results = suite.validate(column)
        assert len(results) == 2
        assert suite.success_fraction(column) == pytest.approx(0.5)
        assert not suite.matches(column, required_fraction=0.8)
        assert suite.matches(column, required_fraction=0.5)

    def test_empty_suite_matches_everything(self):
        assert ExpectationSuite("empty").success_fraction(Column("x", ["a"])) == 1.0


class TestBuildExpectationSuite:
    def test_numeric_column_suite_accepts_similar_column(self):
        source = Column("salary", [str(v) for v in range(50_000, 80_000, 1_000)])
        suite = build_expectation_suite(source)
        similar = Column("pay", [str(v) for v in range(52_000, 78_000, 2_000)])
        different = Column("age", ["25", "30", "40", "55"])
        assert suite.success_fraction(similar) > suite.success_fraction(different)

    def test_categorical_column_gets_value_set(self):
        source = Column("status", ["Active", "Inactive"] * 20)
        suite = build_expectation_suite(source)
        kinds = {expectation.kind for expectation in suite}
        assert "values_in_set" in kinds

    def test_identifier_column_gets_uniqueness(self):
        source = Column("id", [f"X{i}" for i in range(40)])
        suite = build_expectation_suite(source)
        kinds = {expectation.kind for expectation in suite}
        assert "unique_fraction_at_least" in kinds

    def test_textual_column_gets_templates_or_lengths(self):
        source = Column("sku", ["AB-123", "CD-456", "EF-789", "GH-012"])
        suite = build_expectation_suite(source)
        kinds = {expectation.kind for expectation in suite}
        assert kinds & {"values_match_template", "value_lengths_between", "values_in_set"}
