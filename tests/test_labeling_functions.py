"""Unit tests for labeling functions and their store."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from datagen import random_corpus
from repro.core.errors import LabelingFunctionError
from repro.core.table import Column, Table
from repro.lookup.labeling_functions import (
    CoOccurrenceLF,
    ExpectationSuiteLF,
    HeaderMatchLF,
    LabelingFunction,
    LabelingFunctionStore,
    LFContext,
    MeanRangeLF,
    RegexLF,
    ValueRangeLF,
    ValueSetLF,
    labeling_function_from_dict,
)
from repro.profiler.expectations import Expectation, ExpectationSuite


@pytest.fixture()
def salary_column() -> Column:
    return Column("income", ["50000", "60000", "70000", "65000"])


@pytest.fixture()
def fig3_context(fig3_table) -> LFContext:
    return LFContext(table=fig3_table, column_index=1)


class TestValueRangeLF:
    def test_fraction_of_values_in_range(self, salary_column):
        lf = ValueRangeLF("salary", low=55_000, high=80_000)
        assert lf.apply(salary_column) == pytest.approx(0.75)

    def test_all_outside_range(self, salary_column):
        assert ValueRangeLF("salary", 0, 10).apply(salary_column) == 0.0

    def test_non_numeric_column(self):
        assert ValueRangeLF("salary", 0, 100).apply(Column("x", ["a", "b"])) == 0.0

    def test_invalid_range_rejected(self):
        with pytest.raises(LabelingFunctionError):
            ValueRangeLF("salary", 100, 10)

    def test_invalid_weight_rejected(self):
        with pytest.raises(LabelingFunctionError):
            ValueRangeLF("salary", 0, 1, weight=0)

    def test_missing_target_rejected(self):
        with pytest.raises(LabelingFunctionError):
            ValueRangeLF("", 0, 1)


class TestMeanRangeLF:
    def test_fires_on_mean_inside_range(self, salary_column):
        assert MeanRangeLF("salary", 55_000, 65_000).apply(salary_column) == 1.0

    def test_silent_on_mean_outside_range(self, salary_column):
        assert MeanRangeLF("salary", 0, 10_000).apply(salary_column) == 0.0


class TestHeaderMatchLF:
    def test_exact_header(self, salary_column):
        assert HeaderMatchLF("salary", ["income"]).apply(salary_column) == 1.0

    def test_fuzzy_header(self):
        lf = HeaderMatchLF("salary", ["annual salary"])
        assert lf.apply(Column("annual_salary", ["1"])) >= 0.85

    def test_unrelated_header(self, salary_column):
        assert HeaderMatchLF("salary", ["shipping method"]).apply(salary_column) == 0.0

    def test_requires_nonempty_headers(self):
        with pytest.raises(LabelingFunctionError):
            HeaderMatchLF("salary", ["   "])


class TestCoOccurrenceLF:
    def test_fires_with_ground_truth_neighbors(self, fig3_table):
        lf = CoOccurrenceLF("salary", ["company", "name"])
        context = LFContext(table=fig3_table, column_index=1, neighbor_types=frozenset({"company", "name", "city"}))
        assert lf.apply(fig3_table["Income"], context) == 1.0

    def test_fires_from_headers_when_no_types_given(self, fig3_table):
        lf = CoOccurrenceLF("salary", ["company", "name"])
        context = LFContext(table=fig3_table, column_index=1)
        assert lf.apply(fig3_table["Income"], context) == 1.0

    def test_silent_when_required_types_absent(self, fig3_table):
        lf = CoOccurrenceLF("salary", ["blood_type"])
        context = LFContext(table=fig3_table, column_index=1)
        assert lf.apply(fig3_table["Income"], context) == 0.0

    def test_silent_without_table(self, salary_column):
        assert CoOccurrenceLF("salary", ["name"]).apply(salary_column, None) == 0.0

    def test_requires_types(self):
        with pytest.raises(LabelingFunctionError):
            CoOccurrenceLF("salary", [])

    def test_own_header_does_not_count_but_a_duplicate_does(self):
        lf = CoOccurrenceLF("salary", ["company"])
        alone = Table([Column("company", ["a"]), Column("income", ["1"])], name="alone")
        twins = Table([Column("company", ["a"]), Column("Company", ["b"])], name="twins")
        pairs = [(column, table) for table in (alone, twins) for column in table.columns]
        assert lf.apply_many(pairs) == [0.0, 1.0, 1.0, 1.0]
        assert lf.apply(alone.columns[0], LFContext(table=alone, column_index=0)) == 0.0
        # column_index excludes that position even for a different column object.
        assert lf.apply(Column("x", ["1"]), LFContext(table=alone, column_index=0)) == 0.0


#: One labeling function of every kind, with parameters that fire on the
#: headers and values ``datagen.random_corpus`` draws.
_PARITY_FUNCTIONS = [
    ValueRangeLF("salary", -1e6, 1e6),
    MeanRangeLF("salary", -1e9, 1e9),
    HeaderMatchLF("salary", ["col1", "c 2"]),
    CoOccurrenceLF("salary", ["col_0", "c_1"]),
    RegexLF("name", r"[a-z]+"),
    ValueSetLF("name", ["alpha", "NULL", "bravo-2"]),
    ExpectationSuiteLF(
        "name",
        ExpectationSuite(
            "s",
            [
                Expectation("values_match_template", {"templates": ["aaa+", "Aaaa+-9"]}, mostly=0.3),
                Expectation("value_lengths_between", {"min": 1, "max": 8}),
            ],
        ),
    ),
]


class TestApplyManyParity:
    """Batched evaluation equals per-column ``apply`` exactly, for every LF kind."""

    def test_every_kind_is_covered(self):
        assert {type(function) for function in _PARITY_FUNCTIONS} == set(LabelingFunction.__subclasses__())

    @given(seed=st.integers(0, 2**32 - 1), num_tables=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_apply_many_equals_apply(self, seed, num_tables):
        tables = random_corpus(seed, num_tables)
        # Duplicate and empty headers, and columns whose own header matches
        # a required type of the co-occurrence function.
        tables.append(
            Table(
                [Column("col0", ["alpha"]), Column("Col0", ["x"]), Column("", ["7"]), Column("c_1", [None])],
                name="dup",
            )
        )
        tables.append(Table([Column("col_0", ["1"]), Column("", [""])], name="self"))
        pairs = [(column, table) for table in tables for column in table.columns]
        pairs += [(column, None) for column, _ in pairs[:3]]
        random.Random(seed).shuffle(pairs)
        for function in _PARITY_FUNCTIONS:
            expected = [function.apply(column, LFContext(table=table)) for column, table in pairs]
            assert function.apply_many(pairs) == expected, function.kind


class TestRegexAndValueSetLF:
    def test_regex_fraction(self):
        lf = RegexLF("email", r"[^@]+@[^@]+\.[a-z]+")
        column = Column("contact", ["a@b.com", "not-an-email", "c@d.org"])
        assert lf.apply(column) == pytest.approx(2 / 3)

    def test_invalid_regex_rejected(self):
        with pytest.raises(LabelingFunctionError):
            RegexLF("email", "([")

    def test_value_set_case_insensitive(self):
        lf = ValueSetLF("status", ["Active", "Inactive"])
        column = Column("s", ["active", "ACTIVE", "inactive", "other"])
        assert lf.apply(column) == pytest.approx(0.75)

    def test_value_set_case_sensitive(self):
        lf = ValueSetLF("status", ["Active"], case_sensitive=True)
        assert lf.apply(Column("s", ["active"])) == 0.0

    def test_value_set_requires_values(self):
        with pytest.raises(LabelingFunctionError):
            ValueSetLF("status", [])


class TestExpectationSuiteLF:
    def test_success_fraction(self, salary_column):
        suite = ExpectationSuite(
            name="salary",
            expectations=[
                Expectation("values_between", {"min": 0, "max": 100_000}),
                Expectation("mean_between", {"min": 0, "max": 10}),
            ],
        )
        lf = ExpectationSuiteLF("salary", suite)
        assert lf.apply(salary_column) == pytest.approx(0.5)

    def test_empty_suite_rejected(self):
        with pytest.raises(LabelingFunctionError):
            ExpectationSuiteLF("salary", ExpectationSuite(name="empty"))


class TestSerialization:
    @pytest.mark.parametrize(
        "function",
        [
            ValueRangeLF("salary", 10, 20, name="r"),
            MeanRangeLF("salary", 10, 20),
            HeaderMatchLF("salary", ["income", "pay"]),
            CoOccurrenceLF("salary", ["name", "company"]),
            RegexLF("email", r"\w+@\w+"),
            ValueSetLF("status", ["a", "b"]),
            ExpectationSuiteLF(
                "salary",
                ExpectationSuite("s", [Expectation("values_between", {"min": 1, "max": 2})]),
            ),
        ],
    )
    def test_round_trip(self, function, salary_column):
        restored = labeling_function_from_dict(function.to_dict())
        assert type(restored) is type(function)
        assert restored.target_type == function.target_type
        context = LFContext()
        assert restored.apply(salary_column, context) == pytest.approx(
            function.apply(salary_column, context)
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(LabelingFunctionError):
            labeling_function_from_dict({"kind": "mystery", "target_type": "x"})


class TestLabelingFunctionStore:
    def test_add_and_query(self, salary_column):
        store = LabelingFunctionStore(
            [
                HeaderMatchLF("salary", ["income"]),
                ValueRangeLF("salary", 0, 100_000),
                HeaderMatchLF("city", ["town"], source="user"),
            ]
        )
        assert len(store) == 3
        assert store.target_types() == ["city", "salary"]
        assert len(store.for_type("salary")) == 2
        assert len(store.from_source("user")) == 1

    def test_score_column_keeps_best_per_type(self, salary_column):
        store = LabelingFunctionStore(
            [
                HeaderMatchLF("salary", ["income"]),           # fires at 1.0
                ValueRangeLF("salary", 0, 10),                 # fires at 0.0
                HeaderMatchLF("city", ["town"]),               # does not fire
            ]
        )
        scores = store.score_column(salary_column)
        assert scores == {"salary": 1.0}

    def test_rejects_non_lf(self):
        with pytest.raises(LabelingFunctionError):
            LabelingFunctionStore().add("not a labeling function")  # type: ignore[arg-type]

    def test_round_trip_dicts(self, salary_column):
        store = LabelingFunctionStore([HeaderMatchLF("salary", ["income"])])
        restored = LabelingFunctionStore.from_dicts(store.to_dicts())
        assert len(restored) == 1
        assert restored.score_column(salary_column) == {"salary": 1.0}
