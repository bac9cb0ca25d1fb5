"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import string

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.aggregation import calibrate_tau, soft_majority_vote
from repro.core.datatypes import DataType, infer_column_type, parse_number
from repro.core.prediction import TypeScore, merge_scores
from repro.core.table import Column, Table
from repro.evaluation.metrics import PredictionRecord, evaluate_records
from repro.matching.embeddings import SubwordEmbedder
from repro.matching.fuzzy import (
    combined_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_ratio,
    token_set_ratio,
)
from repro.nn.functional import softmax
from repro.profiler.statistics import character_template, profile_column

# Text strategies kept printable so header normalisation is meaningful.
header_text = st.text(alphabet=string.ascii_letters + string.digits + " _-", min_size=0, max_size=24)
cell_text = st.one_of(
    st.none(),
    st.text(alphabet=string.printable.strip(), min_size=0, max_size=20),
    st.integers(-10**9, 10**9).map(str),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(lambda x: f"{x:.4f}"),
)


def sized_text(alphabet) -> st.SearchStrategy[str]:
    """Text whose length is drawn uniformly from 0–100, both sides of 64 bits."""
    return st.integers(0, 100).flatmap(
        lambda size: st.text(alphabet, min_size=size, max_size=size)
    )


# Pairs for the edit distance, both strings from one alphabet: three letters
# force long runs of matches, printable and non-ASCII text few.
distance_pairs = st.one_of(
    *(
        st.tuples(sized_text(alphabet), sized_text(alphabet))
        for alphabet in ("abc", string.printable, st.characters(min_codepoint=0x80))
    )
)


def reference_levenshtein(first: str, second: str) -> int:
    """Textbook dynamic-programming edit distance, the bit-parallel reference."""
    if first == second:
        return 0
    if not first:
        return len(second)
    if not second:
        return len(first)
    if len(first) < len(second):
        first, second = second, first
    previous = list(range(len(second) + 1))
    for i, char_a in enumerate(first, start=1):
        current = [i]
        for j, char_b in enumerate(second, start=1):
            insert_cost = current[j - 1] + 1
            delete_cost = previous[j] + 1
            substitute_cost = previous[j - 1] + (char_a != char_b)
            current.append(min(insert_cost, delete_cost, substitute_cost))
        previous = current
    return previous[-1]


class TestStringSimilarityProperties:
    @given(distance_pairs)
    @settings(max_examples=400, deadline=None)
    def test_levenshtein_distance_equals_dynamic_program(self, pair):
        first, second = pair
        expected = reference_levenshtein(first, second)
        assert levenshtein_distance(first, second) == expected
        assert levenshtein_distance(second, first) == expected

    @given(header_text, header_text)
    @settings(max_examples=150, deadline=None)
    def test_similarities_bounded_and_symmetric(self, first, second):
        for function in (combined_similarity, token_set_ratio, jaro_winkler_similarity, levenshtein_ratio):
            forward = function(first, second)
            backward = function(second, first)
            assert 0.0 <= forward <= 1.0
            assert forward == pytest.approx(backward, abs=1e-9)

    @given(header_text)
    @settings(max_examples=100, deadline=None)
    def test_self_similarity_is_maximal(self, text):
        assert levenshtein_distance(text, text) == 0
        if text.strip(" _-"):
            assert combined_similarity(text, text) == 1.0

    @given(header_text, header_text, header_text)
    @settings(max_examples=80, deadline=None)
    def test_levenshtein_triangle_inequality(self, a, b, c):
        assert levenshtein_distance(a, c) <= levenshtein_distance(a, b) + levenshtein_distance(b, c)


class TestEmbeddingProperties:
    @given(header_text)
    @settings(max_examples=60, deadline=None)
    def test_embeddings_are_unit_norm_or_zero(self, text):
        embedder = SubwordEmbedder(ngram_dim=32)
        vector = embedder.embed_text(text)
        norm = np.linalg.norm(vector)
        assert vector.shape == (32,)
        assert norm == pytest.approx(0.0, abs=1e-12) or norm == pytest.approx(1.0, rel=1e-6)

    @given(st.lists(st.lists(header_text, min_size=1, max_size=4), min_size=0, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_fit_never_crashes_and_dim_is_consistent(self, sentences):
        embedder = SubwordEmbedder(ngram_dim=16, context_dim=8)
        embedder.fit(sentences)
        assert embedder.embed_text("anything").shape == (embedder.dim,)


class TestColumnAndProfileProperties:
    @given(st.lists(cell_text, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_column_invariants(self, values):
        column = Column("col", values)
        assert 0.0 <= column.null_fraction() <= 1.0
        assert 0.0 <= column.unique_fraction() <= 1.0
        assert len(column.non_null_values()) <= len(column)
        assert column.data_type in DataType

    @given(st.lists(cell_text, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_profile_consistency(self, values):
        column = Column("col", values)
        profile = profile_column(column)
        assert profile.row_count == len(values)
        assert 0 <= profile.null_count <= profile.row_count
        assert profile.distinct_count <= profile.row_count
        if profile.is_numeric:
            assert profile.minimum <= profile.median <= profile.maximum

    @given(st.text(max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_character_template_stability(self, value):
        template = character_template(value)
        # Applying the template transform to a value twice is idempotent with
        # respect to digit/letter classes: digits never survive to the output.
        assert all(not ch.isdigit() or ch == "9" for ch in template)

    @given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_numeric_columns_parse_consistently(self, numbers):
        column = Column("n", [str(value) for value in numbers])
        parsed = column.numeric_values()
        assert parsed == [float(value) for value in numbers]
        assert infer_column_type(column.values) in (DataType.INTEGER, DataType.FLOAT)


class TestParseNumberProperties:
    @given(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_plain_floats(self, value):
        parsed = parse_number(f"{value:.6f}")
        assert parsed == pytest.approx(value, rel=1e-6, abs=1e-6)

    @given(st.integers(-10**15, 10**15))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_integers_with_separators(self, value):
        parsed = parse_number(f"{value:,}")
        assert parsed == float(value)


class TestAggregationProperties:
    type_names = st.sampled_from(["city", "salary", "date", "email", "country"])
    score_lists = st.lists(
        st.tuples(type_names, st.floats(0.0, 1.0)).map(lambda t: TypeScore(t[1], t[0])),
        max_size=5,
    )

    @given(st.dictionaries(st.sampled_from(["s1", "s2", "s3"]), score_lists, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_soft_majority_vote_bounds_and_order(self, step_scores):
        combined = soft_majority_vote(step_scores)
        confidences = [score.confidence for score in combined]
        assert all(0.0 <= confidence <= 1.0 for confidence in confidences)
        assert confidences == sorted(confidences, reverse=True)
        # No type appears twice.
        names = [score.type_name for score in combined]
        assert len(names) == len(set(names))

    @given(st.lists(score_lists, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_merge_scores_keeps_max(self, lists):
        merged = merge_scores(lists)
        for score in merged:
            observed = [s.confidence for scores in lists for s in scores if s.type_name == score.type_name]
            assert score.confidence == pytest.approx(max(observed))

    @given(
        st.lists(st.tuples(st.floats(0.0, 1.0), st.booleans()), min_size=1, max_size=60),
        st.floats(0.5, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_calibrate_tau_meets_target_when_possible(self, pairs, target):
        grid_size = 101
        tau = calibrate_tau(pairs, target_precision=target, grid_size=grid_size)
        assert 0.0 <= tau <= 1.0

        def precision_at(threshold):
            retained = [correct for confidence, correct in pairs if confidence >= threshold]
            return (sum(retained) / len(retained)) if retained else None

        achieved = precision_at(tau)
        # The calibration searches the same fixed grid; it must reach the
        # target whenever *some* grid threshold does.
        achievable_on_grid = any(
            (precision_at(i / (grid_size - 1)) or 0.0) >= target for i in range(grid_size)
        )
        if achievable_on_grid:
            assert achieved is not None and achieved >= target - 1e-9


class TestSoftmaxProperties:
    @given(
        st.lists(
            st.lists(st.floats(-50, 50), min_size=2, max_size=6),
            min_size=1,
            max_size=8,
        ).filter(lambda rows: len({len(row) for row in rows}) == 1)
    )
    @settings(max_examples=80, deadline=None)
    def test_softmax_rows_are_distributions(self, rows):
        probabilities = softmax(np.array(rows, dtype=np.float64))
        assert np.all(probabilities >= 0)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0, rtol=1e-9)


class TestEvaluationProperties:
    records = st.lists(
        st.builds(
            PredictionRecord,
            gold_type=st.sampled_from(["city", "salary", "date"]),
            predicted_type=st.sampled_from(["city", "salary", "date", "unknown"]),
            confidence=st.floats(0.0, 1.0),
            abstained=st.booleans(),
        ),
        max_size=50,
    )

    @given(records)
    @settings(max_examples=100, deadline=None)
    def test_metric_bounds(self, records):
        metrics = evaluate_records(records)
        for value in (metrics.accuracy, metrics.precision, metrics.coverage, metrics.macro_f1, metrics.weighted_f1):
            assert 0.0 <= value <= 1.0
        assert metrics.correct <= metrics.attempted <= metrics.total
        # Accuracy can never exceed coverage (you cannot be right about a
        # column you refused to label).
        assert metrics.accuracy <= metrics.coverage + 1e-12


class TestTableProperties:
    @given(
        st.integers(1, 6),
        st.integers(0, 8),
        st.integers(0, 10**6),
    )
    @settings(max_examples=50, deadline=None)
    def test_table_row_column_round_trip(self, num_columns, num_rows, seed):
        import random

        rng = random.Random(seed)
        header = [f"col_{i}" for i in range(num_columns)]
        rows = [[str(rng.randint(0, 99)) for _ in range(num_columns)] for _ in range(num_rows)]
        table = Table.from_rows(header, rows)
        assert table.shape == (num_rows, num_columns)
        round_tripped_header, round_tripped_rows = table.to_rows()
        assert round_tripped_header == header
        assert round_tripped_rows == rows
