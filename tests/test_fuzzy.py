"""Unit tests for fuzzy string similarity."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.matching.fuzzy import (
    combined_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_ratio,
    normalize_header,
    token_set_ratio,
    tokenize_header,
)


class TestNormalizeHeader:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("OrderDate", "order date"),
            ("order_date", "order date"),
            ("ORDER-DATE", "order date"),
            ("  Order   Date ", "order date"),
            ("customerID", "customer id"),
            ("", ""),
        ],
    )
    def test_variants_normalise_identically(self, raw, expected):
        assert normalize_header(raw) == expected

    def test_tokenize_drops_stop_tokens(self):
        assert tokenize_header("date of birth") == ["date", "birth"]


class TestLevenshtein:
    def test_identical(self):
        assert levenshtein_distance("abc", "abc") == 0
        assert levenshtein_ratio("abc", "abc") == 1.0

    def test_known_distances(self):
        assert levenshtein_distance("kitten", "sitting") == 3
        assert levenshtein_distance("", "abc") == 3
        assert levenshtein_distance("abc", "") == 3

    def test_symmetry(self):
        assert levenshtein_distance("salary", "celery") == levenshtein_distance("celery", "salary")

    def test_ratio_bounds(self):
        assert 0.0 <= levenshtein_ratio("abc", "xyz") <= 1.0
        assert levenshtein_ratio("", "") == 1.0


class TestJaro:
    def test_identical(self):
        assert jaro_similarity("salary", "salary") == 1.0

    def test_disjoint(self):
        assert jaro_similarity("abc", "xyz") == 0.0

    def test_empty(self):
        assert jaro_similarity("", "abc") == 0.0

    def test_known_value(self):
        # Classic example: MARTHA vs MARHTA ≈ 0.944.
        assert jaro_similarity("martha", "marhta") == pytest.approx(0.944, abs=1e-3)

    def test_winkler_prefix_boost(self):
        plain = jaro_similarity("salary", "salaries")
        boosted = jaro_winkler_similarity("salary", "salaries")
        assert boosted >= plain


class TestTokenSetRatio:
    def test_word_order_invariance(self):
        assert token_set_ratio("date of birth", "birth date") == 1.0

    def test_partial_overlap(self):
        score = token_set_ratio("customer name", "name")
        assert 0.4 < score < 1.0

    def test_misspelling_tolerance(self):
        assert token_set_ratio("custmer name", "customer name") > 0.8

    def test_disjoint_tokens(self):
        assert token_set_ratio("apple pie", "stock ticker") < 0.3

    def test_last_bit_is_hashseed_independent(self):
        """The unshared tokens' ratios are summed in one order whatever the
        interpreter's hash seed; on this pair set order once moved the last
        bit (0.8000000000000002 against 0.7999999999999999)."""
        code = (
            "from repro.matching.fuzzy import token_set_ratio; print(repr(token_set_ratio("
            "'abcx efghx jklmnopqrstuvwxyzxyz', 'abcd efghi jklmnopqrstuvwxyzabc')))"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
                capture_output=True,
                text=True,
                check=True,
                timeout=60,
            ).stdout
            for seed in ("0", "1")
        }
        assert len(outputs) == 1, outputs


class TestCombinedSimilarity:
    def test_exact_header_match(self):
        assert combined_similarity("zip_code", "Zip Code") == 1.0

    def test_synonym_like_similarity_is_high(self):
        assert combined_similarity("order date", "OrderDate") == 1.0
        assert combined_similarity("cust_name", "customer name") > 0.6

    def test_unrelated_headers_score_low(self):
        assert combined_similarity("salary", "ip address") < 0.6

    def test_empty_headers(self):
        assert combined_similarity("", "salary") == 0.0
        assert combined_similarity("___", "salary") == 0.0

    def test_bounds(self):
        for a, b in [("a", "b"), ("salary", "sal"), ("price", "prices")]:
            assert 0.0 <= combined_similarity(a, b) <= 1.0
