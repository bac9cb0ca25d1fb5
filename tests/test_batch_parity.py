"""Parity tests for the batched inference fast path.

The cascade's batch path (``extract_many``, ``predict_proba_batch``, batched
header matching) must be a pure optimisation: per-column features are bitwise
identical to the one-at-a-time path, ranked predictions are identical, and
probabilities agree to floating-point noise (a batched matrix product may
differ from a per-row product in the last ulp).  The shared header screen
(:class:`~repro.matching.fuzzy.HeaderScreen`) never changes a header score or
a labeling-function vote.  The memoized profile/value layer on
:class:`~repro.core.table.Column` must honour explicit invalidation.
"""

from __future__ import annotations

import string

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.ontology import SemanticType, TypeOntology
from repro.core.table import Column, Table
from repro.embedding_model.features import ColumnFeaturizer
from repro.embedding_model.step import TableEmbeddingStep
from repro.lookup import labeling_functions
from repro.lookup.labeling_functions import CoOccurrenceLF, HeaderMatchLF, LFContext
from repro.matching.embeddings import SubwordEmbedder
from repro.matching.fuzzy import (
    HeaderScreen,
    combined_similarity,
    levenshtein_ratio,
    normalize_header,
    token_set_ratio,
)
from repro.matching.header_matcher import HeaderMatcher
from repro.profiler.statistics import profile_column

#: Characters a normalised header can contain.
_HEADER_CHARS = string.ascii_lowercase + string.digits + " "
#: Thresholds of the screen's three users: the matcher's reporting threshold,
#: CoOccurrenceLF's and HeaderMatchLF's defaults, and one above them all.
_THRESHOLDS = (0.72, 0.8, 0.85, 0.9)
#: Raw headers that normalise to "" or to stop words only.
_EMPTY_HEADERS = ("#", "%", "__", "---", " ")
_STOP_WORD_HEADERS = ("the", "Of The", "no", "a_an", "DE-der")


def _tables(corpus, limit=6):
    return list(corpus)[:limit]


def _rows(tables):
    return [(column, table) for table in tables for column in table.columns]


def _unscreened_scores(matcher, header):
    """The syntactic channel without the screen: every alias, every measure."""
    best = {}
    for alias, type_names in matcher._alias_index.items():
        similarity = combined_similarity(header, alias)
        if similarity < matcher.config.syntactic_threshold:
            continue
        confidence = 1.0 if similarity >= matcher.config.exact_threshold else similarity
        for type_name in type_names:
            if confidence > best.get(type_name, 0.0):
                best[type_name] = confidence
    return best


def _assert_screen_is_exact(screen, headers, threshold):
    """The shared screen drops only pairs below *threshold*, sends to
    Jaro–Winkler alone only pairs whose other two measures miss it, and
    bounds a batch of headers as it bounds each one alone."""
    rows, columns, full = screen.survivors(headers, threshold)
    kept = dict(zip(zip(rows.tolist(), columns.tolist()), full.tolist(), strict=True))
    for row, header in enumerate(headers):
        _, alone, alone_full = screen.survivors([header], threshold)
        assert dict(zip(alone.tolist(), alone_full.tolist(), strict=True)) == {
            column: needs_full for (kept_row, column), needs_full in kept.items() if kept_row == row
        }, header
        for column, alias in enumerate(screen.aliases):
            if (row, column) not in kept:
                assert combined_similarity(header, alias) < threshold, (header, alias)
            elif not kept[row, column]:
                assert levenshtein_ratio(header, alias) < threshold, (header, alias)
                assert token_set_ratio(header, alias) < threshold, (header, alias)


def _unscreened_header_vote(function, name):
    """HeaderMatchLF without the screen: the best similarity, thresholded."""
    header = normalize_header(name)
    if not header:
        return 0.0
    best = max(combined_similarity(header, candidate) for candidate in function.headers)
    return best if best >= function.threshold else 0.0


def _unscreened_cooccurrence_vote(function, column, table, column_index=None, neighbor_types=()):
    """CoOccurrenceLF without the screen: every required type not among the
    neighbour types matches another column's header at the threshold."""
    for required in function.required_types:
        if required in neighbor_types:
            continue
        text = required.replace("_", " ")
        if not any(
            index != column_index
            and other is not column
            and combined_similarity(other.name, text) >= function.header_threshold
            for index, other in enumerate(table.columns)
        ):
            return 0.0
    return 1.0


@st.composite
def _raw_headers(draw, candidates):
    """Raw column names around *candidates*: near misses, styled like real
    headers (``Snake_Case``, ``CamelCase``, upper case), plus names that
    normalise to "" or to stop words only."""
    kind = draw(st.sampled_from(("near", "near", "near", "empty", "stop", "text")))
    if kind == "empty":
        return draw(st.sampled_from(_EMPTY_HEADERS))
    if kind == "stop":
        return draw(st.sampled_from(_STOP_WORD_HEADERS))
    if kind == "text":
        return draw(st.text(string.ascii_letters + string.digits + " _-#", max_size=20))
    header = draw(_near_alias_headers(candidates))
    style = draw(st.sampled_from(("plain", "snake", "camel", "upper")))
    if style == "snake":
        return header.replace(" ", "_").title()
    if style == "camel":
        return "".join(token.capitalize() for token in header.split())
    return header.upper() if style == "upper" else header


@st.composite
def _near_alias_headers(draw, aliases):
    """Headers around the screen's bounds: noise, or an alias shuffled, cut or
    kept whole, then edited (always when kept whole)."""
    alias = draw(st.sampled_from(aliases))
    kind = draw(st.sampled_from(("edit", "shuffle", "truncate", "random")))
    if kind == "random":
        return draw(st.text(_HEADER_CHARS, min_size=1, max_size=30))
    if kind == "shuffle":
        tokens = alias.split() + draw(st.lists(st.sampled_from(aliases), max_size=1))
        header = " ".join(draw(st.permutations(tokens)))
    elif kind == "truncate":
        header = alias[: draw(st.integers(1, len(alias)))]
    else:
        header = alias
    for _ in range(draw(st.integers(1 if kind == "edit" else 0, 3))):
        position = draw(st.integers(0, len(header)))
        char = draw(st.sampled_from(_HEADER_CHARS))
        edit = draw(st.sampled_from(("insert", "delete", "substitute")))
        if edit == "insert":
            header = header[:position] + char + header[position:]
        elif edit == "delete":
            header = header[:position] + header[position + 1 :]
        else:
            header = header[:position] + char + header[position + 1 :]
    return header


@pytest.fixture(scope="module")
def syntactic_matcher(ontology):
    return HeaderMatcher(ontology)


class TestFeaturizerParity:
    def test_extract_many_matches_extract_bitwise(self, eval_corpus):
        """Batch featurization equals the per-column path, bit for bit.

        Two independent featurizer instances are used so the comparison also
        proves that cache warmth (profiles, phrase embeddings, shape masks)
        never changes a value.
        """
        rows = _rows(_tables(eval_corpus))
        batch_featurizer = ColumnFeaturizer()
        single_featurizer = ColumnFeaturizer()

        batched = batch_featurizer.extract_many(rows)
        singles = np.vstack(
            [single_featurizer.extract(column, table) for column, table in rows]
        )
        assert batched.shape == singles.shape
        assert np.array_equal(batched, singles)

    def test_extract_samples_once_per_column(self, eval_corpus):
        """extract() issues exactly one value-sampling call per column."""
        table = _tables(eval_corpus, limit=1)[0]
        column = table.columns[0].copy()
        calls = []
        original = Column.sample

        def counting_sample(self, k, seed=None):
            calls.append((k, seed))
            return original(self, k, seed=seed)

        Column.sample = counting_sample
        try:
            ColumnFeaturizer().extract(column, table)
        finally:
            Column.sample = original
        assert len(calls) == 1


class TestClassifierParity:
    def test_predict_proba_batch_close_to_single(self, trained_classifier, eval_corpus):
        rows = _rows(_tables(eval_corpus, limit=4))
        batched = trained_classifier.predict_proba_batch(rows)
        vocabulary = trained_classifier.vocabulary
        assert batched.shape == (len(rows), len(vocabulary))
        for row_index, (column, table) in enumerate(rows):
            single = trained_classifier.predict_proba(column, table)
            single_vector = np.array([single[t] for t in vocabulary.types])
            np.testing.assert_allclose(
                batched[row_index], single_vector, rtol=1e-9, atol=1e-12
            )

    def test_batch_predictions_identical_to_single(self, trained_classifier, eval_corpus):
        """The ranked candidates (names and order) match the per-column path."""
        rows = _rows(_tables(eval_corpus, limit=4))
        batched = trained_classifier.predict_columns_batch(rows, top_k=5)
        for (column, table), ranked in zip(rows, batched):
            single = trained_classifier.predict_column(column, table, top_k=5)
            assert [s.type_name for s in ranked] == [s.type_name for s in single]
            np.testing.assert_allclose(
                [s.confidence for s in ranked],
                [s.confidence for s in single],
                rtol=1e-9,
                atol=1e-12,
            )

    def test_embedding_step_uses_batch_path(self, trained_classifier, eval_corpus):
        table = _tables(eval_corpus, limit=1)[0]
        step = TableEmbeddingStep(trained_classifier)
        results = step.predict_columns(table)
        assert sorted(results) == list(range(table.num_columns))
        for index, ranked in results.items():
            single = trained_classifier.predict_column(
                table.columns[index], table, top_k=step.top_k
            )
            assert [s.type_name for s in ranked] == [s.type_name for s in single]


class TestHeaderMatcherParity:
    def test_batched_header_matching_identical(self, ontology, eval_corpus):
        """Table-at-a-time matching equals fresh per-column matching exactly."""
        tables = _tables(eval_corpus)
        batch_matcher = HeaderMatcher.with_trained_embedder(ontology)
        fresh_matcher = HeaderMatcher(
            ontology, embedder=batch_matcher.embedder, config=batch_matcher.config
        )
        for table in tables:
            batched = batch_matcher.predict_columns(table)
            for index, column in enumerate(table.columns):
                assert batched[index] == fresh_matcher.predict_column(column, table)

    def test_alias_screen_is_exact(self, ontology):
        """The vectorized candidate screen never changes syntactic scores.

        Compares the screened scorer against the unscreened reference loop
        (score every alias with combined_similarity) over headers designed to
        stress every screen branch: exact aliases, near-misses, token
        reorderings, abbreviations, and unrelated noise.
        """
        matcher = HeaderMatcher.with_trained_embedder(ontology)
        headers = [
            "salary", "Salaries", "anual_salary", "customer name", "name of customer",
            "CUST_NM", "birth date", "date_of_birth", "dt", "email adress",
            "e-mail", "zip", "zipcode", "phone number", "compny", "citty",
            "qty", "x", "foobarbaz", "latitude longitude", "user id",
        ]
        headers += list(matcher._alias_index)[:40]
        normalized_headers = []
        for header in headers:
            normalized = normalize_header(header)
            if not normalized:
                continue
            normalized_headers.append(normalized)
            assert matcher._syntactic_scores(normalized) == _unscreened_scores(
                matcher, normalized
            ), header
        threshold = matcher.config.syntactic_threshold
        _assert_screen_is_exact(matcher._alias_screen, normalized_headers, threshold)

    def test_alias_screen_is_exact_for_aliases_without_informative_tokens(self):
        """A stop-word-only alias has no tokens: its token-set ratio is 1 against
        a stop-word-only header and 0 against any other, screened or not."""
        ontology = TypeOntology(
            [
                SemanticType("number", synonyms=("no", "num")),
                SemanticType("city", synonyms=("the",)),
            ]
        )
        matcher = HeaderMatcher(ontology)
        headers = ["no", "the", "of the", "no x", "num", "number", "the city", "x"]
        for header in headers:
            assert matcher._syntactic_scores(header) == _unscreened_scores(
                matcher, header
            ), header
        assert matcher._syntactic_scores("of the") == {"number": 1.0, "city": 1.0}
        for threshold in _THRESHOLDS:
            _assert_screen_is_exact(matcher._alias_screen, headers, threshold)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_alias_screen_is_exact_on_generated_headers(self, syntactic_matcher, data):
        """Screened scores equal the unscreened ones, and the Jaro–Winkler-only
        path is taken only where the other two measures miss the threshold."""
        matcher = syntactic_matcher
        aliases = [alias for alias, _ in matcher._alias_entries]
        header = normalize_header(data.draw(_near_alias_headers(aliases), label="header"))
        assume(header)
        assert matcher._syntactic_scores(header) == _unscreened_scores(matcher, header)
        threshold = matcher.config.syntactic_threshold
        _, survivors, needs_full = matcher._alias_screen.survivors([header], threshold)
        for index, full in zip(survivors.tolist(), needs_full.tolist(), strict=True):
            if full:
                continue
            alias = aliases[index]
            assert levenshtein_ratio(header, alias) < threshold, alias
            assert token_set_ratio(header, alias) < threshold, alias

    def test_type_matrix_rows_are_normalised_embeddings(self, ontology):
        matcher = HeaderMatcher.with_trained_embedder(ontology)
        assert matcher._type_matrix is not None
        assert matcher._type_matrix.shape[0] == len(matcher._type_names)
        for row, name in zip(matcher._type_matrix, matcher._type_names):
            assert np.array_equal(row, np.asarray(matcher._type_embeddings[name]))
            norm = np.linalg.norm(row)
            assert norm == 0.0 or norm == pytest.approx(1.0)


class TestLabelingFunctionScreenParity:
    """HeaderMatchLF and CoOccurrenceLF score through the shared screen and
    vote exactly as the unscreened formulas do."""

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_header_match_lf_equals_unscreened(self, syntactic_matcher, data):
        aliases = [alias for alias, _ in syntactic_matcher._alias_entries]
        candidates = data.draw(
            st.lists(st.sampled_from(aliases) | _raw_headers(aliases), min_size=1, max_size=3),
            label="candidates",
        )
        assume(any(normalize_header(candidate) for candidate in candidates))
        threshold = data.draw(st.sampled_from(_THRESHOLDS), label="threshold")
        function = HeaderMatchLF("target", candidates, threshold=threshold)
        names = data.draw(st.lists(_raw_headers(function.headers), min_size=1, max_size=12), label="names")
        columns = [(Column(name, ["x"]), None) for name in names]
        expected = [_unscreened_header_vote(function, name) for name in names]
        assert function.apply_many(columns) == expected
        assert [function.apply(column) for column, _ in columns] == expected

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_cooccurrence_lf_equals_unscreened(self, syntactic_matcher, data):
        type_names = [semantic_type.name for semantic_type in syntactic_matcher._candidate_types]
        required = data.draw(
            st.lists(
                st.sampled_from(type_names) | st.sampled_from(("__", "the", "no_of", "of_the_id")),
                min_size=1,
                max_size=3,
            ),
            label="required",
        )
        threshold = data.draw(st.sampled_from(_THRESHOLDS), label="threshold")
        function = CoOccurrenceLF("target", required, header_threshold=threshold)
        texts = [name.replace("_", " ") for name in function.required_types]
        tables = [
            Table([Column(name, ["x"]) for name in names], name=f"t{index}")
            for index, names in enumerate(
                data.draw(
                    st.lists(st.lists(_raw_headers(texts), min_size=1, max_size=6), min_size=1, max_size=3),
                    label="tables",
                )
            )
        ]
        columns = [(column, table) for table in tables for column in table.columns]
        columns.append((Column("loose", ["x"]), None))
        assert function.apply_many(columns) == [
            0.0 if table is None else _unscreened_cooccurrence_vote(function, column, table)
            for column, table in columns
        ]
        known = frozenset(function.required_types[:1])
        for table in tables:
            for index, column in enumerate(table.columns):
                for neighbor_types in (frozenset(), known):
                    context = LFContext(table=table, column_index=index, neighbor_types=neighbor_types)
                    assert function.apply(column, context) == _unscreened_cooccurrence_vote(
                        function, column, table, index, neighbor_types
                    )

    def test_far_headers_are_never_scored(self, monkeypatch):
        """Headers that share too little with every candidate are screened
        out: the functions vote 0 without one similarity call."""
        calls = []

        def counting_similarity(first, second):
            calls.append((first, second))
            return combined_similarity(first, second)

        monkeypatch.setattr(labeling_functions, "combined_similarity", counting_similarity)
        table = Table(
            [Column(name, ["x"]) for name in ("qty", "zzz", "Vx_7", "#", "the")], name="far"
        )
        columns = [(column, table) for column in table.columns]
        header_rule = HeaderMatchLF("customer_id", ["customer identifier"])
        co_occurrence = CoOccurrenceLF("salary", ["company", "job_title"])
        assert header_rule.apply_many(columns) == [0.0] * len(columns)
        assert co_occurrence.apply_many(columns) == [0.0] * len(columns)
        assert calls == []

    def test_screen_is_exact_at_float_ties(self):
        """A bound that mathematically equals its measure may round an ulp
        below it; the screen still counts it as reaching the threshold."""
        # One substitution in three characters: levenshtein_ratio is
        # 1 - 1/3 = 0.6666666666666667, its bound 2/3 = 0.6666666666666666.
        threshold = levenshtein_ratio("abc", "abd")
        assert 2 / 3 < threshold
        _, columns, needs_full = HeaderScreen(["abd"]).survivors(["abc"], threshold)
        assert columns.tolist() == [0]
        assert needs_full.tolist() == [True]


class TestEmbedderCaches:
    def test_phrase_cache_hits_return_same_vector(self):
        embedder = SubwordEmbedder()
        first = embedder.embed_text("customer name")
        second = embedder.embed_text("customer name")
        assert first is second  # cached object, not a recomputation

    def test_fit_invalidates_phrase_cache(self):
        embedder = SubwordEmbedder(ngram_dim=32, context_dim=8)
        before = embedder.embed_text("salary")
        assert before.shape == (32,)
        embedder.fit([["salary", "income"], ["city", "town"]])
        after = embedder.embed_text("salary")
        assert after.shape == (40,)

    def test_most_similar_uses_cached_candidate_matrix(self):
        embedder = SubwordEmbedder()
        candidates = ["salaries", "country", "price"]
        first = embedder.most_similar("salary", candidates, top_k=3)
        assert len(embedder._candidate_cache) == 1
        second = embedder.most_similar("salary", candidates, top_k=3)
        assert first == second
        assert first[0][0] == "salaries"


class TestProfileMemoization:
    def test_profile_is_memoized_per_column(self):
        column = Column("status", ["Active", "Inactive", "Active", None])
        first = profile_column(column)
        assert profile_column(column) is first

    def test_invalidate_cache_refreshes_profile_and_views(self):
        column = Column("status", ["Active", "Inactive"])
        stale_profile = profile_column(column)
        assert stale_profile.row_count == 2
        assert column.text_values() == ["Active", "Inactive"]

        column.values.append("Pending")
        # Derived state is memoized: an explicit invalidation is required.
        assert profile_column(column) is stale_profile
        column.invalidate_cache()

        fresh_profile = profile_column(column)
        assert fresh_profile is not stale_profile
        assert fresh_profile.row_count == 3
        assert fresh_profile.distinct_count == 3
        assert column.text_values() == ["Active", "Inactive", "Pending"]

    def test_sample_cache_is_keyed_by_arguments(self):
        column = Column("x", [str(i) for i in range(100)])
        a = column.sample(10, seed=1)
        b = column.sample(10, seed=2)
        assert column.sample(10, seed=1) is a
        assert a != b

    def test_copies_do_not_share_caches(self):
        column = Column("x", ["1", "2", "3"])
        profile_column(column)
        clone = column.copy()
        clone.values.append("4")
        assert profile_column(clone).row_count == 4
        assert profile_column(column).row_count == 3


class TestBulkAnnotation:
    def test_annotate_corpus_matches_per_table_annotate(self, pretrained_typer, eval_corpus):
        tables = _tables(eval_corpus, limit=4)
        bulk = pretrained_typer.annotate_corpus(tables)
        assert len(bulk) == len(tables)
        for table, bulk_prediction in zip(tables, bulk):
            single = pretrained_typer.annotate(table)
            assert [c.predicted_type for c in bulk_prediction.columns] == [
                c.predicted_type for c in single.columns
            ]
            assert [c.abstained for c in bulk_prediction.columns] == [
                c.abstained for c in single.columns
            ]

    def test_full_ontology_parity_smoke(self, pretrained_typer):
        """A fresh synthetic table annotated twice gives identical results."""
        table = Table.from_columns_dict(
            {
                "Name": ["Ann Li", "Bo Chen", "Cy Dee"],
                "City": ["Paris", "Berlin", "Madrid"],
                "Total": ["12.5", "99.0", "4.25"],
            },
            name="parity-smoke",
        )
        first = pretrained_typer.annotate(table)
        second = pretrained_typer.annotate(table)
        assert [c.predicted_type for c in first.columns] == [
            c.predicted_type for c in second.columns
        ]
        assert [c.scores for c in first.columns] == [c.scores for c in second.columns]
