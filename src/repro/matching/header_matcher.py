"""Header-matching pipeline step (step 1 of Fig. 4).

The cheapest and fastest step of SigmaTyper's cascade: the column header is
compared against the labels and synonyms of the semantic type ontology.

* **Syntactic matching** uses the fuzzy string similarities from
  :mod:`repro.matching.fuzzy`; per the paper, an (essentially) exact match
  sets the confidence to the maximum of 100%.  The shared
  :class:`~repro.matching.fuzzy.HeaderScreen` first bounds the Levenshtein
  ratio, Jaro–Winkler and token-set ratio of the header against every alias
  from character and token overlaps.  Only the aliases whose bound reaches
  the threshold are scored in Python: with ``combined_similarity`` when the
  Levenshtein or token bound does, and with Jaro–Winkler alone when only its
  bound does, since their maximum then is Jaro–Winkler.  The screen changes
  how many pairs are scored, never a score.
* **Semantic matching** embeds the column name and the ontology labels with
  the :class:`~repro.matching.embeddings.SubwordEmbedder` (the FastText
  substitute) and uses cosine similarity as the confidence.

The step optionally filters candidates whose expected data kind contradicts
the column's structural type (a numeric column is never a ``city``), one of
the pragmatic, transparent heuristics the framework advocates combining with
learned models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.datatypes import DataType
from repro.core.errors import ConfigurationError
from repro.core.ontology import DataKind, SemanticType, TypeOntology, UNKNOWN_TYPE
from repro.core.pipeline import PipelineStep
from repro.core.prediction import TypeScore
from repro.core.table import Column, Table
from repro.matching.embeddings import SubwordEmbedder
from repro.matching.fuzzy import (
    HeaderScreen,
    combined_similarity,
    jaro_winkler_similarity,
    normalize_header,
)

__all__ = ["HeaderMatcherConfig", "HeaderMatcher"]

@dataclass
class HeaderMatcherConfig:
    """Tuning knobs for the header-matching step."""

    #: Similarity above which a syntactic match is reported at all.
    syntactic_threshold: float = 0.72
    #: Similarity treated as an exact syntactic match (confidence 1.0).
    exact_threshold: float = 0.95
    #: Minimum cosine similarity for the semantic (embedding) channel.
    semantic_threshold: float = 0.55
    #: Keep at most this many candidates per column.
    top_k: int = 5
    #: Drop candidates whose expected data kind contradicts the column values.
    filter_by_data_kind: bool = True

    def validate(self) -> None:
        if not 0.0 <= self.syntactic_threshold <= 1.0:
            raise ConfigurationError("syntactic_threshold must be in [0, 1]")
        if not 0.0 <= self.semantic_threshold <= 1.0:
            raise ConfigurationError("semantic_threshold must be in [0, 1]")
        if self.exact_threshold < self.syntactic_threshold:
            raise ConfigurationError("exact_threshold must be >= syntactic_threshold")
        if self.top_k < 1:
            raise ConfigurationError("top_k must be at least 1")


_KIND_COMPATIBILITY: dict[DataKind, frozenset[DataType]] = {
    DataKind.NUMERIC: frozenset({DataType.INTEGER, DataType.FLOAT, DataType.MIXED, DataType.EMPTY}),
    DataKind.TEXTUAL: frozenset({DataType.TEXT, DataType.MIXED, DataType.EMPTY, DataType.BOOLEAN}),
    DataKind.TEMPORAL: frozenset({DataType.DATE, DataType.DATETIME, DataType.INTEGER, DataType.TEXT, DataType.MIXED, DataType.EMPTY}),
    DataKind.BOOLEAN: frozenset({DataType.BOOLEAN, DataType.INTEGER, DataType.TEXT, DataType.MIXED, DataType.EMPTY}),
}


class HeaderMatcher(PipelineStep):
    """Syntactic + semantic matching of column headers against the ontology."""

    name = "header_matching"
    cost_rank = 0

    def __init__(
        self,
        ontology: TypeOntology,
        embedder: SubwordEmbedder | None = None,
        config: HeaderMatcherConfig | None = None,
    ) -> None:
        self.ontology = ontology
        self.config = config or HeaderMatcherConfig()
        self.config.validate()
        self.embedder = embedder
        self._candidate_types = self._leaf_types(ontology)
        self._alias_index: dict[str, list[str]] = {}
        for semantic_type in self._candidate_types:
            for alias in semantic_type.all_names():
                self._alias_index.setdefault(alias, []).append(semantic_type.name)
        # Normalised once.  An alias that normalises to "" is left out:
        # combined_similarity is 0.0 against everything for it.
        self._alias_entries = [
            (normalize_header(alias), type_names)
            for alias, type_names in self._alias_index.items()
            if normalize_header(alias)
        ]
        self._alias_screen = HeaderScreen([alias for alias, _ in self._alias_entries])
        self._type_embeddings: dict[str, object] = {}
        #: Matrix form of the type embeddings: row i is the L2-normalised
        #: embedding of ``self._type_names[i]``.  One matrix-vector product
        #: scores a header against every ontology type at once.
        self._type_names: list[str] = []
        self._type_matrix: np.ndarray | None = None
        if self.embedder is not None:
            self._compute_type_embeddings()
        # Header matching is pure string work: identical (header, data type)
        # pairs always produce the same candidates, and real corpora repeat
        # headers constantly, so a small cache makes this step as cheap as its
        # position at the front of the cascade assumes.  The raw channel
        # scores additionally cache on the header alone, so the same header
        # over columns of different data types shares the string matching.
        self._cache: dict[tuple[str, object], list[TypeScore]] = {}
        self._score_cache: dict[str, dict[str, float]] = {}

    # ---------------------------------------------------------------- factory
    @classmethod
    def with_trained_embedder(
        cls,
        ontology: TypeOntology,
        extra_sentences: Iterable[Sequence[str]] = (),
        config: HeaderMatcherConfig | None = None,
    ) -> "HeaderMatcher":
        """Build a matcher whose embedder is fitted on the ontology vocabulary.

        Each semantic type contributes one training "sentence" containing its
        label and synonyms; callers can add extra sentences (e.g. observed
        corpus headers grouped by ground-truth type) to enrich the space.
        """
        sentences: list[list[str]] = []
        for semantic_type in cls._leaf_types(ontology):
            sentences.append([semantic_type.label, *semantic_type.synonyms, semantic_type.name])
        sentences.extend([list(sentence) for sentence in extra_sentences])
        embedder = SubwordEmbedder().fit(sentences)
        return cls(ontology, embedder=embedder, config=config)

    @staticmethod
    def _leaf_types(ontology: TypeOntology) -> list[SemanticType]:
        """Predictable candidates: leaf types, excluding the reserved unknown."""
        leaves = []
        for semantic_type in ontology:
            if semantic_type.name == UNKNOWN_TYPE:
                continue
            if ontology.children(semantic_type.name):
                continue
            leaves.append(semantic_type)
        return leaves

    def _syntactic_scores(self, header: str) -> dict[str, float]:
        """Best syntactic confidence per type for one normalised header.

        Identical to scoring ``combined_similarity(header, alias)`` against
        every alias: the screen only skips pairs whose provable upper
        bounds are all below the reporting threshold, a survivor that passes
        only the Jaro–Winkler bound is scored with
        ``jaro_winkler_similarity(header, alias)`` (what the maximum would
        be), and every other survivor with ``combined_similarity`` itself.
        An exact alias has a Levenshtein bound of 1, so it takes that path.
        """
        threshold = self.config.syntactic_threshold
        _, survivors, needs_full = self._alias_screen.survivors([header], threshold)
        best: dict[str, float] = {}
        for index, full in zip(survivors.tolist(), needs_full.tolist(), strict=True):
            alias, type_names = self._alias_entries[index]
            if full:
                similarity = combined_similarity(header, alias)
            else:
                similarity = jaro_winkler_similarity(header, alias)
            if similarity < threshold:
                continue
            confidence = 1.0 if similarity >= self.config.exact_threshold else similarity
            for type_name in type_names:
                if confidence > best.get(type_name, 0.0):
                    best[type_name] = confidence
        return best

    def _compute_type_embeddings(self) -> None:
        assert self.embedder is not None
        for semantic_type in self._candidate_types:
            text = " ".join([semantic_type.label, *semantic_type.synonyms])
            self._type_embeddings[semantic_type.name] = self.embedder.embed_text(text)
        self._type_names = list(self._type_embeddings)
        self._type_matrix = (
            np.vstack([self._type_embeddings[name] for name in self._type_names])
            if self._type_names
            else np.zeros((0, self.embedder.dim), dtype=np.float64)
        )

    # ------------------------------------------------------------- prediction
    def predict_column(self, column: Column, table: Table | None = None) -> list[TypeScore]:
        """Rank candidate types for one column based on its header alone."""
        header = normalize_header(column.name)
        if not header:
            return []
        # The first data_type read runs the column's whole value analysis.
        data_type = column.data_type if self.config.filter_by_data_kind else None
        cache_key = (header, data_type)
        cached = self._cache.get(cache_key)
        if cached is not None:
            return list(cached)
        best = dict(self._channel_scores(header))

        if data_type is not None and best:
            best = self._filter_by_kind(data_type, best)

        scores = [TypeScore(confidence=c, type_name=t) for t, c in best.items()]
        scores.sort(key=lambda s: (-s.confidence, s.type_name))
        result = scores[: self.config.top_k]
        self._cache[cache_key] = result
        return list(result)

    def predict_columns(
        self, table: Table, column_indices: Sequence[int] | None = None
    ) -> dict[int, list[TypeScore]]:
        """Predict candidates for the addressed columns of *table*."""
        indices = range(table.num_columns) if column_indices is None else column_indices
        return {index: self.predict_column(table.columns[index], table) for index in indices}

    # ----------------------------------------------------------------- helpers
    def _channel_scores(self, header: str) -> dict[str, float]:
        """Merged syntactic + semantic scores for one normalised header.

        Cached per header (the channels do not depend on the column values),
        so columns repeating a header — even with different data types — do
        the string and embedding work once.
        """
        cached = self._score_cache.get(header)
        if cached is not None:
            return cached

        best = self._syntactic_scores(header)

        # Semantic channel: embeddings are L2-normalised, so one
        # matrix-vector product against the precomputed type matrix yields
        # every cosine similarity at once.
        if self.embedder is not None and self._type_matrix is not None and len(self._type_names):
            header_vector = self.embedder.embed_text(header)
            similarities = self._type_matrix @ header_vector
            for type_name, raw in zip(self._type_names, similarities):
                similarity = max(float(raw), 0.0)
                if similarity < self.config.semantic_threshold:
                    continue
                if similarity > best.get(type_name, 0.0):
                    best[type_name] = similarity

        self._score_cache[header] = best
        return best

    def _filter_by_kind(
        self, column_type: DataType, candidates: dict[str, float]
    ) -> dict[str, float]:
        """Drop candidates whose expected data kind contradicts the values."""
        if column_type is DataType.EMPTY:
            return candidates
        filtered: dict[str, float] = {}
        for type_name, confidence in candidates.items():
            kind = self.ontology.get(type_name).kind
            allowed = _KIND_COMPATIBILITY.get(kind)
            if allowed is None or column_type in allowed:
                filtered[type_name] = confidence
        return filtered
