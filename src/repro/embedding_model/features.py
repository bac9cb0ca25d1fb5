"""Column and table-context featurization for the learned model.

The paper's third pipeline step embeds the table with a pretrained TaBERT
model finetuned for column type detection.  The offline substitute keeps the
same contract — "a learned, high-capacity model that looks at the column's
values *and* the surrounding table" — but computes the representation
explicitly, in the spirit of Sherlock (per-column statistics and character
features plus value text embeddings) and Sato (table-context features):

* distributional statistics from the profiler (null/unique fractions, numeric
  moments on a log scale, text length statistics, character-class mix),
* a structural data-type one-hot,
* boolean shape flags over sampled values (looks like an email, URL, date,
  currency amount, code, ...),
* a subword embedding of the sampled values (and optionally the header),
* table-context aggregates over the *other* columns of the table.

The featurizer produces a fixed-length ``float64`` vector regardless of
whether table context is available, so one trained model serves both
single-column and full-table inference.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass

import numpy as np

from repro.core.datatypes import DataType
from repro.core.table import Column, Table
from repro.matching.embeddings import SubwordEmbedder
from repro.profiler.statistics import profile_column

__all__ = ["FeaturizerConfig", "ColumnFeaturizer"]

_DATA_TYPES = list(DataType)

_SHAPE_PATTERNS: list[tuple[str, re.Pattern[str]]] = [
    ("email", re.compile(r"[^@\s]+@[^@\s]+\.[a-zA-Z]{2,}")),
    ("url", re.compile(r"https?://")),
    ("numeric", re.compile(r"^-?[\d,]+(\.\d+)?$")),
    ("currency", re.compile(r"^[\$€£¥]")),
    ("percent", re.compile(r"%$")),
    ("date_like", re.compile(r"^\d{4}-\d{2}-\d{2}")),
    ("slash_date", re.compile(r"^\d{1,2}/\d{1,2}/\d{2,4}$")),
    ("time_like", re.compile(r"\d{1,2}:\d{2}")),
    ("code_like", re.compile(r"^[A-Z0-9][A-Z0-9\-_/]{1,14}$")),
    ("uuid_like", re.compile(r"^[0-9a-f]{8}-[0-9a-f]{4}")),
    ("phone_like", re.compile(r"^[+(]?\d[\d\s().-]{6,}$")),
    ("ip_like", re.compile(r"^(\d{1,3}\.){3}\d{1,3}$")),
    ("has_space", re.compile(r"\s")),
    ("title_case", re.compile(r"^[A-Z][a-z]+( [A-Z][a-z]+)*$")),
    ("all_upper", re.compile(r"^[A-Z]{2,}$")),
    ("single_char", re.compile(r"^.$")),
]

#: Cap on the per-featurizer shape-mask cache (cleared wholesale when full).
_SHAPE_MASK_CACHE_MAX = 65536


def _signed_log(value: float) -> float:
    """Compress unbounded numeric statistics onto a well-behaved scale."""
    return math.copysign(math.log1p(abs(value)), value)


@dataclass
class FeaturizerConfig:
    """Tuning knobs of :class:`ColumnFeaturizer`."""

    #: How many non-null values are sampled for the shape and embedding features.
    value_sample_size: int = 20
    #: Include the subword embedding of the column header.
    include_header: bool = True
    #: Include table-context aggregates over the other columns.
    include_table_context: bool = True
    #: Sampling seed (fixed so featurization is deterministic).
    seed: int = 11


class ColumnFeaturizer:
    """Turns a column (plus optional table context) into a fixed-length vector."""

    def __init__(
        self,
        embedder: SubwordEmbedder | None = None,
        config: FeaturizerConfig | None = None,
    ) -> None:
        self.config = config or FeaturizerConfig()
        self.embedder = embedder or SubwordEmbedder()
        self._embedding_dim = self.embedder.dim
        self._statistical_dim = 22
        self._type_dim = len(_DATA_TYPES)
        self._shape_dim = len(_SHAPE_PATTERNS)
        self._context_dim = 8 if self.config.include_table_context else 0
        self._header_dim = self._embedding_dim if self.config.include_header else 0
        #: value → 0/1 pattern-hit vector; values repeat across columns and
        #: tables, so shape matching mostly becomes a dictionary lookup.
        self._shape_mask_cache: dict[str, np.ndarray] = {}
        #: Lazily computed digest namespacing this featurizer's memoized
        #: per-column feature vectors inside the column's derived-state cache.
        #: See :meth:`cache_token`.
        self._cache_token: str | None = None
        self._cache_token_fingerprint: tuple | None = None

    def cache_token(self) -> str:
        """A stable digest of everything (besides column content) the memoized
        feature prefix depends on: the embedder's structure and learned word
        vectors plus the shape/statistics code contract.

        Two featurizers with byte-identical embedder state produce identical
        feature vectors, so they *should* share a column's memoized entry: a
        fresh featurizer over the same embedder (or a deterministically
        rebuilt one) matches the token, and the memoized feature vector is
        served instead of recomputed.  Featurizers with different learned
        state never collide.  The token is recomputed if the embedder is
        refit in place.
        """
        embedder = self.embedder
        fingerprint = (
            embedder.is_fitted,
            len(embedder._word_vectors),  # noqa: SLF001
            getattr(embedder, "_fit_version", 0),
        )
        if self._cache_token is None or self._cache_token_fingerprint != fingerprint:
            hasher = hashlib.blake2b(digest_size=8)
            hasher.update(
                repr(
                    (
                        embedder.ngram_dim,
                        embedder.context_dim,
                        embedder.ngram_range,
                        embedder.is_fitted,
                    )
                ).encode("utf-8")
            )
            for token in sorted(embedder._word_vectors):  # noqa: SLF001
                hasher.update(token.encode("utf-8", "surrogatepass"))
                hasher.update(np.ascontiguousarray(embedder._word_vectors[token]).tobytes())  # noqa: SLF001
            self._cache_token = hasher.hexdigest()
            self._cache_token_fingerprint = fingerprint
        return self._cache_token

    # ------------------------------------------------------------------- shape
    @property
    def dim(self) -> int:
        """Length of the produced feature vectors."""
        return (
            self._statistical_dim
            + self._type_dim
            + self._shape_dim
            + self._embedding_dim
            + self._header_dim
            + self._context_dim
        )

    @property
    def feature_groups(self) -> dict[str, int]:
        """Named feature blocks and their widths (documentation/debugging aid)."""
        groups = {
            "statistics": self._statistical_dim,
            "data_type": self._type_dim,
            "value_shapes": self._shape_dim,
            "value_embedding": self._embedding_dim,
        }
        if self.config.include_header:
            groups["header_embedding"] = self._header_dim
        if self.config.include_table_context:
            groups["table_context"] = self._context_dim
        return groups

    # ----------------------------------------------------------------- extract
    def extract(self, column: Column, table: Table | None = None) -> np.ndarray:
        """Featurize one column (optionally in its table context).

        The column-local blocks (everything except table context) are a pure
        function of the column's content and this featurizer's configuration,
        so they are memoized on the column.  Only the cheap context block
        depends on the surrounding table.
        """
        blocks = [self._column_features(column)]
        if self.config.include_table_context:
            blocks.append(self._context_features(column, table))
        return np.concatenate(blocks)

    def _column_features(self, column: Column) -> np.ndarray:
        """The memoized table-independent feature prefix (treat as read-only)."""
        key = (
            "column_features",
            self.cache_token(),
            self.config.value_sample_size,
            self.config.seed,
            self.config.include_header,
        )
        return column._memo(key, lambda: self._compute_column_features(column))  # noqa: SLF001

    def _compute_column_features(self, column: Column) -> np.ndarray:
        # Sample once and share between the shape and embedding blocks (the
        # sample itself is additionally memoized on the column).
        values = self._sample_values(column)
        blocks = [
            self._statistical_features(column),
            self._data_type_features(column),
            self._shape_features(values),
            self._value_embedding(values),
        ]
        if self.config.include_header:
            blocks.append(self.embedder.embed_text(column.name))
        return np.concatenate(blocks)

    def extract_many(
        self, columns: list[tuple[Column, Table | None]]
    ) -> np.ndarray:
        """Featurize a batch of ``(column, table)`` pairs into one matrix.

        The batch path assembles exactly the same per-column blocks as
        :meth:`extract` (rows are bitwise identical), but amortises the shared
        work: column profiles are memoized, values are sampled once per
        column, per-value shape masks and phrase embeddings are cached across
        the whole batch, and a single allocation holds the output matrix.
        """
        if not columns:
            return np.zeros((0, self.dim), dtype=np.float64)
        matrix = np.empty((len(columns), self.dim), dtype=np.float64)
        for row, (column, table) in enumerate(columns):
            matrix[row] = self.extract(column, table)
        return matrix

    # ----------------------------------------------------------------- blocks
    def _statistical_features(self, column: Column) -> np.ndarray:
        profile = profile_column(column)
        numeric = [
            profile.minimum, profile.maximum, profile.mean, profile.median,
            profile.std_dev, profile.quartile_1, profile.quartile_3,
        ]
        numeric_features = [
            _signed_log(value) if value is not None else 0.0 for value in numeric
        ]
        return np.array(
            [
                profile.null_fraction,
                profile.unique_fraction,
                math.log1p(profile.distinct_count),
                math.log1p(profile.row_count),
                1.0 if profile.is_numeric else 0.0,
                *numeric_features,
                math.log1p(profile.min_length),
                math.log1p(profile.max_length),
                math.log1p(profile.mean_length),
                profile.digit_fraction,
                profile.alpha_fraction,
                profile.whitespace_fraction,
                profile.punctuation_fraction,
                1.0 if profile.looks_categorical else 0.0,
                1.0 if profile.looks_like_identifier else 0.0,
                float(len(profile.common_templates)),
            ],
            dtype=np.float64,
        )

    def _data_type_features(self, column: Column) -> np.ndarray:
        encoded = np.zeros(self._type_dim, dtype=np.float64)
        encoded[_DATA_TYPES.index(column.data_type)] = 1.0
        return encoded

    def _sample_values(self, column: Column) -> list[str]:
        sample = column.sample(self.config.value_sample_size, seed=self.config.seed)
        return [str(value).strip() for value in sample]

    def _shape_mask(self, value: str) -> np.ndarray:
        """0/1 hits of *value* against every shape pattern (cached per value)."""
        mask = self._shape_mask_cache.get(value)
        if mask is None:
            mask = np.fromiter(
                (1.0 if pattern.search(value) else 0.0 for _, pattern in _SHAPE_PATTERNS),
                dtype=np.float64,
                count=self._shape_dim,
            )
            if len(self._shape_mask_cache) >= _SHAPE_MASK_CACHE_MAX:
                self._shape_mask_cache.clear()
            self._shape_mask_cache[value] = mask
        return mask

    def _shape_features(self, values: list[str]) -> np.ndarray:
        if not values:
            return np.zeros(self._shape_dim, dtype=np.float64)
        # Summing cached 0/1 masks is integer-exact, so this matches the
        # original per-pattern counting loop bitwise.
        stacked = np.vstack([self._shape_mask(value) for value in values])
        return stacked.sum(axis=0) / len(values)

    def _value_embedding(self, values: list[str]) -> np.ndarray:
        if not values:
            return np.zeros(self._embedding_dim, dtype=np.float64)
        embeddings = [self.embedder.embed_text(value) for value in values]
        mean = np.mean(embeddings, axis=0)
        norm = np.linalg.norm(mean)
        return mean / norm if norm > 0 else mean

    def _context_features(self, column: Column, table: Table | None) -> np.ndarray:
        features = np.zeros(self._context_dim, dtype=np.float64)
        if table is None or table.num_columns <= 1:
            return features
        neighbors = [other for other in table.columns if other is not column]
        if not neighbors:
            return features
        type_counts = {data_type: 0 for data_type in _DATA_TYPES}
        unique_fractions = []
        null_fractions = []
        for neighbor in neighbors:
            type_counts[neighbor.data_type] += 1
            unique_fractions.append(neighbor.unique_fraction())
            null_fractions.append(neighbor.null_fraction())
        total = len(neighbors)
        features[0] = math.log1p(table.num_columns)
        features[1] = math.log1p(table.num_rows)
        features[2] = (type_counts[DataType.INTEGER] + type_counts[DataType.FLOAT]) / total
        features[3] = type_counts[DataType.TEXT] / total
        features[4] = (type_counts[DataType.DATE] + type_counts[DataType.DATETIME]) / total
        features[5] = type_counts[DataType.BOOLEAN] / total
        features[6] = float(np.mean(unique_fractions))
        features[7] = float(np.mean(null_fractions))
        return features
