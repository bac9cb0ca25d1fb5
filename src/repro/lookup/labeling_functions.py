"""Labeling functions — the unit of customisation in SigmaTyper.

Figure 3 of the paper shows the kinds of labeling functions (LFs) inferred
when a user relabels a column: value-range rules, mean-range rules,
co-occurring-column rules, and header rules.  LFs serve two purposes in the
system: they *generate weakly labeled training data* from the source corpus
(data programming) and they act as *weak predictors* inside the value-lookup
step of the pipeline.

Every LF targets one semantic type and, when applied to a column, returns a
confidence in ``[0, 1]`` — typically the fraction of values that match, per
the paper's description of the lookup step.  LFs are serialisable so local
(per-customer) models can be persisted.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.errors import LabelingFunctionError
from repro.core.table import Column, Table
from repro.matching.fuzzy import (
    HeaderScreen,
    combined_similarity,
    jaro_winkler_similarity,
    normalize_header,
)
from repro.profiler.expectations import ExpectationSuite

__all__ = [
    "LFContext",
    "LabelingFunction",
    "ValueRangeLF",
    "MeanRangeLF",
    "HeaderMatchLF",
    "CoOccurrenceLF",
    "RegexLF",
    "ValueSetLF",
    "ExpectationSuiteLF",
    "LabelingFunctionStore",
    "labeling_function_from_dict",
]


@dataclass(frozen=True)
class LFContext:
    """Table context available to a labeling function.

    ``neighbor_types`` carries the semantic types of the *other* columns when
    the caller knows them (e.g. during weak-label generation on an annotated
    corpus); when empty, co-occurrence LFs fall back to fuzzy-matching the
    other columns' headers.
    """

    table: Table | None = None
    column_index: int | None = None
    neighbor_types: frozenset[str] = frozenset()


class LabelingFunction(ABC):
    """Base class: a weak predictor for one semantic type."""

    #: Registry key used by :func:`labeling_function_from_dict`.
    kind: str = "abstract"

    def __init__(self, target_type: str, name: str = "", source: str = "global", weight: float = 1.0):
        if not target_type:
            raise LabelingFunctionError("a labeling function needs a target semantic type")
        if weight <= 0:
            raise LabelingFunctionError("labeling function weight must be positive")
        self.target_type = target_type
        self.name = name or f"{self.kind}:{target_type}"
        self.source = source
        self.weight = float(weight)

    @abstractmethod
    def apply(self, column: Column, context: LFContext | None = None) -> float:
        """Confidence in ``[0, 1]`` that *column* has :attr:`target_type`."""

    def apply_many(self, columns: Sequence[tuple[Column, Table | None]]) -> list[float]:
        """:meth:`apply` on each ``(column, table)`` pair, in order.

        Equal to ``[apply(column, LFContext(table=table)) for column, table
        in columns]``.  Functions that read the header override it to score
        each distinct input once per call.
        """
        return [self.apply(column, LFContext(table=table)) for column, table in columns]

    # ----------------------------------------------------------- serialization
    def _base_dict(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "target_type": self.target_type,
            "name": self.name,
            "source": self.source,
            "weight": self.weight,
        }

    @abstractmethod
    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable representation."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(target={self.target_type!r}, name={self.name!r})"


class ValueRangeLF(LabelingFunction):
    """LF1 in Fig. 3: the fraction of numeric values inside ``[low, high]``."""

    kind = "value_range"

    def __init__(self, target_type: str, low: float, high: float, **kwargs):
        super().__init__(target_type, **kwargs)
        if high < low:
            raise LabelingFunctionError(f"invalid range [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def apply(self, column: Column, context: LFContext | None = None) -> float:
        values = column.numeric_values()
        if not values:
            return 0.0
        hits = sum(1 for value in values if self.low <= value <= self.high)
        return hits / len(values)

    def to_dict(self) -> dict[str, object]:
        return {**self._base_dict(), "low": self.low, "high": self.high}


class MeanRangeLF(LabelingFunction):
    """LF2 in Fig. 3: fires when the column mean falls inside ``[low, high]``."""

    kind = "mean_range"

    def __init__(self, target_type: str, low: float, high: float, **kwargs):
        super().__init__(target_type, **kwargs)
        if high < low:
            raise LabelingFunctionError(f"invalid range [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def apply(self, column: Column, context: LFContext | None = None) -> float:
        values = column.numeric_values()
        if not values:
            return 0.0
        mean = sum(values) / len(values)
        return 1.0 if self.low <= mean <= self.high else 0.0

    def to_dict(self) -> dict[str, object]:
        return {**self._base_dict(), "low": self.low, "high": self.high}


def _similarities(headers: Sequence[str], candidates: Sequence[str], threshold: float) -> np.ndarray:
    """``combined_similarity`` of each (header, candidate) pair, exact where it reaches *threshold*.

    Both sides are normalised and the headers distinct.  The non-empty
    headers are bounded against the non-empty candidates in one
    :class:`~repro.matching.fuzzy.HeaderScreen` pass, and only the survivors
    are scored, as in the header matcher: with ``combined_similarity`` when
    the Levenshtein or token bound reaches *threshold*, else with Jaro–Winkler
    alone, which then equals it wherever either reaches *threshold*.  Every
    other pair reads 0.0: the screen proved it below *threshold*, or it has
    an empty side and its similarity is 0.0.  So ``scores >= threshold``
    holds exactly where the similarity reaches *threshold*, and there the
    two are equal.
    """
    scores = np.zeros((len(headers), len(candidates)))
    rows = [index for index, header in enumerate(headers) if header]
    columns = [index for index, candidate in enumerate(candidates) if candidate]
    screen = HeaderScreen([candidates[index] for index in columns])
    survivors = screen.survivors([headers[index] for index in rows], threshold)
    for row, column, full in zip(*(part.tolist() for part in survivors), strict=True):
        row, column = rows[row], columns[column]
        if full:
            scores[row, column] = combined_similarity(headers[row], candidates[column])
        else:
            scores[row, column] = jaro_winkler_similarity(headers[row], candidates[column])
    return scores


class HeaderMatchLF(LabelingFunction):
    """LF4 in Fig. 3: fires when the column header matches a remembered header."""

    kind = "header_match"

    def __init__(self, target_type: str, headers: Sequence[str], threshold: float = 0.85, **kwargs):
        super().__init__(target_type, **kwargs)
        cleaned = [normalize_header(header) for header in headers if normalize_header(header)]
        if not cleaned:
            raise LabelingFunctionError("HeaderMatchLF needs at least one non-empty header")
        self.headers = list(dict.fromkeys(cleaned))
        self.threshold = float(threshold)

    def apply(self, column: Column, context: LFContext | None = None) -> float:
        return self._scores([normalize_header(column.name)])[0]

    def apply_many(self, columns: Sequence[tuple[Column, Table | None]]) -> list[float]:
        normalized = {column.name: normalize_header(column.name) for column, _ in columns}
        headers = list(dict.fromkeys(normalized.values()))
        scores = dict(zip(headers, self._scores(headers), strict=True))
        return [scores[normalized[column.name]] for column, _ in columns]

    def _scores(self, headers: Sequence[str]) -> list[float]:
        """Per distinct normalised header: its best similarity to a remembered
        header when that reaches the threshold, else 0.0 (always 0.0 for "")."""
        best = _similarities(headers, self.headers, self.threshold).max(axis=1).tolist()
        return [
            score if header and score >= self.threshold else 0.0
            for header, score in zip(headers, best, strict=True)
        ]

    def to_dict(self) -> dict[str, object]:
        return {**self._base_dict(), "headers": list(self.headers), "threshold": self.threshold}


class CoOccurrenceLF(LabelingFunction):
    """LF3 in Fig. 3: fires when specific other column types appear in the table.

    When the context provides ground-truth/predicted neighbour types they are
    used directly; otherwise the other columns' headers are fuzzy-matched
    against the required type names.
    """

    kind = "co_occurrence"

    def __init__(self, target_type: str, required_types: Sequence[str], header_threshold: float = 0.8, **kwargs):
        super().__init__(target_type, **kwargs)
        if not required_types:
            raise LabelingFunctionError("CoOccurrenceLF needs at least one required type")
        self.required_types = sorted(set(required_types))
        self.header_threshold = float(header_threshold)

    def apply(self, column: Column, context: LFContext | None = None) -> float:
        if context is None or context.table is None:
            return 0.0
        neighbor_types = {t for t in context.neighbor_types if t}
        required = [r for r in self.required_types if r not in neighbor_types]
        matches = self._matching([context.table], required)[0]
        return self._vote(column, context.column_index, context.table, matches)

    def apply_many(self, columns: Sequence[tuple[Column, Table | None]]) -> list[float]:
        # Keyed by id(): every table stays referenced by *columns* for the
        # whole call, so no two live tables share a key.
        tables = {id(table): table for _, table in columns if table is not None}
        matches = dict(zip(tables, self._matching(list(tables.values()), self.required_types), strict=True))
        return [
            0.0 if table is None else self._vote(column, None, table, matches[id(table)])
            for column, table in columns
        ]

    def _matching(self, tables: Sequence[Table], required_types: Sequence[str]) -> list[list[list[int]]]:
        """Per table, per required type: the indices of the columns whose
        header matches that type's name (``_`` read as a space)."""
        normalized = {
            column.name: normalize_header(column.name) for table in tables for column in table.columns
        }
        headers = list(dict.fromkeys(normalized.values()))
        texts = [normalize_header(required.replace("_", " ")) for required in required_types]
        similarities = _similarities(headers, texts, self.header_threshold)
        matched = dict(zip(headers, (similarities >= self.header_threshold).tolist(), strict=True))
        result = []
        for table in tables:
            rows = [matched[normalized[column.name]] for column in table.columns]
            result.append(
                [[index for index, row in enumerate(rows) if row[position]] for position in range(len(texts))]
            )
        return result

    @staticmethod
    def _vote(column: Column, column_index: int | None, table: Table, matches: list[list[int]]) -> float:
        """1.0 when every required type matched a column other than *column* itself."""
        satisfied = all(
            any(index != column_index and table.columns[index] is not column for index in matching)
            for matching in matches
        )
        return 1.0 if satisfied else 0.0

    def to_dict(self) -> dict[str, object]:
        return {
            **self._base_dict(),
            "required_types": list(self.required_types),
            "header_threshold": self.header_threshold,
        }


class RegexLF(LabelingFunction):
    """Fraction of values fully matching a regular expression."""

    kind = "regex"

    def __init__(self, target_type: str, pattern: str, **kwargs):
        super().__init__(target_type, **kwargs)
        try:
            self.pattern = re.compile(pattern)
        except re.error as exc:
            raise LabelingFunctionError(f"invalid regex {pattern!r}: {exc}") from exc

    def apply(self, column: Column, context: LFContext | None = None) -> float:
        values = column.text_values()
        if not values:
            return 0.0
        hits = sum(1 for value in values if self.pattern.fullmatch(value))
        return hits / len(values)

    def to_dict(self) -> dict[str, object]:
        return {**self._base_dict(), "pattern": self.pattern.pattern}


class ValueSetLF(LabelingFunction):
    """Fraction of values found in a closed vocabulary (dictionary lookup)."""

    kind = "value_set"

    def __init__(self, target_type: str, values: Sequence[str], case_sensitive: bool = False, **kwargs):
        super().__init__(target_type, **kwargs)
        if not values:
            raise LabelingFunctionError("ValueSetLF needs a non-empty value set")
        self.case_sensitive = bool(case_sensitive)
        if self.case_sensitive:
            self.values = frozenset(str(value) for value in values)
        else:
            self.values = frozenset(str(value).lower() for value in values)

    def apply(self, column: Column, context: LFContext | None = None) -> float:
        values = column.text_values()
        if not values:
            return 0.0
        if self.case_sensitive:
            hits = sum(1 for value in values if value in self.values)
        else:
            hits = sum(1 for value in values if value.lower() in self.values)
        return hits / len(values)

    def to_dict(self) -> dict[str, object]:
        return {
            **self._base_dict(),
            "values": sorted(self.values),
            "case_sensitive": self.case_sensitive,
        }


class ExpectationSuiteLF(LabelingFunction):
    """Wraps a profiler expectation suite: confidence = fraction of satisfied expectations."""

    kind = "expectation_suite"

    def __init__(self, target_type: str, suite: ExpectationSuite, **kwargs):
        super().__init__(target_type, **kwargs)
        if not len(suite):
            raise LabelingFunctionError("ExpectationSuiteLF needs a non-empty suite")
        self.suite = suite

    def apply(self, column: Column, context: LFContext | None = None) -> float:
        return self.suite.success_fraction(column)

    def to_dict(self) -> dict[str, object]:
        return {
            **self._base_dict(),
            "suite_name": self.suite.name,
            "expectations": [
                {"kind": e.kind, "params": e.params, "mostly": e.mostly} for e in self.suite
            ],
        }


_KINDS: dict[str, type[LabelingFunction]] = {
    ValueRangeLF.kind: ValueRangeLF,
    MeanRangeLF.kind: MeanRangeLF,
    HeaderMatchLF.kind: HeaderMatchLF,
    CoOccurrenceLF.kind: CoOccurrenceLF,
    RegexLF.kind: RegexLF,
    ValueSetLF.kind: ValueSetLF,
    ExpectationSuiteLF.kind: ExpectationSuiteLF,
}


def labeling_function_from_dict(payload: Mapping[str, object]) -> LabelingFunction:
    """Reconstruct a labeling function serialised with ``to_dict``."""
    kind = str(payload.get("kind", ""))
    if kind not in _KINDS:
        raise LabelingFunctionError(f"unknown labeling function kind {kind!r}")
    common = {
        "name": payload.get("name", ""),
        "source": payload.get("source", "global"),
        "weight": payload.get("weight", 1.0),
    }
    target = str(payload["target_type"])
    if kind == ValueRangeLF.kind:
        return ValueRangeLF(target, payload["low"], payload["high"], **common)
    if kind == MeanRangeLF.kind:
        return MeanRangeLF(target, payload["low"], payload["high"], **common)
    if kind == HeaderMatchLF.kind:
        return HeaderMatchLF(target, payload["headers"], payload.get("threshold", 0.85), **common)
    if kind == CoOccurrenceLF.kind:
        return CoOccurrenceLF(target, payload["required_types"], payload.get("header_threshold", 0.8), **common)
    if kind == RegexLF.kind:
        return RegexLF(target, payload["pattern"], **common)
    if kind == ValueSetLF.kind:
        return ValueSetLF(target, payload["values"], payload.get("case_sensitive", False), **common)
    if kind == ExpectationSuiteLF.kind:
        from repro.profiler.expectations import Expectation

        suite = ExpectationSuite(
            name=str(payload.get("suite_name", f"suite:{target}")),
            expectations=[
                Expectation(entry["kind"], dict(entry["params"]), mostly=entry.get("mostly", 0.9))
                for entry in payload.get("expectations", [])
            ],
        )
        return ExpectationSuiteLF(target, suite, **common)
    raise LabelingFunctionError(f"unhandled labeling function kind {kind!r}")  # pragma: no cover


class LabelingFunctionStore:
    """A queryable collection of labeling functions, grouped by target type."""

    def __init__(self, functions: Sequence[LabelingFunction] = ()) -> None:
        self._functions: list[LabelingFunction] = []
        for function in functions:
            self.add(function)

    def __len__(self) -> int:
        return len(self._functions)

    def __iter__(self):
        return iter(self._functions)

    def add(self, function: LabelingFunction) -> None:
        """Register a labeling function."""
        if not isinstance(function, LabelingFunction):
            raise LabelingFunctionError("only LabelingFunction instances can be stored")
        self._functions.append(function)

    def extend(self, functions: Sequence[LabelingFunction]) -> None:
        """Register several labeling functions."""
        for function in functions:
            self.add(function)

    def for_type(self, target_type: str) -> list[LabelingFunction]:
        """All functions targeting *target_type*."""
        return [f for f in self._functions if f.target_type == target_type]

    def target_types(self) -> list[str]:
        """Distinct target types, sorted."""
        return sorted({f.target_type for f in self._functions})

    def from_source(self, source: str) -> list[LabelingFunction]:
        """All functions from one source ("global", "local", "user")."""
        return [f for f in self._functions if f.source == source]

    def score_column(
        self, column: Column, context: LFContext | None = None
    ) -> dict[str, float]:
        """Apply every stored LF to *column*; return the best score per type.

        Per type, the confidence is the weighted maximum over that type's
        LFs, which keeps a single strong rule decisive while letting several
        weaker rules coexist.
        """
        best: dict[str, float] = {}
        for function in self._functions:
            score = function.apply(column, context) * min(function.weight, 1.0)
            if score <= 0.0:
                continue
            if score > best.get(function.target_type, 0.0):
                best[function.target_type] = min(score, 1.0)
        return best

    def to_dicts(self) -> list[dict[str, object]]:
        """Serialise every stored LF."""
        return [function.to_dict() for function in self._functions]

    @classmethod
    def from_dicts(cls, payloads: Sequence[Mapping[str, object]]) -> "LabelingFunctionStore":
        """Inverse of :meth:`to_dicts`."""
        return cls([labeling_function_from_dict(payload) for payload in payloads])
