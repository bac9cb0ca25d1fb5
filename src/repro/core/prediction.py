"""Prediction data structures shared by every pipeline step and model.

A pipeline step proposes a ranked list of :class:`TypeScore` candidates per
column; the pipeline combines them into a :class:`ColumnPrediction` and wraps
all columns of a table into a :class:`TablePrediction`.  The paper specifies
that the system "yields the top-k semantic types for each column along with
their confidence score", and may abstain (predict ``unknown``) when the final
confidence falls below the precision threshold τ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.core.ontology import UNKNOWN_TYPE

__all__ = ["TypeScore", "ColumnPrediction", "TablePrediction", "merge_scores"]


@dataclass(frozen=True, order=True)
class TypeScore:
    """A candidate semantic type with a confidence in ``[0, 1]``."""

    confidence: float
    type_name: str

    def __post_init__(self) -> None:
        clipped = min(max(float(self.confidence), 0.0), 1.0)
        object.__setattr__(self, "confidence", clipped)

    def scaled(self, weight: float) -> "TypeScore":
        """The same candidate with its confidence multiplied by *weight*."""
        return TypeScore(confidence=self.confidence * weight, type_name=self.type_name)


def merge_scores(score_lists: Iterable[Sequence[TypeScore]]) -> list[TypeScore]:
    """Merge several candidate lists, keeping the maximum confidence per type."""
    best: dict[str, float] = {}
    for scores in score_lists:
        for score in scores:
            if score.confidence > best.get(score.type_name, -1.0):
                best[score.type_name] = score.confidence
    merged = [TypeScore(confidence=c, type_name=t) for t, c in best.items()]
    merged.sort(key=lambda s: (-s.confidence, s.type_name))
    return merged


@dataclass
class ColumnPrediction:
    """The final (or per-step) prediction for one column."""

    column_index: int
    column_name: str
    scores: list[TypeScore] = field(default_factory=list)
    #: Name of the pipeline step that produced the winning score
    #: ("header_matching", "value_lookup", "table_embedding", "aggregation").
    source_step: str = ""
    #: True when the system declined to predict (confidence below τ or the
    #: model's own unknown/background class won).
    abstained: bool = False
    #: Per-step raw scores kept for aggregation diagnostics and explanations.
    step_scores: dict[str, list[TypeScore]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.scores = sorted(self.scores, key=lambda s: (-s.confidence, s.type_name))

    @property
    def predicted_type(self) -> str:
        """The winning type, or :data:`UNKNOWN_TYPE` when abstaining/empty."""
        if self.abstained or not self.scores:
            return UNKNOWN_TYPE
        return self.scores[0].type_name

    @property
    def confidence(self) -> float:
        """Confidence of the winning type (0.0 when abstaining/empty)."""
        if self.abstained or not self.scores:
            return 0.0
        return self.scores[0].confidence

    def top_k(self, k: int = 3) -> list[TypeScore]:
        """The *k* best candidates (fewer if the step produced fewer)."""
        return self.scores[:k]

    def score_for(self, type_name: str) -> float:
        """Confidence assigned to *type_name* (0.0 when absent)."""
        for score in self.scores:
            if score.type_name == type_name:
                return score.confidence
        return 0.0

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable representation."""
        return {
            "column_index": self.column_index,
            "column_name": self.column_name,
            "predicted_type": self.predicted_type,
            "confidence": self.confidence,
            "abstained": self.abstained,
            "source_step": self.source_step,
            "top_k": [
                {"type": s.type_name, "confidence": s.confidence} for s in self.top_k(5)
            ],
        }


@dataclass
class TablePrediction:
    """Predictions for every column of one table."""

    table_name: str
    columns: list[ColumnPrediction] = field(default_factory=list)
    #: Which pipeline steps ran, and for how many columns — the cascade trace.
    step_trace: dict[str, int] = field(default_factory=dict)
    #: Wall-clock seconds spent per step (filled by the pipeline).  The only
    #: timer in the cascade; ``==`` ignores it, so two runs that typed the
    #: same table the same way compare equal however long each took.
    step_seconds: dict[str, float] = field(default_factory=dict, compare=False)

    def __iter__(self):
        return iter(self.columns)

    def __len__(self) -> int:
        return len(self.columns)

    def prediction_for(self, column_name: str) -> ColumnPrediction | None:
        """The prediction for the column named *column_name*, if any."""
        for prediction in self.columns:
            if prediction.column_name == column_name:
                return prediction
        return None

    def predicted_types(self) -> list[str]:
        """Winning types in column order."""
        return [prediction.predicted_type for prediction in self.columns]

    def as_mapping(self) -> Mapping[str, str]:
        """``{column name: predicted type}`` view."""
        return {p.column_name: p.predicted_type for p in self.columns}

    def abstention_rate(self) -> float:
        """Fraction of columns for which the system abstained."""
        if not self.columns:
            return 0.0
        return sum(1 for p in self.columns if p.abstained) / len(self.columns)

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable representation."""
        return {
            "table_name": self.table_name,
            "columns": [p.to_dict() for p in self.columns],
            "step_trace": dict(self.step_trace),
            "step_seconds": dict(self.step_seconds),
        }
