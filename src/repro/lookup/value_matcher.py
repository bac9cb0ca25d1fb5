"""Value-lookup pipeline step (step 2 of Fig. 4).

Triggered for the columns whose header-matching confidence did not reach the
cascade threshold, this step matches a sample of the column values against

1. the labeling functions of the global and local models (obtained through
   DPBD, Section 4.2),
2. the knowledge base (the offline DBpedia substitute), and
3. the regular-expression rule set (expandable on user input).

Per the paper, "the fraction of values that matched a type is returned as the
confidence for that type."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.errors import ConfigurationError
from repro.core.pipeline import PipelineStep
from repro.core.prediction import TypeScore
from repro.core.table import Column, Table
from repro.lookup.knowledge_base import KnowledgeBase
from repro.lookup.labeling_functions import LabelingFunctionStore, LFContext
from repro.lookup.regex_library import RegexLibrary

__all__ = ["ValueLookupConfig", "ValueLookupStep"]


@dataclass
class ValueLookupConfig:
    """Tuning knobs of the value-lookup step."""

    #: Number of values sampled per column before matching.
    sample_size: int = 50
    #: Candidates reported per column.
    top_k: int = 5
    #: Minimum fraction for a type to be reported at all.
    min_confidence: float = 0.3
    #: Sampling seed (kept fixed so predictions are reproducible).
    seed: int = 17

    def validate(self) -> None:
        if self.sample_size < 1:
            raise ConfigurationError("sample_size must be at least 1")
        if self.top_k < 1:
            raise ConfigurationError("top_k must be at least 1")
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ConfigurationError("min_confidence must be in [0, 1]")


class ValueLookupStep(PipelineStep):
    """Labeling functions + knowledge base + regular expressions."""

    name = "value_lookup"
    cost_rank = 1

    def __init__(
        self,
        knowledge_base: KnowledgeBase | None = None,
        regex_library: RegexLibrary | None = None,
        labeling_functions: LabelingFunctionStore | None = None,
        config: ValueLookupConfig | None = None,
    ) -> None:
        self.knowledge_base = knowledge_base if knowledge_base is not None else KnowledgeBase.default()
        self.regex_library = regex_library if regex_library is not None else RegexLibrary()
        self.labeling_functions = labeling_functions if labeling_functions is not None else LabelingFunctionStore()
        self.config = config or ValueLookupConfig()
        self.config.validate()

    # ------------------------------------------------------------- prediction
    def predict_column(
        self, column: Column, table: Table | None = None, column_index: int | None = None
    ) -> list[TypeScore]:
        """Rank candidate types for one column from its sampled values."""
        config = self.config
        candidates: dict[str, float] = {}

        kb_scores = self.knowledge_base.lookup_column(
            column, sample_size=config.sample_size, seed=config.seed
        )
        regex_scores = self.regex_library.match_column(
            column, sample_size=config.sample_size, seed=config.seed
        )
        context = LFContext(table=table, column_index=column_index)
        lf_scores = self.labeling_functions.score_column(column, context)

        for source in (kb_scores, regex_scores, lf_scores):
            for type_name, confidence in source.items():
                if confidence > candidates.get(type_name, 0.0):
                    candidates[type_name] = confidence

        scores = [
            TypeScore(confidence=confidence, type_name=type_name)
            for type_name, confidence in candidates.items()
            if confidence >= config.min_confidence
        ]
        scores.sort(key=lambda s: (-s.confidence, s.type_name))
        return scores[: config.top_k]

    def predict_columns(
        self, table: Table, column_indices: Sequence[int] | None = None
    ) -> dict[int, list[TypeScore]]:
        """Predict candidates for the addressed columns of *table*."""
        indices = range(table.num_columns) if column_indices is None else column_indices
        return {
            index: self.predict_column(table.columns[index], table, column_index=index)
            for index in indices
        }
