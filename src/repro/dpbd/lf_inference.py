"""Inferring labeling functions from a relabelled column (Fig. 3, step ②).

Given the column a user just corrected, SigmaTyper derives labeling functions
for the new type: for numeric columns it "captures statistics of the data
distribution using a data profiler", for textual columns it "extracts textual
features, e.g. the most frequent values and the number of unique values", and
for both it "infers functions to indicate co-occurring columns based on the
other detected types".  The header itself becomes a rule too (LF4 in Fig. 3).

The output is a list of :class:`~repro.lookup.labeling_functions.LabelingFunction`
objects tagged with ``source="local"`` (or ``"user"``), ready to be added to a
customer's local model and to drive weak-label generation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.table import Column, Table
from repro.lookup.labeling_functions import (
    CoOccurrenceLF,
    ExpectationSuiteLF,
    HeaderMatchLF,
    LabelingFunction,
    MeanRangeLF,
    ValueRangeLF,
    ValueSetLF,
)
from repro.matching.fuzzy import normalize_header
from repro.profiler.expectations import build_expectation_suite
from repro.profiler.statistics import profile_column

__all__ = ["LFInferenceConfig", "infer_labeling_functions"]


@dataclass
class LFInferenceConfig:
    """Knobs controlling which labeling functions are derived from feedback."""

    #: Relative widening applied to observed numeric ranges (LF1).
    range_margin: float = 0.25
    #: The mean-range rule (LF2) spans mean ± ``mean_margin_stds`` · std.
    mean_margin_stds: float = 1.5
    #: Columns with at most this many distinct values yield a value-set rule.
    max_set_size: int = 30
    #: Derive a co-occurrence rule when at least this many neighbour types are known.
    min_cooccurring_types: int = 1
    #: Cap on the number of neighbour types included in the co-occurrence rule.
    max_cooccurring_types: int = 3
    #: Source tag attached to the produced labeling functions.
    source: str = "local"
    #: Include the expectation-suite LF for non-numeric columns.
    include_expectation_suite: bool = True
    #: Include the header rule (LF4).
    include_header_rule: bool = True


def infer_labeling_functions(
    column: Column,
    target_type: str,
    table: Table | None = None,
    neighbor_types: list[str] | None = None,
    config: LFInferenceConfig | None = None,
) -> list[LabelingFunction]:
    """Derive labeling functions for *target_type* from a demonstration column.

    Parameters
    ----------
    column:
        The column the user labelled (e.g. "Income" in Fig. 3).
    target_type:
        The corrected semantic type (e.g. ``salary``).
    table:
        The table containing the column, used for co-occurrence rules.
    neighbor_types:
        Types of the *other* columns, when known (ground truth or the
        system's current predictions).  Falls back to the other columns'
        ground-truth annotations when available on the table.
    """
    config = config or LFInferenceConfig()
    # Memoized on the column — shared with the featurizer and the expectation
    # profiler, which inspect the same columns during a feedback round.
    statistics = profile_column(column)
    functions: list[LabelingFunction] = []
    base_kwargs = {"source": config.source}

    # LF1 + LF2: numeric distribution rules.
    if statistics.is_numeric and statistics.minimum is not None and statistics.maximum is not None:
        span = max(abs(statistics.maximum - statistics.minimum), abs(statistics.maximum), 1e-9)
        margin = config.range_margin * span
        functions.append(
            ValueRangeLF(
                target_type,
                low=statistics.minimum - margin,
                high=statistics.maximum + margin,
                name=f"value_range:{target_type}:{column.name}",
                **base_kwargs,
            )
        )
        if statistics.mean is not None:
            std = statistics.std_dev or 0.0
            mean_margin = max(config.mean_margin_stds * std, 0.1 * abs(statistics.mean), 1e-9)
            functions.append(
                MeanRangeLF(
                    target_type,
                    low=statistics.mean - mean_margin,
                    high=statistics.mean + mean_margin,
                    name=f"mean_range:{target_type}:{column.name}",
                    **base_kwargs,
                )
            )
    else:
        # Textual rules: closed vocabulary when the column is categorical,
        # otherwise a profile-derived expectation suite (templates, lengths).
        if statistics.looks_categorical and 0 < statistics.distinct_count <= config.max_set_size:
            functions.append(
                ValueSetLF(
                    target_type,
                    values=sorted(set(column.text_values())),
                    name=f"value_set:{target_type}:{column.name}",
                    **base_kwargs,
                )
            )
        elif config.include_expectation_suite and column.text_values():
            suite = build_expectation_suite(column, statistics)
            functions.append(
                ExpectationSuiteLF(
                    target_type,
                    suite=suite,
                    name=f"profile:{target_type}:{column.name}",
                    **base_kwargs,
                )
            )

    # LF3: co-occurring column types.
    context_types = list(neighbor_types or [])
    if not context_types and table is not None:
        context_types = [
            other.semantic_type
            for other in table.columns
            if other is not column and other.semantic_type
        ]
    context_types = [t for t in dict.fromkeys(context_types) if t and t != target_type]
    if table is not None and len(context_types) >= config.min_cooccurring_types:
        functions.append(
            CoOccurrenceLF(
                target_type,
                required_types=context_types[: config.max_cooccurring_types],
                name=f"co_occurrence:{target_type}:{column.name}",
                weight=0.7,
                **base_kwargs,
            )
        )

    # LF4: the header itself, unless it has nothing to match (``#``, ``__``).
    if config.include_header_rule and normalize_header(column.name):
        functions.append(
            HeaderMatchLF(
                target_type,
                headers=[column.name],
                name=f"header:{target_type}:{column.name}",
                **base_kwargs,
            )
        )
    return functions
