"""Column statistics used by the profiler and the feature extractors.

The DPBD subsystem infers labeling functions from "statistics of the data
distribution using a data profiler" (Section 4.2).  This module computes
those statistics: structural type, null/distinct fractions, numeric moments
and quantiles, text length statistics, character-class composition, and a
coarse character *pattern template* (``"Aa+ 9+"`` style) that summarises the
shape of the values.
"""

from __future__ import annotations

import math
import statistics as stats
from dataclasses import dataclass, field
from typing import Sequence

from repro.core import colblock
from repro.core.datatypes import DataType
from repro.core.table import Column

__all__ = ["ColumnStatistics", "profile_column", "character_template", "template_counts"]


def character_template(value: str, max_run: int = 3) -> str:
    """Collapse a string into a coarse character-class template.

    Letters become ``a`` (or ``A`` for upper case), digits become ``9``, and
    everything else is kept verbatim; runs longer than *max_run* are
    abbreviated with ``+``.  ``"AB-123"`` → ``"AA-99+"``.
    """
    classes = []
    for char in value:
        if char.isdigit():
            classes.append("9")
        elif char.isalpha():
            classes.append("A" if char.isupper() else "a")
        else:
            classes.append(char)
    template: list[str] = []
    run_char = ""
    run_length = 0
    for symbol in classes:
        if symbol == run_char:
            run_length += 1
            if run_length == max_run + 1:
                template.append("+")
            elif run_length <= max_run:
                template.append(symbol)
        else:
            run_char = symbol
            run_length = 1
            template.append(symbol)
    return "".join(template)


def template_counts(column: Column) -> dict[str, int]:
    """Occurrences of each :func:`character_template` among the column's text values.

    Built once from :meth:`~repro.core.table.Column.value_counts`, weighting
    each distinct value by its count, and memoized on the column until
    :meth:`~repro.core.table.Column.invalidate_cache`.
    """

    def compute() -> dict[str, int]:
        counts: dict[str, int] = {}
        for value, count in column.value_counts().items():
            template = character_template(value)
            counts[template] = counts.get(template, 0) + count
        return counts

    return column._memo("template_counts", compute)


@dataclass
class ColumnStatistics:
    """A full statistical profile of one column."""

    column_name: str
    data_type: DataType
    row_count: int
    null_count: int
    distinct_count: int
    # Numeric statistics (None when the column has no numeric interpretation).
    minimum: float | None = None
    maximum: float | None = None
    mean: float | None = None
    median: float | None = None
    std_dev: float | None = None
    quartile_1: float | None = None
    quartile_3: float | None = None
    # Text statistics.
    min_length: int = 0
    max_length: int = 0
    mean_length: float = 0.0
    digit_fraction: float = 0.0
    alpha_fraction: float = 0.0
    whitespace_fraction: float = 0.0
    punctuation_fraction: float = 0.0
    most_frequent_values: list[str] = field(default_factory=list)
    #: Dominant coarse character templates, most common first.
    common_templates: list[str] = field(default_factory=list)

    @property
    def null_fraction(self) -> float:
        """Fraction of missing cells."""
        return self.null_count / self.row_count if self.row_count else 0.0

    @property
    def unique_fraction(self) -> float:
        """Distinct values over non-null values."""
        non_null = self.row_count - self.null_count
        return self.distinct_count / non_null if non_null else 0.0

    @property
    def is_numeric(self) -> bool:
        """Whether numeric moments are available."""
        return self.mean is not None

    @property
    def looks_categorical(self) -> bool:
        """Low-cardinality columns that behave like enumerations."""
        non_null = self.row_count - self.null_count
        if non_null == 0:
            return False
        return self.distinct_count <= max(20, int(0.05 * non_null))

    @property
    def looks_like_identifier(self) -> bool:
        """High-cardinality columns whose values are (nearly) all distinct."""
        return self.unique_fraction >= 0.95 and self.row_count - self.null_count >= 5

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable representation (used in reports and examples)."""
        return {
            "column_name": self.column_name,
            "data_type": self.data_type.value,
            "row_count": self.row_count,
            "null_fraction": round(self.null_fraction, 4),
            "distinct_count": self.distinct_count,
            "unique_fraction": round(self.unique_fraction, 4),
            "minimum": self.minimum,
            "maximum": self.maximum,
            "mean": self.mean,
            "median": self.median,
            "std_dev": self.std_dev,
            "mean_length": round(self.mean_length, 2),
            "most_frequent_values": list(self.most_frequent_values),
            "common_templates": list(self.common_templates),
        }


def _quantile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation quantile of an already sorted sequence."""
    if not sorted_values:
        return math.nan
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    position = fraction * (len(sorted_values) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return float(sorted_values[lower])
    weight = position - lower
    return float(sorted_values[lower] * (1 - weight) + sorted_values[upper] * weight)


def profile_column(column: Column, max_frequent: int = 10, max_templates: int = 3) -> ColumnStatistics:
    """Compute the full :class:`ColumnStatistics` profile of *column*.

    Profiles are memoized on the column: the featurizer, the expectation
    profiler, and DPBD labeling-function inference all profile the same
    columns, so repeated calls return the same (shared, treat-as-immutable)
    :class:`ColumnStatistics` object.  Mutating ``column.values`` requires an
    explicit :meth:`~repro.core.table.Column.invalidate_cache` to refresh it.
    """
    def compute() -> ColumnStatistics:
        view = column._kernel_view()
        if view is not None:
            profile = colblock.kernel_profile(
                view, column.name, column.data_type, max_frequent, max_templates
            )
            if profile is not None:
                return profile
        return _compute_profile(column, max_frequent, max_templates)

    return column._memo(("profile", max_frequent, max_templates), compute)


def _compute_profile(column: Column, max_frequent: int, max_templates: int) -> ColumnStatistics:
    text_values = column.text_values()
    numeric_values = column.numeric_values()
    row_count = len(column)
    null_count = row_count - len(text_values)

    # The column's memoized occurrence counts serve the distinct count, the
    # most-frequent ranking, the character-class mix, the length statistics,
    # and the template histogram: every per-occurrence quantity is an
    # integer, so weighting each distinct value by its multiplicity is exact
    # and avoids re-walking repeated values.
    value_counts = column.value_counts()

    profile = ColumnStatistics(
        column_name=column.name,
        data_type=column.data_type,
        row_count=row_count,
        null_count=null_count,
        distinct_count=len(value_counts),
        most_frequent_values=column.most_frequent_values(max_frequent),
    )

    if numeric_values and len(numeric_values) >= max(3, int(0.5 * len(text_values))):
        ordered = sorted(numeric_values)
        profile.minimum = float(ordered[0])
        profile.maximum = float(ordered[-1])
        profile.mean = float(stats.fmean(ordered))
        profile.median = float(_quantile(ordered, 0.5))
        profile.quartile_1 = float(_quantile(ordered, 0.25))
        profile.quartile_3 = float(_quantile(ordered, 0.75))
        profile.std_dev = float(stats.pstdev(ordered)) if len(ordered) > 1 else 0.0

    if text_values:
        lengths = {value: len(value) for value in value_counts}
        profile.min_length = min(lengths.values())
        profile.max_length = max(lengths.values())
        total_chars = sum(lengths[value] * count for value, count in value_counts.items())
        profile.mean_length = total_chars / len(text_values)
        total_chars = total_chars or 1
        digits = alphas = spaces = 0
        for value, count in value_counts.items():
            digits += count * sum(char.isdigit() for char in value)
            alphas += count * sum(char.isalpha() for char in value)
            spaces += count * sum(char.isspace() for char in value)
        profile.digit_fraction = digits / total_chars
        profile.alpha_fraction = alphas / total_chars
        profile.whitespace_fraction = spaces / total_chars
        profile.punctuation_fraction = max(
            0.0, 1.0 - profile.digit_fraction - profile.alpha_fraction - profile.whitespace_fraction
        )
        ranked = sorted(template_counts(column).items(), key=lambda item: (-item[1], item[0]))
        profile.common_templates = [template for template, _ in ranked[:max_templates]]

    return profile
