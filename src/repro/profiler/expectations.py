"""Expectation suites — the offline Great Expectations substitute.

SigmaTyper uses a data profiler ("currently Great Expectations" in the paper)
to capture the distribution of a column the user has just relabelled.  The
captured constraints then become labeling functions for DPBD.  This module
implements that profiler contract: a small algebra of :class:`Expectation`
checks, a :class:`ExpectationSuite` that groups and validates them, and
:func:`build_expectation_suite` which derives a suite automatically from a
column's :class:`~repro.profiler.statistics.ColumnStatistics`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

from repro.core.errors import ConfigurationError
from repro.core.table import Column
from repro.profiler.statistics import ColumnStatistics, profile_column, template_counts

__all__ = ["ExpectationResult", "Expectation", "ExpectationSuite", "build_expectation_suite"]


@dataclass(frozen=True)
class ExpectationResult:
    """Outcome of validating one expectation against one column."""

    expectation_kind: str
    success: bool
    #: Fraction of (applicable) values that satisfied the expectation.
    observed_fraction: float
    details: str = ""


@dataclass(frozen=True)
class Expectation:
    """One declarative constraint on a column.

    Supported kinds and their ``params``:

    ``values_between``          ``{"min": float, "max": float}``
    ``mean_between``            ``{"min": float, "max": float}``
    ``std_dev_between``         ``{"min": float, "max": float}``
    ``values_in_set``           ``{"values": list[str], "case_sensitive": bool}``
    ``values_match_regex``      ``{"pattern": str}``
    ``values_match_template``   ``{"templates": list[str]}``
    ``null_fraction_at_most``   ``{"max": float}``
    ``distinct_count_between``  ``{"min": int, "max": int}``
    ``value_lengths_between``   ``{"min": int, "max": int}``
    ``unique_fraction_at_least````{"min": float}``
    """

    kind: str
    params: dict = field(default_factory=dict)
    #: Minimum fraction of values that must satisfy a per-value expectation.
    mostly: float = 0.9

    def __post_init__(self) -> None:
        if self.kind not in _CHECKS:
            raise ConfigurationError(
                f"unknown expectation kind {self.kind!r}; expected one of {sorted(_CHECKS)}"
            )
        if not 0.0 < self.mostly <= 1.0:
            raise ConfigurationError("mostly must be in (0, 1]")

    def check(self, column: Column) -> ExpectationResult:
        """Validate the expectation against *column*."""
        return _CHECKS[self.kind](self, column)

    def describe(self) -> str:
        """Human-readable rendering used in explanations and examples."""
        rendered = ", ".join(f"{key}={value!r}" for key, value in sorted(self.params.items()))
        return f"{self.kind}({rendered})"


# ----------------------------------------------------------------------- checks
def _per_value_result(
    expectation: Expectation, column: Column, predicate: Callable[[str], bool], applicable_numeric: bool = False
) -> ExpectationResult:
    values = column.numeric_values() if applicable_numeric else column.text_values()
    return _fraction_result(expectation, sum(1 for value in values if predicate(value)), len(values))


def _fraction_result(expectation: Expectation, hits: int, total: int) -> ExpectationResult:
    if not total:
        return ExpectationResult(expectation.kind, False, 0.0, "no applicable values")
    fraction = hits / total
    return ExpectationResult(expectation.kind, fraction >= expectation.mostly, fraction)


def _check_values_between(expectation: Expectation, column: Column) -> ExpectationResult:
    low = float(expectation.params["min"])
    high = float(expectation.params["max"])
    return _per_value_result(expectation, column, lambda v: low <= v <= high, applicable_numeric=True)


def _check_mean_between(expectation: Expectation, column: Column) -> ExpectationResult:
    values = column.numeric_values()
    if not values:
        return ExpectationResult(expectation.kind, False, 0.0, "no numeric values")
    mean = sum(values) / len(values)
    low, high = float(expectation.params["min"]), float(expectation.params["max"])
    success = low <= mean <= high
    return ExpectationResult(expectation.kind, success, 1.0 if success else 0.0, f"mean={mean:.4g}")


def _check_std_dev_between(expectation: Expectation, column: Column) -> ExpectationResult:
    values = column.numeric_values()
    if len(values) < 2:
        return ExpectationResult(expectation.kind, False, 0.0, "not enough numeric values")
    mean = sum(values) / len(values)
    variance = sum((value - mean) ** 2 for value in values) / len(values)
    std_dev = variance ** 0.5
    low, high = float(expectation.params["min"]), float(expectation.params["max"])
    success = low <= std_dev <= high
    return ExpectationResult(expectation.kind, success, 1.0 if success else 0.0, f"std={std_dev:.4g}")


def _check_values_in_set(expectation: Expectation, column: Column) -> ExpectationResult:
    allowed = expectation.params["values"]
    case_sensitive = bool(expectation.params.get("case_sensitive", False))
    if case_sensitive:
        allowed_set = set(allowed)
        return _per_value_result(expectation, column, lambda v: v in allowed_set)
    allowed_set = {str(value).lower() for value in allowed}
    return _per_value_result(expectation, column, lambda v: v.lower() in allowed_set)


def _check_values_match_regex(expectation: Expectation, column: Column) -> ExpectationResult:
    pattern = re.compile(expectation.params["pattern"])
    return _per_value_result(expectation, column, lambda v: bool(pattern.fullmatch(v)))


def _check_values_match_template(expectation: Expectation, column: Column) -> ExpectationResult:
    counts = template_counts(column)
    hits = sum(counts.get(template, 0) for template in dict.fromkeys(expectation.params["templates"]))
    return _fraction_result(expectation, hits, len(column.text_values()))


def _check_null_fraction_at_most(expectation: Expectation, column: Column) -> ExpectationResult:
    limit = float(expectation.params["max"])
    fraction = column.null_fraction()
    return ExpectationResult(expectation.kind, fraction <= limit, 1.0 - fraction, f"null_fraction={fraction:.4g}")


def _check_distinct_count_between(expectation: Expectation, column: Column) -> ExpectationResult:
    low = int(expectation.params["min"])
    high = int(expectation.params["max"])
    distinct = len(column.value_counts())
    success = low <= distinct <= high
    return ExpectationResult(expectation.kind, success, 1.0 if success else 0.0, f"distinct={distinct}")


def _check_value_lengths_between(expectation: Expectation, column: Column) -> ExpectationResult:
    low = int(expectation.params["min"])
    high = int(expectation.params["max"])
    return _per_value_result(expectation, column, lambda v: low <= len(v) <= high)


def _check_unique_fraction_at_least(expectation: Expectation, column: Column) -> ExpectationResult:
    minimum = float(expectation.params["min"])
    fraction = column.unique_fraction()
    return ExpectationResult(expectation.kind, fraction >= minimum, fraction, f"unique_fraction={fraction:.4g}")


_CHECKS: dict[str, Callable[[Expectation, Column], ExpectationResult]] = {
    "values_between": _check_values_between,
    "mean_between": _check_mean_between,
    "std_dev_between": _check_std_dev_between,
    "values_in_set": _check_values_in_set,
    "values_match_regex": _check_values_match_regex,
    "values_match_template": _check_values_match_template,
    "null_fraction_at_most": _check_null_fraction_at_most,
    "distinct_count_between": _check_distinct_count_between,
    "value_lengths_between": _check_value_lengths_between,
    "unique_fraction_at_least": _check_unique_fraction_at_least,
}


@dataclass
class ExpectationSuite:
    """A named collection of expectations describing one column's distribution."""

    name: str
    expectations: list[Expectation] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.expectations)

    def __iter__(self):
        return iter(self.expectations)

    def add(self, expectation: Expectation) -> None:
        """Append an expectation to the suite."""
        self.expectations.append(expectation)

    def validate(self, column: Column) -> list[ExpectationResult]:
        """Check every expectation against *column*."""
        return [expectation.check(column) for expectation in self.expectations]

    def success_fraction(self, column: Column) -> float:
        """Fraction of expectations the column satisfies (1.0 for an empty suite)."""
        if not self.expectations:
            return 1.0
        results = self.validate(column)
        return sum(result.success for result in results) / len(results)

    def matches(self, column: Column, required_fraction: float = 0.8) -> bool:
        """Whether the column satisfies at least *required_fraction* of the suite."""
        return self.success_fraction(column) >= required_fraction


def build_expectation_suite(
    column: Column,
    statistics: ColumnStatistics | None = None,
    name: str | None = None,
    numeric_margin: float = 0.25,
    max_set_size: int = 30,
) -> ExpectationSuite:
    """Derive a descriptive expectation suite from a column's observed values.

    This is the profiling half of DPBD: given a column the user just labelled,
    capture its distribution as declarative constraints that later double as
    labeling functions.

    Parameters
    ----------
    numeric_margin:
        Numeric ranges are widened by this relative margin so near-identical
        columns in the corpus still match the derived range expectations.
    max_set_size:
        Columns with at most this many distinct values additionally get a
        ``values_in_set`` expectation.
    """
    # profile_column is memoized on the column, so deriving a suite for a
    # column the featurizer or DPBD already profiled reuses that profile.
    statistics = statistics or profile_column(column)
    suite = ExpectationSuite(name=name or f"profile:{column.name}")

    suite.add(Expectation("null_fraction_at_most", {"max": max(0.05, statistics.null_fraction * 2)}))

    if statistics.is_numeric and statistics.minimum is not None and statistics.maximum is not None:
        span = max(abs(statistics.maximum - statistics.minimum), abs(statistics.maximum), 1e-9)
        margin = numeric_margin * span
        suite.add(
            Expectation(
                "values_between",
                {"min": statistics.minimum - margin, "max": statistics.maximum + margin},
                mostly=0.85,
            )
        )
        if statistics.mean is not None and statistics.std_dev is not None:
            mean_margin = max(statistics.std_dev, 0.1 * abs(statistics.mean), 1e-9)
            suite.add(
                Expectation(
                    "mean_between",
                    {"min": statistics.mean - mean_margin, "max": statistics.mean + mean_margin},
                )
            )
    else:
        if statistics.max_length:
            suite.add(
                Expectation(
                    "value_lengths_between",
                    {"min": max(1, statistics.min_length - 2), "max": statistics.max_length + 5},
                    mostly=0.85,
                )
            )
        if statistics.common_templates:
            suite.add(
                Expectation(
                    "values_match_template",
                    {"templates": list(statistics.common_templates)},
                    mostly=0.6,
                )
            )

    if statistics.looks_categorical and 0 < statistics.distinct_count <= max_set_size:
        suite.add(
            Expectation(
                "values_in_set",
                {"values": sorted(set(column.text_values())), "case_sensitive": False},
                mostly=0.8,
            )
        )
    if statistics.looks_like_identifier:
        suite.add(Expectation("unique_fraction_at_least", {"min": 0.9}))
    return suite
