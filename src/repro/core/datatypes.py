"""Primitive (structural) data types and inference over raw cell values.

Semantic column type detection (the paper's task) sits on top of a much more
basic capability: deciding whether a column holds integers, floats, dates,
booleans, or free text.  Commercial systems such as Trifacta and Tableau call
these *data types* as opposed to *semantic types*; SigmaTyper uses them to
route columns to the right labeling functions and featurizers (numeric
profilers for numeric columns, text features for textual columns).

The functions here operate on *raw cell strings* exactly as they would arrive
from a CSV export of a database table: values may carry currency symbols,
thousands separators, surrounding whitespace, or be missing entirely.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from typing import Iterable, Sequence

__all__ = [
    "DataType",
    "NULL_TOKENS",
    "is_null",
    "parse_bool",
    "parse_number",
    "parse_date",
    "infer_value_type",
    "infer_column_type",
    "coerce_numeric",
]


class DataType(str, Enum):
    """Structural type of a column, inferred from its raw values."""

    TEXT = "text"
    INTEGER = "integer"
    FLOAT = "float"
    BOOLEAN = "boolean"
    DATE = "date"
    DATETIME = "datetime"
    EMPTY = "empty"
    MIXED = "mixed"

    @property
    def is_numeric(self) -> bool:
        """Whether values of this type can be treated as numbers."""
        return self in (DataType.INTEGER, DataType.FLOAT)


#: Cell contents treated as missing values during inference and profiling.
NULL_TOKENS = frozenset(
    {"", "na", "n/a", "nan", "null", "none", "nil", "-", "--", "?", "missing", "#n/a"}
)

_TRUE_TOKENS = frozenset({"true", "t", "yes", "y", "1"})
_FALSE_TOKENS = frozenset({"false", "f", "no", "n", "0"})

_INT_RE = re.compile(r"^[+-]?\d{1,3}(,\d{3})*$|^[+-]?\d+$")
_FLOAT_RE = re.compile(
    r"^[+-]?(\d{1,3}(,\d{3})*|\d+)?(\.\d+)?([eE][+-]?\d+)?%?$"
)
_CURRENCY_RE = re.compile(r"^[\$€£¥]\s?")
_DATE_RES = (
    re.compile(r"^\d{4}-\d{1,2}-\d{1,2}$"),
    re.compile(r"^\d{1,2}/\d{1,2}/\d{2,4}$"),
    re.compile(r"^\d{1,2}-\d{1,2}-\d{2,4}$"),
    re.compile(r"^\d{4}/\d{1,2}/\d{1,2}$"),
    re.compile(
        r"^\d{1,2}\s+(jan|feb|mar|apr|may|jun|jul|aug|sep|oct|nov|dec)[a-z]*\s+\d{4}$",
        re.IGNORECASE,
    ),
    re.compile(
        r"^(jan|feb|mar|apr|may|jun|jul|aug|sep|oct|nov|dec)[a-z]*\s+\d{1,2},?\s+\d{4}$",
        re.IGNORECASE,
    ),
)
_DATETIME_RE = re.compile(
    r"^\d{4}-\d{1,2}-\d{1,2}[ T]\d{1,2}:\d{2}(:\d{2})?(\.\d+)?(Z|[+-]\d{2}:?\d{2})?$"
)
_TIME_RE = re.compile(r"^\d{1,2}:\d{2}(:\d{2})?$")


def is_null(value: object) -> bool:
    """Return ``True`` when *value* should be treated as a missing cell."""
    if value is None:
        return True
    if isinstance(value, float) and math.isnan(value):
        return True
    text = str(value).strip().lower()
    return text in NULL_TOKENS


def parse_bool(value: object) -> bool | None:
    """Parse a cell as a boolean, returning ``None`` when it is not one.

    Bare ``"0"``/``"1"`` are *not* treated as booleans here because integer id
    and count columns would otherwise be mis-typed; column-level inference
    handles the purely-binary-numeric case separately.
    """
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("0", "1"):
        return None
    if text in _TRUE_TOKENS:
        return True
    if text in _FALSE_TOKENS:
        return False
    return None


def parse_number(value: object) -> float | None:
    """Parse a cell as a number, tolerating currency symbols and separators.

    Returns ``None`` when the value cannot be interpreted numerically.
    Percentages (``"12.5%"``) are returned as their face value (``12.5``).
    """
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return None if isinstance(value, float) and math.isnan(value) else float(value)
    text = str(value).strip()
    if not text or text.lower() in NULL_TOKENS:
        return None
    text = _CURRENCY_RE.sub("", text)
    negative = False
    if text.startswith("(") and text.endswith(")"):
        negative = True
        text = text[1:-1]
    text = text.rstrip("%").strip()
    # Magnitude suffixes common in enterprise exports: 50K, 3.2M, 1B.
    multiplier = 1.0
    if text and text[-1] in "kKmMbB" and len(text) > 1:
        suffix = text[-1].lower()
        candidate = text[:-1]
        if re.fullmatch(r"[+-]?[\d,]*\.?\d+", candidate):
            multiplier = {"k": 1e3, "m": 1e6, "b": 1e9}[suffix]
            text = candidate
    text = text.replace(",", "")
    if not re.fullmatch(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?", text):
        return None
    try:
        number = float(text) * multiplier
    except ValueError:  # pragma: no cover - regex should prevent this
        return None
    return -number if negative else number


def parse_date(value: object) -> str | None:
    """Return a normalized marker (``"date"``/``"datetime"``) or ``None``.

    SigmaTyper only needs to know *that* a value is temporal, not its exact
    timestamp, so this parser classifies rather than converts.
    """
    text = str(value).strip()
    if not text:
        return None
    if _DATETIME_RE.match(text):
        return "datetime"
    for pattern in _DATE_RES:
        if pattern.match(text):
            return "date"
    return None


def infer_value_type(value: object) -> DataType:
    """Infer the structural type of a single cell value."""
    if is_null(value):
        return DataType.EMPTY
    if isinstance(value, bool):
        return DataType.BOOLEAN
    if isinstance(value, int):
        return DataType.INTEGER
    if isinstance(value, float):
        return DataType.FLOAT
    text = str(value).strip()
    if parse_bool(text) is not None:
        return DataType.BOOLEAN
    temporal = parse_date(text)
    if temporal == "datetime":
        return DataType.DATETIME
    if temporal == "date":
        return DataType.DATE
    number = parse_number(text)
    if number is not None:
        stripped = _CURRENCY_RE.sub("", text).replace(",", "").rstrip("%")
        if re.fullmatch(r"[+-]?\d+", stripped):
            return DataType.INTEGER
        return DataType.FLOAT
    return DataType.TEXT


def infer_column_type(values: Sequence[object], threshold: float = 0.9) -> DataType:
    """Infer the structural type of a column from its values.

    A column is assigned a non-text type when at least *threshold* of its
    non-null values agree on that type; integer and float votes are merged
    into :data:`DataType.FLOAT` when both are present.  Columns whose values
    disagree are :data:`DataType.MIXED`; columns with no non-null values are
    :data:`DataType.EMPTY`.
    """
    counts: dict[DataType, int] = {}
    total = 0
    for value in values:
        value_type = infer_value_type(value)
        if value_type is DataType.EMPTY:
            continue
        counts[value_type] = counts.get(value_type, 0) + 1
        total += 1
    if total == 0:
        return DataType.EMPTY

    def fraction(*types: DataType) -> float:
        return sum(counts.get(t, 0) for t in types) / total

    if fraction(DataType.INTEGER) >= threshold:
        return DataType.INTEGER
    if fraction(DataType.INTEGER, DataType.FLOAT) >= threshold:
        return DataType.FLOAT
    if fraction(DataType.BOOLEAN) >= threshold:
        return DataType.BOOLEAN
    if fraction(DataType.DATETIME) >= threshold:
        return DataType.DATETIME
    if fraction(DataType.DATE, DataType.DATETIME) >= threshold:
        return DataType.DATE
    if fraction(DataType.TEXT) >= threshold:
        return DataType.TEXT
    return DataType.MIXED


def coerce_numeric(values: Iterable[object]) -> list[float]:
    """Return the numeric interpretations of *values*, dropping non-numbers."""
    numbers = []
    for value in values:
        number = parse_number(value)
        if number is not None:
            numbers.append(number)
    return numbers
