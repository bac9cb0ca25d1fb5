"""Relational table substrate used throughout SigmaTyper.

The paper operates on enterprise tables exported from databases and data
warehouses.  This module provides the in-memory representation of those
tables: :class:`Column` (a header plus a sequence of raw cell values and an
optional ground-truth semantic annotation) and :class:`Table` (an ordered
collection of columns with rectangular shape).

Values are stored as raw strings (or ``None``), exactly as they appear in a
CSV export — type interpretation is performed lazily by
:mod:`repro.core.datatypes` and cached on the column.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.core import colblock
from repro.core.datatypes import DataType, coerce_numeric, infer_column_type, is_null
from repro.core.errors import ColumnNotFoundError, TableError

__all__ = ["Column", "Table"]


@dataclass
class Column:
    """A single table column: header, raw values, and optional annotation.

    Parameters
    ----------
    name:
        The column header as it appears in the source table.  May be empty
        (headerless exports are common in practice).
    values:
        Raw cell values.  ``None`` and recognised null tokens (``"N/A"``,
        ``""``, ...) are treated as missing.
    semantic_type:
        Optional *ground-truth* semantic type used by the corpus generators,
        the evaluation harness, and tests.  Production inputs leave it
        ``None``; predictions never read it.
    metadata:
        Free-form provenance information (source table, generator parameters,
        customer id, ...).
    """

    name: str
    values: list[object]
    semantic_type: str | None = None
    metadata: dict[str, object] = field(default_factory=dict)
    _data_type: DataType | None = field(default=None, repr=False, compare=False)
    #: Memoized derived state (value views, samples, profiles).  Keyed by a
    #: descriptive tuple; cleared as one unit by :meth:`invalidate_cache`.
    #: The cached lists are shared with callers and must not be mutated.
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    #: Columnar kernel view over the block layout (``repro.core.colblock``),
    #: attached by :meth:`Table.to_block`; ``None`` on plain columns.
    _block_view: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.values = list(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[object]:
        return iter(self.values)

    def _kernel_view(self):
        """The kernel view :meth:`Table.to_block` attached, or ``None``."""
        return self._block_view

    def __getstate__(self) -> dict:
        # Kernel views are derived numpy state: dropping them keeps pickles
        # (and the transport's bytes accounting) free of them, and each shard
        # builds its own with Table.to_block() where it runs.
        state = dict(self.__dict__)
        state["_block_view"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    @property
    def data_type(self) -> DataType:
        """Structural type of the column, inferred once and cached."""
        if self._data_type is None:
            view = self._kernel_view()
            if view is not None:
                self._data_type = colblock.kernel_data_type(view)
            if self._data_type is None:
                self._data_type = infer_column_type(self.values)
        return self._data_type

    def invalidate_cache(self) -> None:
        """Drop cached derived state after the values were mutated.

        Clears the column-private memo, the inferred structural type, and the
        kernel view.  Call this after mutating ``values`` in place; the
        derived views are otherwise assumed immutable.
        """
        self._data_type = None
        self._derived.clear()
        self._block_view = None

    def _memo(self, key: object, compute: Callable[[], object]) -> object:
        """Return the cached value for *key*, computing it on first access."""
        derived = self._derived
        try:
            return derived[key]
        except KeyError:
            value = derived[key] = compute()
            return value

    def non_null_values(self) -> list[object]:
        """Values that are not recognised as missing (cached; do not mutate)."""

        def compute() -> list[object]:
            view = self._kernel_view()
            if view is not None:
                indices = colblock.kernel_non_null_indices(view)
                if indices is not None:
                    values = self.values
                    return [values[i] for i in indices]
            return [value for value in self.values if not is_null(value)]

        return self._memo("non_null", compute)

    def null_fraction(self) -> float:
        """Fraction of cells that are missing; 0.0 for an empty column."""
        if not self.values:
            return 0.0
        view = self._kernel_view()
        if view is not None:
            # Memoized: callers probe this per neighbor (table context), so
            # the kernel op must not re-run — and re-count — on every call.
            def compute() -> float | None:
                count = colblock.kernel_non_null_count(view)
                if count is None:
                    return None
                return (len(self.values) - count) / len(self.values)

            fraction = self._memo("kernel_null_fraction", compute)
            if fraction is not None:
                return fraction
        nulls = len(self.values) - len(self.non_null_values())
        return nulls / len(self.values)

    def text_values(self) -> list[str]:
        """Non-null values rendered as stripped strings (cached; do not mutate)."""

        def compute() -> list[str]:
            view = self._kernel_view()
            if view is not None:
                texts = colblock.kernel_text_values(view)
                if texts is not None:
                    return texts
            return [str(value).strip() for value in self.non_null_values()]

        return self._memo("text", compute)

    def numeric_values(self) -> list[float]:
        """Non-null values parsed as numbers (non-numeric cells dropped)."""

        def compute() -> list[float]:
            view = self._kernel_view()
            if view is not None:
                numbers = colblock.kernel_numeric_values(view)
                if numbers is not None:
                    return numbers
            return coerce_numeric(self.non_null_values())

        return self._memo("numeric", compute)

    def unique_values(self) -> list[str]:
        """Distinct non-null string values, in first-seen order."""
        return list(self.value_counts())

    def unique_fraction(self) -> float:
        """Ratio of distinct values to non-null values (0.0 when empty)."""
        view = self._kernel_view()
        if view is not None:
            fraction = self._memo(
                "kernel_unique_fraction",
                lambda: colblock.kernel_unique_fraction(view),
            )
            if fraction is not None:
                return fraction
        non_null = self.text_values()
        if not non_null:
            return 0.0
        return len(self.value_counts()) / len(non_null)

    def value_counts(self) -> dict[str, int]:
        """Occurrence counts of the non-null string values (cached; do not mutate)."""

        def compute() -> dict[str, int]:
            view = self._kernel_view()
            if view is not None:
                counts = colblock.kernel_value_counts(view)
                if counts is not None:
                    return counts
            counts = {}
            for value in self.text_values():
                counts[value] = counts.get(value, 0) + 1
            return counts

        return self._memo("value_counts", compute)

    def most_frequent_values(self, k: int = 5) -> list[str]:
        """The *k* most frequent values, ties broken by first appearance."""
        counts = self.value_counts()
        order = {value: index for index, value in enumerate(counts)}
        ranked = sorted(counts, key=lambda v: (-counts[v], order[v]))
        return ranked[:k]

    def sample(self, k: int, seed: int | None = None) -> list[object]:
        """A reproducible sample of at most *k* non-null values.

        Seeded samples are deterministic and therefore memoized per
        ``(k, seed)``; unseeded calls stay freshly random on every call.
        """

        def compute() -> list[object]:
            view = self._kernel_view()
            if view is not None:
                indices = colblock.kernel_sample_indices(view, k, seed)
                if indices is not None:
                    values = self.values
                    return [values[i] for i in indices]
            non_null = self.non_null_values()
            if len(non_null) <= k:
                return list(non_null)
            rng = random.Random(seed)
            return rng.sample(non_null, k)

        if seed is None:
            return compute()
        return self._memo(("sample", k, seed), compute)

    def head(self, n: int = 5) -> list[object]:
        """The first *n* raw values."""
        return self.values[:n]

    def rename(self, new_name: str) -> "Column":
        """Return a copy of this column with a different header."""
        return Column(
            name=new_name,
            values=list(self.values),
            semantic_type=self.semantic_type,
            metadata=dict(self.metadata),
        )

    def with_values(self, values: Sequence[object]) -> "Column":
        """Return a copy of this column with replaced values."""
        return Column(
            name=self.name,
            values=list(values),
            semantic_type=self.semantic_type,
            metadata=dict(self.metadata),
        )

    def copy(self) -> "Column":
        """Deep-enough copy (values list and metadata dict are duplicated)."""
        return Column(
            name=self.name,
            values=list(self.values),
            semantic_type=self.semantic_type,
            metadata=dict(self.metadata),
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable representation."""
        return {
            "name": self.name,
            "values": list(self.values),
            "semantic_type": self.semantic_type,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Column":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=str(payload.get("name", "")),
            values=list(payload.get("values", [])),  # type: ignore[arg-type]
            semantic_type=payload.get("semantic_type"),  # type: ignore[arg-type]
            metadata=dict(payload.get("metadata", {})),  # type: ignore[arg-type]
        )

    @classmethod
    def from_view(
        cls,
        name: str,
        values: Sequence[object],
        semantic_type: str | None = None,
        metadata: dict[str, object] | None = None,
        block_view: object | None = None,
    ) -> "Column":
        """Build a column over *values* without copying them into a list.

        :meth:`Table.to_block` builds its twin columns this way: the twin
        shares the source column's values list, bypassing the ``list(...)``
        copy of the normal constructor, and carries *block_view*.
        """
        column = object.__new__(cls)
        column.name = name
        column.values = values  # type: ignore[assignment] - deliberate view
        column.semantic_type = semantic_type
        column.metadata = metadata if metadata is not None else {}
        column._data_type = None
        column._derived = {}
        column._block_view = block_view
        return column


class Table:
    """An ordered, rectangular collection of named columns.

    Tables are the unit of work for the whole system: the corpus generators
    emit them, the pipeline annotates them, and the DPBD subsystem derives
    labeling functions from them.
    """

    def __init__(
        self,
        columns: Sequence[Column],
        name: str = "",
        metadata: Mapping[str, object] | None = None,
    ) -> None:
        columns = list(columns)
        if columns:
            lengths = {len(column) for column in columns}
            if len(lengths) > 1:
                raise TableError(
                    f"table {name!r} has ragged columns with lengths {sorted(lengths)}"
                )
        self.name = name
        self.columns: list[Column] = columns
        self.metadata: dict[str, object] = dict(metadata or {})
        # Cached result of to_block() and the column objects it was built
        # from (see to_block).
        self._block_twin: "Table | None" = None
        self._block_twin_source: tuple[Column, ...] | None = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_block_twin"] = None
        state["_block_twin_source"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------ shape
    @property
    def num_rows(self) -> int:
        """Number of rows (0 for a table with no columns)."""
        return len(self.columns[0]) if self.columns else 0

    @property
    def num_columns(self) -> int:
        """Number of columns."""
        return len(self.columns)

    @property
    def shape(self) -> tuple[int, int]:
        """``(num_rows, num_columns)``."""
        return (self.num_rows, self.num_columns)

    @property
    def column_names(self) -> list[str]:
        """Headers in column order."""
        return [column.name for column in self.columns]

    def __len__(self) -> int:
        return self.num_rows

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __contains__(self, column_name: str) -> bool:
        return any(column.name == column_name for column in self.columns)

    def __repr__(self) -> str:
        return f"Table(name={self.name!r}, shape={self.shape})"

    # ----------------------------------------------------------------- access
    def column(self, key: int | str) -> Column:
        """Return a column by positional index or by header name."""
        if isinstance(key, int):
            try:
                return self.columns[key]
            except IndexError as exc:
                raise ColumnNotFoundError(str(key), self.column_names) from exc
        for column in self.columns:
            if column.name == key:
                return column
        raise ColumnNotFoundError(key, self.column_names)

    def __getitem__(self, key: int | str) -> Column:
        return self.column(key)

    def column_index(self, column_name: str) -> int:
        """Positional index of the column with header *column_name*."""
        for index, column in enumerate(self.columns):
            if column.name == column_name:
                return index
        raise ColumnNotFoundError(column_name, self.column_names)

    def row(self, index: int) -> list[object]:
        """The values of row *index* across all columns."""
        if not 0 <= index < self.num_rows:
            raise TableError(f"row index {index} out of range for {self.num_rows} rows")
        return [column.values[index] for column in self.columns]

    def rows(self) -> Iterator[list[object]]:
        """Iterate over rows as lists of cell values."""
        for index in range(self.num_rows):
            yield self.row(index)

    def semantic_types(self) -> list[str | None]:
        """Ground-truth annotations per column (``None`` when unlabelled)."""
        return [column.semantic_type for column in self.columns]

    # ------------------------------------------------------------- mutation-ish
    def add_column(self, column: Column) -> None:
        """Append a column, enforcing the rectangular-shape invariant."""
        if self.columns and len(column) != self.num_rows:
            raise TableError(
                f"cannot add column {column.name!r} with {len(column)} values "
                f"to a table with {self.num_rows} rows"
            )
        self.columns.append(column)
        self._block_twin = None
        self._block_twin_source = None

    def drop_column(self, key: int | str) -> "Table":
        """Return a new table without the addressed column."""
        target = self.column(key)
        remaining = [c for c in self.columns if c is not target]
        return Table([c.copy() for c in remaining], name=self.name, metadata=self.metadata)

    def select_columns(self, keys: Iterable[int | str]) -> "Table":
        """Return a new table restricted to the addressed columns (in order)."""
        selected = [self.column(key).copy() for key in keys]
        return Table(selected, name=self.name, metadata=self.metadata)

    def head(self, n: int = 5) -> "Table":
        """Return a new table with only the first *n* rows."""
        clipped = [column.with_values(column.values[:n]) for column in self.columns]
        return Table(clipped, name=self.name, metadata=self.metadata)

    def sample_rows(self, k: int, seed: int | None = None) -> "Table":
        """Return a new table with a reproducible sample of at most *k* rows."""
        if self.num_rows <= k:
            return self.copy()
        rng = random.Random(seed)
        indices = sorted(rng.sample(range(self.num_rows), k))
        sampled = [
            column.with_values([column.values[i] for i in indices])
            for column in self.columns
        ]
        return Table(sampled, name=self.name, metadata=self.metadata)

    def map_columns(self, transform: Callable[[Column], Column]) -> "Table":
        """Return a new table with *transform* applied to every column."""
        return Table(
            [transform(column) for column in self.columns],
            name=self.name,
            metadata=self.metadata,
        )

    def copy(self) -> "Table":
        """Deep-enough copy of the table."""
        return Table(
            [column.copy() for column in self.columns],
            name=self.name,
            metadata=dict(self.metadata),
        )

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_rows(
        cls,
        header: Sequence[str],
        rows: Iterable[Sequence[object]],
        name: str = "",
        semantic_types: Sequence[str | None] | None = None,
    ) -> "Table":
        """Build a table from a header and an iterable of row tuples."""
        header = list(header)
        materialised = [list(row) for row in rows]
        for row in materialised:
            if len(row) != len(header):
                raise TableError(
                    f"row with {len(row)} cells does not match header of {len(header)}"
                )
        columns = []
        for index, column_name in enumerate(header):
            values = [row[index] for row in materialised]
            annotation = None
            if semantic_types is not None and index < len(semantic_types):
                annotation = semantic_types[index]
            columns.append(Column(column_name, values, semantic_type=annotation))
        return cls(columns, name=name)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Table":
        """Inverse of :meth:`to_dict`."""
        columns = [Column.from_dict(c) for c in payload.get("columns", [])]  # type: ignore[union-attr]
        return cls(
            columns,
            name=str(payload.get("name", "")),
            metadata=dict(payload.get("metadata", {})),  # type: ignore[arg-type]
        )

    def to_block(self) -> "Table":
        """Columnar twin of this table: same cell values, kernel views attached.

        The serial-path adapter of the block-native kernels: each column of
        at least :data:`~repro.core.colblock.MIN_KERNEL_ROWS` rows is encoded
        once into the typed tag/offset/blob layout
        (:func:`repro.core.colblock.view_from_values`) and a new
        :class:`Column` is built over the *same* values list with the view
        attached, so profiling and featurization run vectorized while every
        per-value fallback still sees the original Python objects.  Shorter
        columns, and columns whose cells fall outside the block vocabulary
        (counted in ``kernel_stats()["encode_fallbacks"]``), enter the twin
        unchanged and keep the per-value path.

        The twin is cached against the column objects it was built from,
        compared with ``is``: the cache holds them, so a replaced column's
        freed address cannot be mistaken for it.  :meth:`add_column`
        invalidates it.  Twins share values and metadata with the source —
        mutate-and-invalidate workflows should drop the twin and re-convert.
        When no column gets a new view the table itself is returned.
        """
        source = self._block_twin_source
        if (
            source is None
            or len(source) != len(self.columns)
            or any(old is not new for old, new in zip(source, self.columns))
        ):
            columns = []
            for column in self.columns:
                view = None
                # Columns that already carry a view (a twin's own columns)
                # are block-native as-is.
                if len(column) >= colblock.MIN_KERNEL_ROWS and column._kernel_view() is None:
                    view = colblock.view_from_values(column.values)
                    if view is None:
                        colblock.record_encode_fallback()
                columns.append(
                    column
                    if view is None
                    else Column.from_view(
                        column.name,
                        column.values,
                        semantic_type=column.semantic_type,
                        metadata=column.metadata,
                        block_view=view,
                    )
                )
            changed = any(new is not old for new, old in zip(columns, self.columns))
            self._block_twin = Table(columns, name=self.name, metadata=self.metadata) if changed else None
            self._block_twin_source = tuple(self.columns)
        return self if self._block_twin is None else self._block_twin

    @classmethod
    def from_columns_dict(
        cls,
        data: Mapping[str, Sequence[object]],
        name: str = "",
        semantic_types: Mapping[str, str] | None = None,
    ) -> "Table":
        """Build a table from ``{header: values}`` (insertion order preserved)."""
        semantic_types = dict(semantic_types or {})
        columns = [
            Column(header, list(values), semantic_type=semantic_types.get(header))
            for header, values in data.items()
        ]
        return cls(columns, name=name)

    # ------------------------------------------------------------ serialization
    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable representation (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "metadata": dict(self.metadata),
            "columns": [column.to_dict() for column in self.columns],
        }

    def to_rows(self) -> tuple[list[str], list[list[object]]]:
        """Return ``(header, rows)`` suitable for CSV writing."""
        return self.column_names, [self.row(i) for i in range(self.num_rows)]

    def preview(self, n: int = 5) -> str:
        """A small fixed-width textual rendering for logs and examples."""
        header = self.column_names
        rows = [self.row(i) for i in range(min(n, self.num_rows))]
        rendered_rows = [[("" if is_null(cell) else str(cell)) for cell in row] for row in rows]
        widths = [
            max(len(str(header[i])), *(len(row[i]) for row in rendered_rows), 1)
            if rendered_rows
            else max(len(str(header[i])), 1)
            for i in range(len(header))
        ]
        lines = [
            " | ".join(str(h).ljust(w) for h, w in zip(header, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        for row in rendered_rows:
            lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)
