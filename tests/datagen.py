"""Shared seeded data generators for kernel / transport / profiler tests.

One canonical source for the "every supported cell type" table and for
property-style randomized tables, so the suites fuzz the same value space
instead of each maintaining an ad-hoc builder.  Everything is
driven by an explicit ``random.Random`` so failures reproduce from the seed.
"""

from __future__ import annotations

import random

from repro.core.table import Table

#: Text pool crossing the kernel fast path's boundaries: ASCII, empty,
#: non-ASCII (accents, CJK, emoji), control bytes, digit-heavy strings.
WORDS = [
    "alpha",
    "Bravo-2",
    "",
    " ",
    "naïve",
    "京都",
    "Ωmega",
    "✓ done",
    "a\x00b\x1fc",
    "$ 50K",
    "1,234.5",
    "-17%",
    "null",
    "x" * 300,
]

#: Value kinds a column can be drawn from.  "mixed" interleaves all of them;
#: "empty" produces a zero-row column.
KINDS = ("str", "int", "float", "bool", "bigint", "none", "mixed", "empty")

_SCALAR_KINDS = ("str", "int", "float", "bool", "bigint", "none")


def random_value(rng: random.Random, kind: str):
    """One cell value of *kind* (``"mixed"`` picks a scalar kind per cell)."""
    if kind == "mixed":
        kind = rng.choice(_SCALAR_KINDS)
    if kind == "str":
        return rng.choice(WORDS)
    if kind == "int":
        return rng.randint(-(1 << 40), 1 << 40)
    if kind == "float":
        return rng.choice(
            [rng.uniform(-1e6, 1e6), float("nan"), float("inf"), -0.0, 1e-300]
        )
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "bigint":
        return rng.choice([1, -1]) * (1 << rng.randint(64, 120))
    if kind == "none":
        return None
    raise ValueError(f"unknown value kind {kind!r}")


def random_column_values(rng: random.Random, n_rows: int, kind: str | None = None) -> list:
    """*n_rows* cells of one *kind* (random when None), with None sprinkled in."""
    if kind is None:
        kind = rng.choice(KINDS)
    if kind == "empty":
        return []
    values = [random_value(rng, kind) for _ in range(n_rows)]
    # Every kind can carry missing values, as real columns do.
    for index in range(len(values)):
        if rng.random() < 0.1:
            values[index] = None
    return values


def random_table(
    rng: random.Random,
    *,
    name: str | None = None,
    max_columns: int = 5,
    max_rows: int = 9,
) -> Table:
    """A random table over the full supported cell-type space.

    Columns draw independent kinds (including zero-row columns only when the
    whole table has zero rows — columns of one table share a row count),
    metadata and semantic types appear probabilistically.
    """
    n_columns = rng.randint(1, max_columns)
    n_rows = rng.choice([0, rng.randint(1, max_rows)])
    columns = {}
    semantic_types = {}
    for index in range(n_columns):
        column_name = f"{rng.choice(['col', 'Col', 'c_'])}{index}{rng.choice(['', ' µ', '-x'])}"
        kind = rng.choice([k for k in KINDS if k != "empty"])
        columns[column_name] = random_column_values(rng, n_rows, kind)
        if rng.random() < 0.3:
            semantic_types[column_name] = rng.choice(["city", "salary", "name", "company"])
    table = Table.from_columns_dict(
        columns,
        name=name if name is not None else f"t{rng.randrange(1 << 30)}",
        semantic_types=semantic_types,
    )
    if rng.random() < 0.5:
        table.metadata["source"] = rng.choice(["fuzz", {"nested": [1, "two", None]}])
    if table.columns and rng.random() < 0.3:
        table.columns[0].metadata["note"] = ["nested", {"ok": True}]
    return table


def random_corpus(seed: int, num_tables: int, **kwargs) -> list:
    """*num_tables* random tables from one seed (independent of call site)."""
    rng = random.Random(seed)
    return [random_table(rng, name=f"t{index}", **kwargs) for index in range(num_tables)]


def mixed_table() -> Table:
    """A table exercising every supported cell type (and edge values).

    The canonical fixed specimen (formerly duplicated per test module);
    :func:`random_table` is its property-style generalization.
    """
    table = Table.from_columns_dict(
        {
            "Income": ["$ 50K", None, "$ 70K"],
            "counts": [1, -2, 3],
            "floats": [1.5, float("nan"), -0.0],
            "flags": [True, False, None],
            "big": [1 << 80, -(1 << 90), 0],
            "text": ["naïve", "", "a\x00b\x1fc"],
        },
        name="mixed",
        semantic_types={"Income": "salary"},
    )
    table.metadata["source"] = "unit"
    table.columns[0].metadata["note"] = ["nested", {"ok": True}]
    return table
