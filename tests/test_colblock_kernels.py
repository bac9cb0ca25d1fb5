"""Parity tests for the block-native columnar kernels (`repro.core.colblock`).

The kernels re-implement the profiling/featurization hot path as vectorized
numpy passes over the typed block layout.  Their contract is byte-exactness:
every statistic a kernel produces must equal — ``repr``-equal, so ``-0.0``,
``nan``-handling, and int-vs-float differences all count — what the seed
per-value Python code produces, with anything outside the kernels'
vocabulary (non-ASCII text, bigints, mixed tags) falling back to that code
path cell-for-cell.  These tests pin the contract field by field; the E15
benchmark pins it end-to-end over full cascade predictions.
"""

from __future__ import annotations

import pickle
import random
import string
import time

import numpy as np
import pytest

from repro.core import colblock
from repro.core.colblock import kernel_character_template, view_from_values
from repro.core.datatypes import parse_number
from repro.core.table import Column, Table
from repro.profiler.statistics import ColumnStatistics, character_template, profile_column


#: The row bound the program ships with, read before any test lowers it.
SHIPPED_MIN_KERNEL_ROWS = colblock.MIN_KERNEL_ROWS


@pytest.fixture(autouse=True)
def _kernels_on_every_column(monkeypatch):
    """Every test gives views to columns of any length (the parity cases are
    short) and starts with pristine counters."""
    monkeypatch.setattr(colblock, "MIN_KERNEL_ROWS", 0)
    colblock.reset_kernel_stats()


def _python_profile(values, name="col"):
    """The seed per-value profile of *values*: a plain list-backed column."""
    return profile_column(Column(name, list(values)))


def _kernel_profile(values, name="col"):
    """The same profile through ``Table.to_block()``'s kernel view."""
    table = Table([Column(name, list(values))], name="t").to_block()
    return profile_column(table.columns[0])


def _assert_profiles_identical(reference: ColumnStatistics, candidate: ColumnStatistics):
    for field_name in ColumnStatistics.__dataclass_fields__:
        expected = getattr(reference, field_name)
        got = getattr(candidate, field_name)
        # repr-equality distinguishes -0.0 from 0.0 and 1 from 1.0.
        assert repr(got) == repr(expected), (
            f"{field_name}: kernel {got!r} != python {expected!r}"
        )


# ----------------------------------------------------------------- templates


def test_character_template_known_cases():
    for value, expected in [
        ("AB-123", "AA-999"),
        ("AB-1234", "AA-999+"),
        ("", ""),
        ("aaaa", "aaa+"),
        ("aaa", "aaa"),
        ("12.5%", "99.9%"),
        ("a1a1a1", "a9a9a9"),
    ]:
        assert character_template(value) == expected
        assert kernel_character_template(value) == expected


def test_character_template_parity_random_ascii():
    rng = random.Random(1234)
    alphabet = string.ascii_letters + string.digits + " .-_/:%$#@!,"
    for _ in range(500):
        length = rng.randint(0, 40)
        value = "".join(rng.choice(alphabet) for _ in range(length))
        assert kernel_character_template(value) == character_template(value)


def test_character_template_parity_digit_runs():
    rng = random.Random(99)
    for _ in range(200):
        # Long homogeneous runs straddling the max_run collapse boundary.
        parts = []
        for _ in range(rng.randint(1, 6)):
            char = rng.choice("aZ9-")
            parts.append(char * rng.randint(1, 8))
        value = "".join(parts)
        for max_run in (1, 2, 3, 5):
            assert kernel_character_template(value, max_run) == character_template(
                value, max_run
            )


def test_character_template_unicode_falls_back_to_none():
    # The byte-level kernel refuses multi-byte text instead of guessing:
    # Python classifies characters, the kernel classifies bytes, and the two
    # disagree on anything beyond ASCII.
    rng = random.Random(7)
    pool = "Bogotá São 東京 Zürich naïve Ω₂ 😀"
    for _ in range(100):
        value = "".join(rng.choice(pool) for _ in range(rng.randint(1, 12)))
        if value.isascii():
            assert kernel_character_template(value) == character_template(value)
        else:
            assert kernel_character_template(value) is None
            # ... and the real template still works on the Python side.
            character_template(value)


# ------------------------------------------------------------ profile parity

PROFILE_CASES = {
    "ascii_text": ["alpha", "beta", "beta", "Gamma-9", None, "", "  padded  "],
    "numeric_strings": ["1", "2.5", "-3", "+4.0", "1e3", "-0", "0.0", None],
    "formatted_numbers": [
        "$1,234.56", "$ 99", "12.5%", "(5)", "$(2.5)", "1.5k", "2M", "3B",
        "1,2,3", "12 %", "12%%", "1e5%", "5k2", "$", "%", "-", "--",
    ],
    "int_cells": [1, 2, 3, 2, None, 0, -7],
    "float_cells": [1.5, -0.0, 2.25, None, 1.5],
    "float_with_nan": [1.0, float("nan"), 2.0, None],
    "bool_cells": [True, False, True, None],
    "mixed_scalars": [1, 2.5, True, None, 0],
    "bigint_cells": [2**63, 1, 2, None],
    "negative_bigint": [-(2**70), 5],
    "all_none": [None, None, None],
    "empty": [],
    "null_tokens": ["N/A", "null", "-", "", None, "n/a", "NONE"],
    "near_numeric_threshold": ["1", "2", "x", "y", None, "3"],
    "long_digits": ["9" * 18, "9" * 19, "123456789012345678"],
    "whitespace_edges": ["  a  ", "\tb\t", " 1 ", "\x1c2\x1c", "   "],
    # "2e400" would parse to inf and crash the *seed* pstdev, so the largest
    # representable magnitudes stand in for the scientific-notation edge.
    "scientific": ["1e308", "1e-308", "-1.5E+10", "2.5e-5"],
    "single_value": ["only"],
    "mixed_text_and_int": ["a", 1, "b", None],
}


@pytest.mark.parametrize("case", sorted(PROFILE_CASES))
def test_profile_parity_per_field(case):
    values = PROFILE_CASES[case]
    _assert_profiles_identical(_python_profile(values), _kernel_profile(values))


def test_derived_value_parity_across_column_api():
    rng = random.Random(2024)
    pool = ["x", "yy", "$5", "1,000", "", None, "12.5%", "N/A", 7, 2.5, True,
            "code-9", "a b", "(3)"]
    for trial in range(25):
        values = [rng.choice(pool) for _ in range(rng.randint(1, 60))]
        ref = Column("c", list(values))
        reference = (
            ref.data_type,
            ref.non_null_values(),
            ref.text_values(),
            [repr(v) for v in ref.numeric_values()],
            ref.value_counts(),
            ref.sample(20, seed=11),
            repr(ref.unique_fraction()),
            repr(ref.null_fraction()),
        )
        block = Table([Column("c", list(values))], name="t").to_block()
        col = block.columns[0]
        got = (
            col.data_type,
            col.non_null_values(),
            col.text_values(),
            [repr(v) for v in col.numeric_values()],
            col.value_counts(),
            col.sample(20, seed=11),
            repr(col.unique_fraction()),
            repr(col.null_fraction()),
        )
        assert got == reference, f"trial {trial}: {values!r}"


def test_numeric_parity_formatted_shapes():
    """The vectorized parse_number fast path agrees with the real function."""
    rng = random.Random(5150)
    digits = "0123456789"

    def core():
        body = "".join(rng.choice(digits) for _ in range(rng.randint(1, 6)))
        if rng.random() < 0.4:
            body += "." + "".join(rng.choice(digits) for _ in range(rng.randint(0, 3)))
        if rng.random() < 0.3:
            pos = rng.randint(0, len(body))
            body = body[:pos] + "," + body[pos:]
        return body

    shapes = [
        lambda: f"${core()}",
        lambda: f"$ {core()}",
        lambda: f"{core()}%",
        lambda: f"{core()} %",
        lambda: f"({core()})",
        lambda: f"$({core()})",
        lambda: f"{core()}{rng.choice('kKmMbB')}",
        lambda: f"-{core()}",
        lambda: f"+{core()}e{rng.randint(0, 20)}",
        lambda: rng.choice(
            ["$", "%", "$$5", "12$", "1%2", "12% %", "(", "()", "5)", "k",
             ",", "5,", ",5", "1,2e3", "$-", "."]
        ),
    ]
    values = [rng.choice(shapes)() for _ in range(400)]
    view = view_from_values(values)
    assert view is not None
    kernel_numbers = colblock.kernel_numeric_values(view)
    assert kernel_numbers is not None
    expected = [
        number
        for number in (parse_number(str(v).strip()) for v in values)
        if number is not None
    ]
    assert [repr(n) for n in kernel_numbers] == [repr(n) for n in expected]


# ------------------------------------------------------- fallback accounting


def test_fallback_counters_and_reasons():
    colblock.reset_kernel_stats()
    _kernel_profile(["São Paulo", "Bogotá", "Lima"])
    stats = colblock.kernel_stats()
    assert stats["kernel_fallbacks"] > 0
    assert stats["fallback_reasons"].get("non-ascii text", 0) > 0

    colblock.reset_kernel_stats()
    _kernel_profile([2**64, 1, 2])
    assert colblock.kernel_stats()["fallback_reasons"].get("bigint cells", 0) > 0

    colblock.reset_kernel_stats()
    _kernel_profile(["text", 1, 2])
    reasons = colblock.kernel_stats()["fallback_reasons"]
    assert reasons.get("mixed text and scalar cells", 0) > 0

    colblock.reset_kernel_stats()
    _kernel_profile(["plain", "ascii", "works"])
    stats = colblock.kernel_stats()
    assert stats["kernel_hits"] > 0
    assert stats["kernel_fallbacks"] == 0


def test_view_rejects_out_of_vocabulary_cells():
    assert view_from_values([object()]) is None
    assert view_from_values([["nested"]]) is None
    assert view_from_values(["fine", 1, None]) is not None


def _reference_text_view(values):
    """Per-cell encoding of a ``str``/``None`` column: a tag per cell, UTF-8
    text, and an empty blob slice per null."""
    tags = np.array(
        [colblock.TAG_NONE if value is None else colblock.TAG_STR for value in values],
        dtype=np.uint8,
    )
    chunks = [b"" if value is None else value.encode("utf-8", "surrogatepass") for value in values]
    offsets = np.zeros(len(values) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([len(chunk) for chunk in chunks], dtype=np.int64)
    return tags, offsets, b"".join(chunks)


def test_text_views_match_the_per_cell_encoding():
    rng = random.Random(0x7E47)
    pool = ["", " ", "a", "Berlin", "$ 1,234.50", "N/A", "null", "x" * 70, "12-34", "\t tab"]
    columns = [
        [None if rng.random() < 0.2 else rng.choice(pool) for _ in range(rng.randint(1, 300))]
        for _ in range(200)
    ]
    columns += [[], [None] * 7, ["São Paulo", None, "Lima", "京都"], [None, "ascii", "naïve"]]
    for values in columns:
        view = view_from_values(values)
        tags, offsets, blob = _reference_text_view(values)
        assert view.tags.dtype == tags.dtype and np.array_equal(view.tags, tags), values
        assert view.offsets.dtype == offsets.dtype and np.array_equal(view.offsets, offsets), values
        assert view.blob[: view.blob_len].tobytes() == blob
        assert not view.blob[view.blob_len:].any()
        assert [view.decode(index) for index in range(len(values))] == values


# ----------------------------------------------------------- to_block plumbing


def test_to_block_attaches_views_and_caches_twin():
    table = Table([Column("a", ["x", "y"]), Column("b", [1, 2])], name="t")
    twin = table.to_block()
    assert twin is not table
    assert all(c._kernel_view() is not None for c in twin.columns)
    # Same values objects, no copy; twin cached per column-list identity.
    assert twin.columns[0].values is table.columns[0].values
    assert table.to_block() is twin
    # A block-native table converts to itself (no pointless re-encode).
    assert twin.to_block() is twin


def test_to_block_invalidated_by_add_column():
    table = Table([Column("a", ["x", "y"])], name="t")
    first = table.to_block()
    table.add_column(Column("b", [1, 2]))
    second = table.to_block()
    assert second is not first
    assert len(second.columns) == 2


def test_to_block_twin_follows_a_column_replaced_through_the_list():
    """A column swapped in through ``table.columns`` gets a twin of its own,
    even when it reuses the address of a column that was swapped out and
    freed.  CPython hands a freed object's memory to the next object of its
    size, so the loop ends at the first such reuse, usually within a few
    swaps; it reports how many swaps that took."""
    rows = 200
    table = Table([Column("code", [f"a{i}" for i in range(rows)])], name="swap")
    swapped_out = set()
    started = time.perf_counter()
    for swaps in range(1, 5001):
        table.to_block()
        swapped_out.add(id(table.columns[-1]))
        values = [f"{swaps}-{i}" for i in range(rows)]
        table.columns.pop()
        table.columns.append(Column("code", values))
        assert table.to_block().columns[-1].values == values, f"stale twin at swap {swaps}"
        if id(table.columns[-1]) in swapped_out:
            break
    else:
        pytest.fail("no column address was reused in 5000 swaps; nothing was tested")
    print(f"address reused at swap {swaps}, {time.perf_counter() - started:.4f}s")


def test_row_bound_picks_the_columnar_path(monkeypatch, pretrained_typer):
    """With the shipped bound, a column one row short of it stays per-value,
    a column of exactly the bound gets a view, and a corpus mixing both
    annotates bit-identically to the per-value path."""
    from repro.corpus import GitTablesConfig, GitTablesGenerator

    bound = SHIPPED_MIN_KERNEL_ROWS
    monkeypatch.setattr(colblock, "MIN_KERNEL_ROWS", bound)
    corpus = [
        table
        for rows in (bound - 1, bound)
        for table in GitTablesGenerator(
            GitTablesConfig(num_tables=2, seed=rows, min_rows=rows, max_rows=rows)
        ).generate_corpus()
    ]
    short, long_ = corpus[0], corpus[-1]
    assert (short.num_rows, long_.num_rows) == (bound - 1, bound)
    assert short.to_block() is short
    assert all(c._kernel_view() is None for c in short.columns)
    assert all(c._kernel_view() is not None for c in long_.to_block().columns)

    reference = [pretrained_typer.annotate(table.copy()) for table in corpus]
    colblock.reset_kernel_stats()
    assert pretrained_typer.annotate_corpus([t.copy() for t in corpus]) == reference
    # Only the long tables' columns reached the kernels.
    data_type = colblock.kernel_stats()["by_op"]["data_type"]
    assert data_type["hits"] + data_type["fallbacks"] == sum(t.num_columns for t in corpus[2:])


def test_pickle_strips_kernel_views():
    twin = Table([Column("a", ["x", "y", "x"])], name="t").to_block()
    reference = profile_column(twin.columns[0])
    clone = pickle.loads(pickle.dumps(twin.columns[0]))
    assert clone._block_view is None
    _assert_profiles_identical(reference, profile_column(clone))


# ------------------------------------------------- views of mixed-type tables


def test_transport_block_roundtrip_profile_parity():
    tables = [
        Table(
            [
                Column("name", ["Ada", "Grace", None, "Edsger"]),
                Column("score", [1.5, -0.0, 2.25, None]),
                Column("count", [1, 2, 3, 4]),
                Column("price", ["$1,234.56", "$ 99", "12.5%", "(5)"]),
                Column("city", ["São Paulo", "Lima", "Quito", "Bogotá"]),
            ],
            name="roundtrip",
        )
    ]
    decoded = tables[0].to_block()

    # Every column gets a view; the non-ASCII city column's *analysis* then
    # refuses to run vectorized.
    assert all(c._kernel_view() is not None for c in decoded.columns)

    colblock.reset_kernel_stats()
    for original, roundtripped in zip(tables[0].columns, decoded.columns):
        _assert_profiles_identical(
            _python_profile(original.values, name=original.name),
            profile_column(roundtripped),
        )
    stats = colblock.kernel_stats()
    assert stats["kernel_hits"] > 0
    assert stats["fallback_reasons"].get("non-ascii text", 0) > 0


# ------------------------------------------------------------- observability


def test_summary_reports_kernel_stats(pretrained_typer):
    colblock.reset_kernel_stats()
    table = Table(
        [Column("email", ["a@b.com", "c@d.org", "e@f.net"])], name="obs"
    )
    pretrained_typer.annotate_corpus([table])
    summary = pretrained_typer.summary()

    kernels = summary["columnar_kernels"]
    assert kernels["kernel_hits"] > 0
    assert set(kernels) >= {
        "kernel_hits", "kernel_fallbacks", "encode_fallbacks", "by_op",
        "fallback_reasons",
    }


def test_transport_block_fuzz_profile_parity():
    """Seeded datagen fuzz: vectorized profiles over ``to_block()`` views
    match the per-value python path for random tables over the full cell-type
    space (the same generator the transport suite uses).  Parity includes
    failure parity: where the seed python path raises (stdlib ``statistics``
    rejects nan/inf), the kernel path must raise the same exception type
    rather than silently produce a number."""
    from datagen import random_table

    rng = random.Random(0xB10C)
    for trial in range(60):
        table = random_table(rng)
        decoded = table.to_block()
        for original, roundtripped in zip(table.columns, decoded.columns):
            try:
                reference = _python_profile(original.values, name=original.name)
            except Exception as seed_error:
                with pytest.raises(type(seed_error)):
                    profile_column(roundtripped)
                continue
            _assert_profiles_identical(reference, profile_column(roundtripped))
