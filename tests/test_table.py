"""Unit tests for the Table/Column substrate."""

from __future__ import annotations

import pytest

from repro.core.datatypes import DataType
from repro.core.errors import ColumnNotFoundError, TableError
from repro.core.table import Column, Table


@pytest.fixture()
def sample_table() -> Table:
    return Table.from_columns_dict(
        {
            "id": ["1", "2", "3", "4"],
            "name": ["Ann", "Bob", "Cat", None],
            "salary": ["50000", "60000", "70000", "80000"],
        },
        name="people",
        semantic_types={"salary": "salary", "name": "name"},
    )


class TestColumn:
    def test_length_and_iteration(self):
        column = Column("x", ["a", "b", "c"])
        assert len(column) == 3
        assert list(column) == ["a", "b", "c"]

    def test_data_type_inference_is_cached(self):
        column = Column("x", ["1", "2", "3"])
        assert column.data_type is DataType.INTEGER
        column.values.append("not a number")
        # Cached value remains until explicitly invalidated.
        assert column.data_type is DataType.INTEGER
        column.invalidate_cache()
        assert column.data_type is not DataType.INTEGER

    def test_non_null_values(self):
        column = Column("x", ["a", None, "", "b", "N/A"])
        assert column.non_null_values() == ["a", "b"]

    def test_null_fraction(self):
        column = Column("x", ["a", None, "b", None])
        assert column.null_fraction() == 0.5

    def test_null_fraction_empty_column(self):
        assert Column("x", []).null_fraction() == 0.0

    def test_numeric_values(self):
        column = Column("x", ["$1,000", "2000", "abc"])
        assert column.numeric_values() == [1000.0, 2000.0]

    def test_unique_values_order_preserved(self):
        column = Column("x", ["b", "a", "b", "c", "a"])
        assert column.unique_values() == ["b", "a", "c"]

    def test_unique_fraction(self):
        column = Column("x", ["a", "a", "b", "b"])
        assert column.unique_fraction() == 0.5

    def test_most_frequent_values(self):
        column = Column("x", ["a", "b", "a", "c", "a", "b"])
        assert column.most_frequent_values(2) == ["a", "b"]

    def test_sample_is_reproducible(self):
        column = Column("x", [str(i) for i in range(100)])
        assert column.sample(10, seed=1) == column.sample(10, seed=1)
        assert len(column.sample(10, seed=1)) == 10

    def test_sample_smaller_than_k_returns_all(self):
        column = Column("x", ["a", "b"])
        assert column.sample(10) == ["a", "b"]

    def test_rename_and_with_values_copy(self):
        column = Column("x", ["a"], semantic_type="name")
        renamed = column.rename("y")
        assert renamed.name == "y"
        assert renamed.semantic_type == "name"
        replaced = column.with_values(["z"])
        assert replaced.values == ["z"]
        assert column.values == ["a"]

    def test_round_trip_dict(self):
        column = Column("x", ["a", None], semantic_type="name", metadata={"k": 1})
        restored = Column.from_dict(column.to_dict())
        assert restored.name == column.name
        assert restored.values == column.values
        assert restored.semantic_type == column.semantic_type
        assert restored.metadata == column.metadata

    def test_from_view_skips_materialization(self):
        view_values = ("a", "b")  # any immutable sequence
        column = Column.from_view("c", view_values, semantic_type="city")
        assert column.values is view_values
        assert column.semantic_type == "city"
        assert column.copy().values == ["a", "b"]


class TestTable:
    def test_shape(self, sample_table):
        assert sample_table.shape == (4, 3)
        assert sample_table.num_rows == 4
        assert sample_table.num_columns == 3

    def test_ragged_columns_rejected(self):
        with pytest.raises(TableError):
            Table([Column("a", ["1"]), Column("b", ["1", "2"])])

    def test_column_access_by_name_and_index(self, sample_table):
        assert sample_table.column("name").name == "name"
        assert sample_table.column(0).name == "id"
        assert sample_table["salary"].semantic_type == "salary"

    def test_missing_column_raises(self, sample_table):
        with pytest.raises(ColumnNotFoundError):
            sample_table.column("does_not_exist")
        with pytest.raises(ColumnNotFoundError):
            sample_table.column(99)

    def test_contains(self, sample_table):
        assert "id" in sample_table
        assert "missing" not in sample_table

    def test_row_access(self, sample_table):
        assert sample_table.row(0) == ["1", "Ann", "50000"]
        with pytest.raises(TableError):
            sample_table.row(10)

    def test_rows_iterator(self, sample_table):
        rows = list(sample_table.rows())
        assert len(rows) == 4
        assert rows[1] == ["2", "Bob", "60000"]

    def test_add_column_enforces_shape(self, sample_table):
        sample_table.add_column(Column("extra", ["a", "b", "c", "d"]))
        assert sample_table.num_columns == 4
        with pytest.raises(TableError):
            sample_table.add_column(Column("bad", ["only one"]))

    def test_drop_and_select_columns(self, sample_table):
        dropped = sample_table.drop_column("id")
        assert dropped.column_names == ["name", "salary"]
        selected = sample_table.select_columns(["salary", "id"])
        assert selected.column_names == ["salary", "id"]
        # Original is untouched.
        assert sample_table.column_names == ["id", "name", "salary"]

    def test_head_and_sample_rows(self, sample_table):
        assert sample_table.head(2).num_rows == 2
        sampled = sample_table.sample_rows(2, seed=3)
        assert sampled.num_rows == 2
        assert sample_table.sample_rows(10).num_rows == 4

    def test_from_rows_validates_width(self):
        with pytest.raises(TableError):
            Table.from_rows(["a", "b"], [["1"]])

    def test_from_rows_with_semantic_types(self):
        table = Table.from_rows(["a", "b"], [["1", "x"]], semantic_types=["id", None])
        assert table.column("a").semantic_type == "id"
        assert table.column("b").semantic_type is None

    def test_round_trip_dict(self, sample_table):
        restored = Table.from_dict(sample_table.to_dict())
        assert restored.column_names == sample_table.column_names
        assert restored.num_rows == sample_table.num_rows
        assert restored.column("salary").semantic_type == "salary"

    def test_semantic_types_listing(self, sample_table):
        assert sample_table.semantic_types() == [None, "name", "salary"]

    def test_preview_renders(self, sample_table):
        preview = sample_table.preview(2)
        assert "id" in preview and "salary" in preview
        assert len(preview.splitlines()) == 4

    def test_copy_is_independent(self, sample_table):
        copy = sample_table.copy()
        copy.column("id").values[0] = "changed"
        assert sample_table.column("id").values[0] == "1"

    def test_map_columns(self, sample_table):
        upper = sample_table.map_columns(lambda c: c.rename(c.name.upper()))
        assert upper.column_names == ["ID", "NAME", "SALARY"]
