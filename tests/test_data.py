import re

import numpy as np
import pytest

from coldstart.data import (
    ColumnSchema,
    FeatureMatrix,
    RawTable,
    build_dataset,
    split_indices,
)
from coldstart.errors import DataError, SchemaError
from table_cells import cells, make_table


def test_build_dataset_role_forced_projection():
    table = make_table(
        [
            ("id", "id", ["a", "b", "c"]),
            ("length_min", "numeric", [30.0, 45.0, 60.0]),
            ("views", "target", [100.0, 200.0, 300.0]),
        ]
    )
    features, y = build_dataset(table)
    assert [s.name for s in features.schemas] == ["length_min"]
    assert list(y) == [100.0, 200.0, 300.0]


def test_build_dataset_missing_target_cell_errors():
    table = make_table(
        [
            ("x", "numeric", [1.0, 2.0]),
            ("views", "target", [10.0, None]),
        ]
    )
    with pytest.raises(DataError):
        build_dataset(table)


def test_build_dataset_counts():
    # 10 rows, 2 numeric + 1 categorical + target -> 3 feature columns
    n = 10
    table = make_table(
        [
            ("a", "numeric", [float(i) for i in range(n)]),
            ("b", "numeric", [float(i * 2) for i in range(n)]),
            ("c", "categorical", ["x"] * n),
            ("views", "target", [float(i + 1) for i in range(n)]),
        ]
    )
    features, y = build_dataset(table)
    assert len(features.schemas) == 3
    assert len(y) == n


def test_build_dataset_preserves_row_order():
    values = [5.0, 1.0, 9.0, 3.0]
    table = make_table(
        [("x", "numeric", [v * 10 for v in values]), ("views", "target", values)]
    )
    features, y = build_dataset(table)
    for i in range(4):
        assert features.column("x")[i] == y[i] * 10


def test_build_dataset_rejects_negative_target():
    table = make_table([("x", "numeric", [1.0]), ("views", "target", [-1.0])])
    with pytest.raises(DataError):
        build_dataset(table)


@pytest.mark.parametrize(
    "bad, message",
    [(-1.0, "target contains negative values"), (np.inf, "target contains missing or non-finite values"),
     (-np.inf, "target contains missing or non-finite values")],
)
def test_build_dataset_names_the_data_row_of_a_bad_view(bad, message):
    # value i is data row i + 2 of a file with a header; the first bad one is named
    views = [10.0, 20.0, bad, 40.0, bad]
    table = make_table([("x", "numeric", [1.0] * 5), ("views", "target", views)])
    with pytest.raises(DataError, match=re.escape(f"{message} (first at data row 4)")):
        build_dataset(table)


def test_build_dataset_requires_single_target():
    table = make_table([("x", "numeric", [1.0]), ("y", "numeric", [1.0])])
    with pytest.raises(SchemaError):
        build_dataset(table)


def test_split_sizes_and_determinism():
    tr1, te1 = split_indices(10, 0.2, seed=42)
    tr2, te2 = split_indices(10, 0.2, seed=42)
    assert len(tr1) == 8 and len(te1) == 2
    assert list(tr1) == list(tr2) and list(te1) == list(te2)


def test_split_two_rows():
    tr, te = split_indices(2, 0.5, seed=0)
    assert len(tr) == 1 and len(te) == 1


def test_split_partition_enumerated():
    # n=7, fraction=0.3 -> round-half-up(2.1) = 2 test rows
    train_idx, test_idx = split_indices(7, 0.3, seed=1)
    assert len(train_idx) == 5 and len(test_idx) == 2
    assert sorted(set(train_idx) | set(test_idx)) == list(range(7))
    assert set(train_idx) & set(test_idx) == set()


def test_split_partition_property_many():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 60))
        frac = float(rng.uniform(0.05, 0.95))
        seed = int(rng.integers(0, 1 << 30))
        tr, te = split_indices(n, frac, seed)
        assert len(tr) >= 1 and len(te) >= 1
        assert sorted(set(tr) | set(te)) == list(range(n))
        tr2, te2 = split_indices(n, frac, seed)
        assert list(tr) == list(tr2) and list(te) == list(te2)


def test_split_degenerate_inputs():
    with pytest.raises(DataError):
        split_indices(1, 0.5, seed=0)
    with pytest.raises(DataError):
        split_indices(10, 0.0, seed=0)
    with pytest.raises(DataError):
        split_indices(10, 1.0, seed=0)


def test_feature_matrix_rejects_non_finite():
    with pytest.raises(DataError):
        FeatureMatrix(np.array([[1.0, np.nan]]), ["a", "b"])
    with pytest.raises(DataError):
        FeatureMatrix(np.array([[1.0, np.inf]]), ["a", "b"])


def test_raw_table_invariants():
    with pytest.raises(SchemaError, match="duplicate"):
        RawTable(
            [ColumnSchema("a", "numeric"), ColumnSchema("a", "numeric")],
            {"a": np.array([1.0])},
        )
    with pytest.raises(SchemaError, match="ragged"):
        RawTable(
            [ColumnSchema("a", "numeric"), ColumnSchema("b", "numeric")],
            {"a": np.array([1.0]), "b": np.array([1.0, 2.0])},
        )
    with pytest.raises(SchemaError):
        ColumnSchema("a", "bogus_role")


def test_raw_table_from_rows():
    schemas = [ColumnSchema("id", "id"), ColumnSchema("x", "numeric")]
    table = RawTable.from_rows(schemas, [("a", 1.0), ("b", None)])
    assert table.column("id") == ["a", "b"]
    assert cells(table.column("x")) == [1.0, None]
    assert len(table) == table.n_rows == 2
    empty = RawTable.from_rows(schemas, [])
    assert empty.column("id") == [] and empty.column("x").dtype == np.float64
    assert cells(empty.column("x")) == []
    assert len(empty) == 0
    with pytest.raises(SchemaError):
        RawTable.from_rows(schemas, [("a", 1.0), ("b",)])


def test_take_rows_gathers_array_and_list_columns_alike():
    numbers = [1.0, None, 3.5, None, -0.0]
    table = make_table([("a", "numeric", numbers), ("c", "categorical", ["u", "v", None, "w", "u"])])
    for indices in ([4, 0, 2], [1, 1, 3, 1], [], list(range(5))[::-1], np.array([2, 0, 2])):
        rows = table.take_rows(indices)
        assert rows.column("a").dtype == np.float64 and isinstance(rows.column("c"), list)
        assert repr(cells(rows.column("a"))) == repr([numbers[i] for i in indices])
        assert rows.column("c") == [table.column("c")[i] for i in indices]
        assert rows.n_rows == len(indices)
