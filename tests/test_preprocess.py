import math

import numpy as np
import pytest

from coldstart.data import ColumnSchema, build_dataset
from coldstart.errors import DataError, SchemaError
from coldstart.preprocess import (
    CategoricalColumnState,
    NumericColumnState,
    Preprocessor,
    fit_preprocessor,
    preprocessor_from_dict,
    preprocessor_to_dict,
    transform,
)
from table_cells import cells, make_table


def test_mean_imputation_and_population_std():
    # the median of [1, 3] is also its mean; the stored mean and std are
    # those of the imputed column, and the std is the population std
    table = make_table([("x", "numeric", [1.0, None, 3.0])])
    prep = fit_preprocessor(table)
    col = prep.numeric[0]
    assert col.impute_value == 2.0
    assert col.mean == 2.0
    assert abs(col.std - math.sqrt(2.0 / 3.0)) < 1e-15


def test_median_imputation():
    table = make_table([("x", "numeric", [1.0, None, 2.0, 10.0])])
    prep = fit_preprocessor(table)
    assert prep.numeric[0].impute_value == 2.0


def test_mode_imputation_and_categories():
    table = make_table([("c", "categorical", ["a", "a", "b"])])
    prep = fit_preprocessor(table)
    col = prep.categorical[0]
    assert col.impute_category == "a"
    assert col.categories == ["a", "b"]


def test_mode_tie_breaks_lexicographically():
    table = make_table([("c", "categorical", ["b", "a", "b", "a"])])
    prep = fit_preprocessor(table)
    assert prep.categorical[0].impute_category == "a"


def test_constant_column_stores_zero_std():
    table = make_table([("x", "numeric", [5.0, 5.0, 5.0])])
    prep = fit_preprocessor(table)
    assert prep.numeric[0].std == 0.0
    # std=0 transforms with divisor 1
    out = transform(prep, table)
    assert np.allclose(out.values, 0.0)


def test_all_missing_numeric_errors():
    table = make_table([("x", "numeric", [None, None])])
    with pytest.raises(DataError):
        fit_preprocessor(table)


def test_centering_identity():
    table = make_table([("x", "numeric", [1.0, 2.0, 3.0])])
    prep = fit_preprocessor(table)
    probe = make_table([("x", "numeric", [2.0])])
    assert transform(prep, probe).values[0, 0] == 0.0


def test_one_hot_known_and_unknown():
    table = make_table([("c", "categorical", ["a", "b", "c"])])
    prep = fit_preprocessor(table)
    out = transform(prep, make_table([("c", "categorical", ["b"])]))
    assert list(out.values[0]) == [0.0, 1.0, 0.0]
    out = transform(prep, make_table([("c", "categorical", ["d"])]))
    assert list(out.values[0]) == [0.0, 0.0, 0.0]
    assert out.feature_names == ["c=a", "c=b", "c=c"]


def test_transform_of_fit_data_is_standardized():
    rng = np.random.default_rng(3)
    table = make_table(
        [
            ("x", "numeric", list(rng.normal(50.0, 9.0, size=200))),
            ("z", "numeric", list(rng.uniform(-4.0, 4.0, size=200))),
        ]
    )
    prep = fit_preprocessor(table)
    out = transform(prep, table)
    for j in range(2):
        assert abs(out.values[:, j].mean()) <= 1e-9
        assert abs(out.values[:, j].std() - 1.0) <= 1e-9


def test_row_wise_independence():
    table = make_table(
        [
            ("x", "numeric", [1.0, None, 7.0, 3.0]),
            ("c", "categorical", ["a", "b", None, "a"]),
        ]
    )
    prep = fit_preprocessor(table)
    full = transform(prep, table)
    for i in range(table.n_rows):
        row = table.take_rows([i])
        single = transform(prep, row)
        assert np.array_equal(single.values[0], full.values[i])


def test_one_hot_row_sums():
    table = make_table([("c", "categorical", ["a", "b", None, "a"])])
    prep = fit_preprocessor(table)
    probe = make_table([("c", "categorical", ["a", "zz", None, "b"])])
    out = transform(prep, probe)
    sums = out.values.sum(axis=1)
    assert set(sums.tolist()) <= {0.0, 1.0}


def test_fit_transform_never_emits_missing():
    rng = np.random.default_rng(11)
    values = [None if rng.random() < 0.3 else float(rng.normal()) for _ in range(100)]
    cats = [None if rng.random() < 0.3 else str(rng.integers(0, 4)) for _ in range(100)]
    table = make_table([("x", "numeric", values), ("c", "categorical", cats)])
    prep = fit_preprocessor(table)
    out = transform(prep, table)
    assert np.all(np.isfinite(out.values))


def test_column_order_numeric_then_onehot():
    table = make_table(
        [
            ("c", "categorical", ["a", "b"]),
            ("x", "numeric", [1.0, 2.0]),
        ]
    )
    prep = fit_preprocessor(table)
    out = transform(prep, table)
    assert out.feature_names == ["x", "c=a", "c=b"]


def test_schema_mismatch():
    prep = fit_preprocessor(make_table([("x", "numeric", [1.0, 2.0])]))
    other = make_table([("y", "numeric", [1.0, 2.0])])
    with pytest.raises(SchemaError):
        transform(prep, other)


def test_date_column_rejected():
    import datetime

    table = make_table([("d", "date", [datetime.date(2016, 1, 1)])])
    with pytest.raises(SchemaError):
        fit_preprocessor(table)


def test_serialization_round_trip():
    table = make_table(
        [
            ("x", "numeric", [1.0, None, 3.5]),
            ("c", "categorical", ["a", "b", None]),
        ]
    )
    prep = fit_preprocessor(table)
    clone = preprocessor_from_dict(preprocessor_to_dict(prep))
    out1 = transform(prep, table)
    out2 = transform(clone, table)
    assert np.array_equal(out1.values, out2.values)
    assert out1.feature_names == out2.feature_names


# --- the column-at-a-time fit and transform against the per-cell reference ---


def reference_fit(features):
    """fit_preprocessor as a loop over cells, read as Python values (None missing)."""
    numeric, categorical = [], []
    for schema in features.schemas:
        values = cells(features.column(schema.name))
        if schema.role == "numeric":
            present = np.asarray([v for v in values if v is not None], dtype=float)
            if len(present) == 0:
                raise DataError("entirely missing")
            impute = float(np.median(present))
            filled = np.asarray([impute if v is None else float(v) for v in values])
            numeric.append(NumericColumnState(schema.name, impute, float(filled.mean()), float(filled.std())))
        elif schema.role == "categorical":
            present = [str(v) for v in values if v is not None]
            if not present:
                raise DataError("entirely missing")
            counts = {}
            for v in present:
                counts[v] = counts.get(v, 0) + 1
            best = max(counts.values())
            impute = min(v for v, c in counts.items() if c == best)
            categorical.append(CategoricalColumnState(schema.name, impute, sorted(set(present))))
    return Preprocessor(numeric, categorical, [(s.name, s.role) for s in features.schemas])


def reference_transform(prep, features):
    """transform as a loop over cells, read as Python values (None missing)."""
    n = features.n_rows
    blocks = []
    for col in prep.numeric:
        filled = np.asarray([col.impute_value if v is None else float(v) for v in cells(features.column(col.name))])
        blocks.append(((filled - col.mean) / (col.std if col.std > 0 else 1.0)).reshape(n, 1))
    for col in prep.categorical:
        block = np.zeros((n, len(col.categories)))
        index = {cat: j for j, cat in enumerate(col.categories)}
        for i, v in enumerate(cells(features.column(col.name))):
            j = index.get(col.impute_category if v is None else str(v))
            if j is not None:
                block[i, j] = 1.0
        blocks.append(block)
    return np.hstack(blocks)


def reference_names(prep):
    """Feature names in the reference transform's column order."""
    return (
        [c.name for c in prep.numeric]
        + [f"{c.name}={cat}" for c in prep.categorical for cat in c.categories]
    )


def bits(x):
    return np.float64(x).tobytes()


def state_key(prep):
    """Fitted state with every float as its bytes, so equality is bitwise."""
    return (
        [(c.name, bits(c.impute_value), bits(c.mean), bits(c.std)) for c in prep.numeric],
        [(c.name, c.impute_category, list(c.categories)) for c in prep.categorical],
        list(prep.schema),
    )


def random_cells(rng, role, n, missing, pool):
    cells = []
    for _ in range(n):
        if rng.random() < missing:
            cells.append(None)
        elif role == "categorical":
            cells.append(pool[int(rng.integers(len(pool)))])
        elif rng.random() < 0.4:
            cells.append(int(rng.integers(-50, 50)))
        else:
            cells.append(float(np.round(rng.normal(10.0, 30.0), int(rng.integers(0, 4)))))
    return cells


def random_case(rng):
    """A fit table and a transform table with one schema."""
    schema = [ColumnSchema(f"x{j}", "numeric") for j in range(int(rng.integers(1, 4)))]
    schema += [ColumnSchema(f"c{j}", "categorical") for j in range(int(rng.integers(1, 3)))]
    fit_pool = [1, "1", 2, "2", "a", "b", "c", 10]
    new_pool = fit_pool + ["zz", 7, "7"]  # unknown at transform time
    tables = []
    for pool in (fit_pool, new_pool):
        n = 1 if rng.random() < 0.15 else int(rng.integers(2, 40))
        missing = float(rng.choice([0.0, 0.2, 0.6]))
        cols = [(s.name, s.role, random_cells(rng, s.role, n, missing, pool)) for s in schema]
        tables.append(make_table(cols))
    return tables


def outcome(fn, *args):
    try:
        return fn(*args)
    except DataError:
        return DataError


def test_column_fit_and_transform_match_the_per_cell_reference():
    rng = np.random.default_rng(2024)
    compared = 0
    for case in range(100):
        tables = random_case(rng)
        want = outcome(reference_fit, tables[0])
        got = outcome(fit_preprocessor, tables[0])
        if want is DataError:
            assert got is DataError
            continue
        assert state_key(got) == state_key(want)
        for table in tables:
            want_x = outcome(reference_transform, want, table)
            got_x = outcome(transform, got, table)
            if want_x is DataError:
                assert got_x is DataError
            else:
                assert got_x.values.tobytes() == want_x.tobytes()
                assert got_x.feature_names == reference_names(want)
                compared += 1
    assert compared >= 100  # most cases fit and transform


@pytest.mark.parametrize("role", ["numeric", "target"])
def test_nan_cell_in_a_list_column_is_a_data_error(role):
    # None is the missing cell; a NaN cell would read as missing once in an array
    with pytest.raises(DataError, match=r"column 'v' has a NaN cell \(row 1\)"):
        make_table([("v", role, [1.0, float("nan")])])


def test_build_dataset_encodes_numeric_columns_as_arrays():
    table = make_table(
        [
            ("x", "numeric", [1, None, 2.5]),
            ("c", "categorical", ["a", None, "b"]),
            ("views", "target", [1.0, 2.0, 3.0]),
        ]
    )
    features, _ = build_dataset(table)
    x = features.column("x")
    assert isinstance(x, np.ndarray) and x.dtype == np.float64
    assert x[0] == 1.0 and np.isnan(x[1]) and x[2] == 2.5
    assert features.column("c") == ["a", None, "b"]


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["numeric"][0].update(std="x"),
        lambda d: d["numeric"][0].update(mean=None),
        lambda d: d["numeric"][0].update(impute_value=True),
        lambda d: d["numeric"][0].update(mean=float("nan")),
        lambda d: d["categorical"][0].update(categories="abc"),
        lambda d: d["categorical"][0].update(categories=["a", 1]),
        lambda d: d["categorical"][0].update(impute_category=None),
        lambda d: d["numeric"][0].update(name=3),
        lambda d: d["schema"].__setitem__(0, ["x", "bogus"]),
        lambda d: d["schema"].__setitem__(0, ["x"]),
    ],
)
def test_preprocessor_from_dict_rejects_ill_typed_values(edit):
    table = make_table(
        [("x", "numeric", [1.0, 2.0]), ("c", "categorical", ["a", "b"])]
    )
    d = preprocessor_to_dict(fit_preprocessor(table))
    edit(d)
    with pytest.raises(DataError):
        preprocessor_from_dict(d)
