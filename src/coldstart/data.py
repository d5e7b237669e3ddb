"""Core table types shared by every stage of the pipeline.

A RawTable is a small column store: each column carries a ColumnSchema
(name + role) and its cells. A column is a list, where missing cells are
plain ``None`` — no in-band magic numbers — or, in the feature tables that
build_dataset returns, a float64 array for each numeric and passthrough
column, where NaN marks a missing cell and is never a value. A
FeatureMatrix is the fully numeric, fully observed matrix that models
consume.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, SchemaError
from .util import round_half_up

ROLES = ("numeric", "categorical", "date", "passthrough", "target", "id")


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    role: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise SchemaError(f"unknown column role {self.role!r} for {self.name!r}")


@dataclass
class RawTable:
    """Immutable-by-convention column store.

    A column is a list of cells, missing cells None, or a float64 array
    (see float_column), missing cells NaN.
    """

    schemas: list
    columns: dict = field(repr=False)  # name -> list of cells or float64 array

    def __post_init__(self):
        names = [s.name for s in self.schemas]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names in table")
        if set(names) != set(self.columns):
            raise SchemaError("schema names do not match column names")
        lengths = {len(self.columns[n]) for n in names}
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns: lengths {sorted(lengths)}")

    @classmethod
    def from_rows(cls, schemas, rows):
        """Table from row tuples whose cells follow ``schemas``; no rows gives empty columns."""
        schemas = list(schemas)
        rows = list(rows)
        if any(len(row) != len(schemas) for row in rows):
            raise SchemaError(f"every row needs {len(schemas)} cells")
        cells = zip(*rows) if rows else [()] * len(schemas)
        return cls(schemas, {s.name: list(col) for s, col in zip(schemas, cells)})

    @property
    def n_rows(self):
        if not self.schemas:
            return 0
        return len(self.columns[self.schemas[0].name])

    def __len__(self):
        return self.n_rows

    @property
    def column_names(self):
        return [s.name for s in self.schemas]

    def column(self, name):
        if name not in self.columns:
            raise SchemaError(f"no column named {name!r}")
        return self.columns[name]

    def take_rows(self, indices):
        """New table with the given rows, in the given order."""
        rows = np.asarray(indices, dtype=np.intp)
        positions = rows.tolist()
        cols = {
            n: col[rows] if isinstance(col, np.ndarray) else list(map(col.__getitem__, positions))
            for n, col in self.columns.items()
        }
        return RawTable(list(self.schemas), cols)

    def drop_columns(self, names):
        keep = [s for s in self.schemas if s.name not in set(names)]
        return RawTable(keep, {s.name: self.columns[s.name] for s in keep})

    def with_column(self, schema, values):
        """New table with one extra column appended."""
        if len(values) != self.n_rows and self.schemas:
            raise SchemaError(f"column {schema.name!r} has wrong length")
        schemas = list(self.schemas) + [schema]
        cols = dict(self.columns)
        cols[schema.name] = list(values)
        return RawTable(schemas, cols)


@dataclass
class FeatureMatrix:
    values: np.ndarray  # (n_rows, n_features), float64, finite
    feature_names: list

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise DataError("feature matrix must be 2-D")
        if self.values.shape[1] != len(self.feature_names):
            raise DataError("feature_names length does not match matrix width")
        if not np.all(np.isfinite(self.values)):
            raise DataError("feature matrix contains non-finite values")

    @property
    def n_rows(self):
        return self.values.shape[0]

    @property
    def n_features(self):
        return self.values.shape[1]


def validate_target(values):
    """Check target invariants and return a float64 vector."""
    y = np.asarray(values, dtype=float)
    if y.ndim != 1:
        raise DataError("target must be 1-D")
    if not np.all(np.isfinite(y)):
        raise DataError("target contains missing or non-finite values")
    if np.any(y < 0):
        raise DataError("target contains negative values")
    return y


def float_column(cells, name):
    """A numeric or passthrough column as a float64 array, NaN where a cell is missing.

    An array is returned as it is. A list is converted, None to NaN; a list
    cell that is itself NaN would then read as missing, so it is a DataError.
    """
    if isinstance(cells, np.ndarray):
        return cells
    values = np.array(cells, dtype=float)
    for i in np.flatnonzero(np.isnan(values)).tolist():
        if cells[i] is not None:
            raise DataError(f"column {name!r} has a NaN cell (row {i}); a missing cell is None")
    return values


def build_dataset(table, schema):
    """Split a raw table into (features-only table, target vector).

    The schema list assigns a role to every column of ``table``; exactly one
    column must have role ``target``. Id and target columns are excluded
    from the returned feature table; row order is preserved so target[i]
    pairs with feature row i. Numeric and passthrough columns are encoded
    once here as float64 arrays (see float_column); the other columns stay
    lists.
    """
    by_name = {}
    for s in schema:
        if s.name in by_name:
            raise SchemaError(f"duplicate schema entry for {s.name!r}")
        by_name[s.name] = s
    table_names = set(table.column_names)
    if set(by_name) != table_names:
        missing = sorted(table_names - set(by_name))
        extra = sorted(set(by_name) - table_names)
        raise SchemaError(f"schema/column mismatch: missing={missing} extra={extra}")

    targets = [s for s in schema if s.role == "target"]
    if len(targets) != 1:
        raise SchemaError(f"expected exactly one target column, got {len(targets)}")
    target_name = targets[0].name

    raw_target = table.column(target_name)
    if any(v is None for v in raw_target):
        raise DataError(f"target column {target_name!r} contains missing values")
    y = validate_target(raw_target)

    keep = [by_name[n] for n in table.column_names if by_name[n].role not in ("id", "target")]
    features = RawTable(
        keep,
        {
            s.name: float_column(table.column(s.name), s.name)
            if s.role in ("numeric", "passthrough")
            else list(table.column(s.name))
            for s in keep
        },
    )
    return features, y


def split_indices(n, test_fraction, seed):
    """Seeded shuffled row split; returns sorted (train_idx, test_idx) arrays.

    Test size is round-half-up of n * test_fraction, clamped to [1, n-1]
    so both sides are always non-empty.
    """
    if n < 2:
        raise DataError("need at least 2 rows to split")
    if not (0.0 < test_fraction < 1.0):
        raise DataError(f"test_fraction must be in (0,1), got {test_fraction}")
    n_test = min(max(round_half_up(n * test_fraction), 1), n - 1)
    order = np.random.default_rng(seed).permutation(n)
    return np.sort(order[n_test:]), np.sort(order[:n_test])

