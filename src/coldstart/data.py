"""Core table types shared by every stage of the pipeline.

A RawTable is a small column store: each column carries a ColumnSchema
(name + role) and its cells. A numeric or target column is a 1-D float64
array, where NaN marks a missing cell and is never a value; every other
column is a list, where a missing cell is ``None``. No in-band magic
numbers. A FeatureMatrix is the fully numeric, fully observed matrix
that models consume.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, SchemaError
from .util import round_half_up

ROLES = ("numeric", "categorical", "date", "target", "id")
NUMERIC_ROLES = ("numeric", "target")  # the roles of float64 array columns


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

    A column whose role is in NUMERIC_ROLES is a 1-D float64 array, missing
    cells NaN; any other column is a list of cells, missing cells None.
    """

    schemas: list
    columns: dict = field(repr=False)  # name -> float64 array or list of cells

    def __post_init__(self):
        names = [s.name for s in self.schemas]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names in table")
        if set(names) != set(self.columns):
            raise SchemaError("schema names do not match column names")
        for s in self.schemas:
            column = self.columns[s.name]
            # checked, never converted: this runs for every take_rows and drop_columns
            if s.role in NUMERIC_ROLES and not (
                isinstance(column, np.ndarray) and column.dtype == np.float64 and column.ndim == 1
            ):
                raise SchemaError(f"{s.role} column {s.name!r} must be a 1-D float64 array")
        lengths = {len(self.columns[n]) for n in names}
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns: lengths {sorted(lengths)}")

    @classmethod
    def from_rows(cls, schemas, rows):
        """Table from row tuples whose cells follow ``schemas``; no rows gives empty columns.

        Cells are Python values with None for a missing cell. A numeric or
        target column becomes a float64 array, None to NaN; a cell that is
        itself NaN would then read as missing, so it is a DataError.
        """
        schemas = list(schemas)
        rows = list(rows)
        if any(len(row) != len(schemas) for row in rows):
            raise SchemaError(f"every row needs {len(schemas)} cells")
        cells = zip(*rows) if rows else [()] * len(schemas)
        columns = {
            s.name: _float_array(col, s.name) if s.role in NUMERIC_ROLES else list(col)
            for s, col in zip(schemas, cells)
        }
        return cls(schemas, columns)

    @property
    def n_rows(self):
        if not self.schemas:
            return 0
        return len(self.columns[self.schemas[0].name])

    def __len__(self):
        return self.n_rows

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


def _float_array(cells, name):
    """Python number cells as a float64 array, None to NaN; a NaN cell is a DataError."""
    values = np.array(cells, dtype=float)
    for i in np.flatnonzero(np.isnan(values)).tolist():
        if cells[i] is not None:
            raise DataError(f"column {name!r} has a NaN cell (row {i}); a missing cell is None")
    return values


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


def build_dataset(table):
    """Split a raw table into (features-only table, target vector).

    Exactly one column must have role ``target``, and its values pass
    validate_target. Id and target columns are excluded from the returned
    feature table, which shares the other columns; row order is preserved
    so target[i] pairs with feature row i, and a missing target is named by
    its data row, i + 2 in a file with a header.
    """
    targets = [s.name for s in table.schemas if s.role == "target"]
    if not targets:  # ingest leaves out a views column that holds no value
        raise SchemaError("the views are missing: the table has no target column")
    if len(targets) > 1:
        raise SchemaError(f"expected exactly one target column, got {len(targets)}")

    raw_target = table.column(targets[0])
    missing = np.flatnonzero(np.isnan(raw_target))
    if len(missing):
        raise DataError(f"target column {targets[0]!r} is missing values (first at data row {missing[0] + 2})")
    return feature_table(table), validate_target(raw_target)


def feature_table(table):
    """The table without its id and target columns, which no model reads."""
    return table.drop_columns([s.name for s in table.schemas if s.role in ("id", "target")])


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

