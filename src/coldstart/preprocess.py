"""Fit/transform preprocessing: imputation, standardization, one-hot encoding.

Fit learns per-column state from a raw feature table; transform applies it
to any table with the same numeric and categorical columns, producing a
fully numeric FeatureMatrix.
A missing numeric cell takes its column's median and a missing categorical
cell its column's mode (the most frequent category, ties broken
lexicographically).
Unknown categories at transform time encode as the all-zero vector so new
shows with unseen metadata keep a stable feature dimension.

Both work a column at a time. A numeric column is a float64 array with NaN
for a missing cell, as every RawTable holds it. A categorical column is a
list; each distinct cell is keyed once by its str() form, so cells equal as
Python values (1 and 1.0) count as one cell.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import ROLES, FeatureMatrix, RawTable
from .errors import DataError, SchemaError
from .util import finite_number


@dataclass
class NumericColumnState:
    name: str
    impute_value: float
    mean: float
    std: float  # population std (divisor n), computed after imputation


@dataclass
class CategoricalColumnState:
    name: str
    impute_category: str
    categories: list  # deduplicated, lexicographic


@dataclass
class Preprocessor:
    numeric: list
    categorical: list


def _categorical_state(name, cells):
    """Mode and categories (the sorted str forms of the cells).

    Cells are counted as Python values, then folded through str(), so 1 and
    "1" are one category.
    """
    counts = {}
    for value, n in Counter(cells).items():
        if value is not None:
            key = str(value)
            counts[key] = counts.get(key, 0) + n
    if not counts:
        raise DataError(f"categorical column {name!r} is entirely missing")
    best = max(counts.values())
    return min(k for k, c in counts.items() if c == best), sorted(counts)  # ties: lexicographic


def fit_preprocessor(features):
    """Learn imputation + scaling + one-hot state from a raw feature table."""
    if features.n_rows == 0:
        raise DataError("cannot fit preprocessor on an empty table")

    numeric = []
    categorical = []
    for schema in features.schemas:
        if schema.role == "numeric":
            values = features.column(schema.name)
            missing = np.isnan(values)
            present = values[~missing]
            if len(present) == 0:
                raise DataError(f"numeric column {schema.name!r} is entirely missing")
            impute = float(np.median(present))
            filled = np.where(missing, impute, values)
            numeric.append(
                NumericColumnState(
                    name=schema.name,
                    impute_value=impute,
                    mean=float(filled.mean()),
                    std=float(filled.std()),  # population (divisor n)
                )
            )
        elif schema.role == "categorical":
            impute, categories = _categorical_state(schema.name, features.column(schema.name))
            categorical.append(
                CategoricalColumnState(
                    name=schema.name, impute_category=impute, categories=categories
                )
            )
        elif schema.role == "date":
            raise SchemaError(
                f"date column {schema.name!r}: derive date features before preprocessing"
            )
        else:
            raise SchemaError(f"column {schema.name!r} with role {schema.role!r} "
                              "does not belong in a feature table")

    return Preprocessor(numeric=numeric, categorical=categorical)


def transform(preprocessor, features):
    """Apply a fitted preprocessor; returns a FeatureMatrix.

    Column order: scaled numerics, then one-hot blocks, each in fit order.
    The table's numeric and categorical names, in order, must be the fitted
    ones, and it may hold no column of another role.
    """
    if not isinstance(features, RawTable):
        raise SchemaError("transform expects a RawTable")
    fitted = {role: [c.name for c in getattr(preprocessor, role)] for role in ("numeric", "categorical")}
    got = {role: [s.name for s in features.schemas if s.role == role] for role in ROLES}
    if any(got[role] != fitted.get(role, []) for role in ROLES):
        raise SchemaError(f"schema mismatch: fitted on {fitted}, got {({r: n for r, n in got.items() if n})}")

    n = features.n_rows
    blocks = []
    names = []

    for col in preprocessor.numeric:
        values = features.column(col.name)
        filled = np.where(np.isnan(values), col.impute_value, values)
        divisor = col.std if col.std > 0 else 1.0
        blocks.append(((filled - col.mean) / divisor).reshape(n, 1))
        names.append(col.name)

    for col in preprocessor.categorical:
        cells = features.column(col.name)
        index = {cat: j for j, cat in enumerate(col.categories)}
        # each distinct cell mapped once; unknown categories (-1) stay all-zero
        code = {v: index.get(col.impute_category if v is None else str(v), -1) for v in set(cells)}
        codes = np.fromiter(map(code.__getitem__, cells), dtype=np.intp, count=n)
        rows = np.flatnonzero(codes >= 0)
        block = np.zeros((n, len(col.categories)))
        block[rows, codes[rows]] = 1.0
        blocks.append(block)
        names.extend(f"{col.name}={cat}" for cat in col.categories)

    if blocks:
        values = np.hstack(blocks)
    else:
        values = np.zeros((n, 0))
    return FeatureMatrix(values=values, feature_names=names)


def preprocessor_to_dict(p):
    return {
        "numeric": [
            {"name": c.name, "impute_value": c.impute_value, "mean": c.mean, "std": c.std}
            for c in p.numeric
        ],
        "categorical": [
            {"name": c.name, "impute_category": c.impute_category, "categories": list(c.categories)}
            for c in p.categorical
        ],
    }


def _string(value, what):
    if not isinstance(value, str):
        raise DataError(f"preprocessor {what} must be a string, got {value!r}")
    return value


def _strings(values, what):
    if not isinstance(values, list):
        raise DataError(f"preprocessor {what} must be a list of strings, got {values!r}")
    return [_string(v, f"{what}[{i}]") for i, v in enumerate(values)]


def _std(value, what):
    """A stored std: finite and >= 0; 0 is what a fit writes for a constant column."""
    if finite_number(value, what) < 0:
        raise DataError(f"{what} must be >= 0, got {value!r}")
    return value


def preprocessor_from_dict(d):
    """Decode a preprocessor; an ill-typed value or unknown name is a DataError.

    A missing key or a section that is not a list of objects raises KeyError
    or TypeError, which bundle_from_dict reports as a malformed bundle.
    """
    return Preprocessor(
        numeric=[
            NumericColumnState(
                name=_string(c["name"], f"numeric[{i}].name"),
                impute_value=finite_number(c["impute_value"], f"preprocessor numeric[{i}].impute_value"),
                mean=finite_number(c["mean"], f"preprocessor numeric[{i}].mean"),
                std=_std(c["std"], f"preprocessor numeric[{i}].std"),
            )
            for i, c in enumerate(d["numeric"])
        ],
        categorical=[
            CategoricalColumnState(
                name=_string(c["name"], f"categorical[{i}].name"),
                impute_category=_string(c["impute_category"], f"categorical[{i}].impute_category"),
                categories=_strings(c["categories"], f"categorical[{i}].categories"),
            )
            for i, c in enumerate(d["categorical"])
        ],
    )
