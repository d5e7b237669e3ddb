"""Table helpers shared by the tests."""

import numpy as np

from coldstart.data import ColumnSchema, RawTable


def make_table(cols):
    """A RawTable from (name, role, cells) triples, built as production
    builds one from Python cells: through RawTable.from_rows, so a numeric
    or target column becomes a float64 array, None to NaN."""
    schemas = [ColumnSchema(name, role) for name, role, _ in cols]
    return RawTable.from_rows(schemas, zip(*(values for _, _, values in cols), strict=True))


def cells(column):
    """A column's cells as Python values: an array's floats by tolist, with
    None where the array holds NaN (a missing cell); a list as it is."""
    if isinstance(column, np.ndarray):
        return [None if v != v else v for v in column.tolist()]
    return list(column)
