"""Exception types shared across the package.

DataError covers problems with input content (bad CSV cells, schema
mismatches, degenerate targets, malformed JSON or bundles); the CLI maps
it, an unreadable file and non-UTF-8 text to exit code 3. Anything else
that escapes is treated as an internal invariant violation (exit code 4)
and reported in one line, without a traceback.
"""


class ColdstartError(Exception):
    """Base class for all package-specific errors."""


class DataError(ColdstartError):
    """Invalid or inconsistent input data."""


class SchemaError(DataError):
    """Column/schema mismatch between data and its declared layout."""


class UndefinedMetricError(DataError):
    """A metric undefined on its targets: MAPE on all zeros, R2 on one row or a constant."""
