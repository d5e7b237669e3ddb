"""Small shared helpers: seed derivation, rounding, canonical JSON."""

import hashlib
import json
import os
import sys

from .errors import DataError

MASK64 = (1 << 64) - 1


def mix_seed(master_seed, task_index):
    """Derive a per-task seed from a master seed and a task index.

    Uses the splitmix64 finalizer so that nearby (seed, index) pairs give
    uncorrelated streams. Result is a 63-bit nonnegative int, safe for
    numpy generators.
    """
    z = ((master_seed & MASK64) * 0x9E3779B97F4A7C15 + (task_index & MASK64)) & MASK64
    z = (z + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    z = z ^ (z >> 31)
    return z >> 1


def round_half_up(x):
    """Round to nearest integer with .5 going up (not banker's rounding)."""
    return int(x + 0.5) if x >= 0 else -int(-x + 0.5)


def dump_json(obj, path, compact=False):
    """Write JSON with sorted keys and full float precision (repr round-trip).

    Indented two spaces per level, or with no whitespace at all when
    ``compact`` (for large machine-read files such as a model bundle).
    A non-finite float raises ValueError instead of writing invalid JSON.
    The text goes to a sibling temp file that replaces ``path`` only once it
    is complete, so a failed write leaves any existing file untouched.
    """
    layout = {"separators": (",", ":")} if compact else {"indent": 2}
    text = json.dumps(obj, sort_keys=True, allow_nan=False, **layout)
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_json(path):
    """Parse a UTF-8 JSON file; undecodable or malformed content, including
    the non-standard NaN and Infinity literals, is a DataError."""

    def reject(literal):
        raise DataError(f"{path}: not valid JSON (non-finite number {literal})")

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=reject)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from exc


def finite_number(value, what):
    """``value`` if it is a finite int or float (not a bool), else a DataError.

    An int counts as finite while a float can hold its size; it is compared
    with ``sys.float_info.max``, never converted, so a huge int cannot
    overflow here (NaN fails the comparison too)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise DataError(f"{what} must be a finite number, got {value!r}")
    return value


def whole_number(value, what, minimum):
    """``value`` if it is an int (not a bool) of at least ``minimum``, else a DataError."""
    if type(value) is not int or value < minimum:
        raise DataError(f"{what} must be an int >= {minimum}, got {value!r}")
    return value


def config_digest(obj):
    """Stable sha256 hex digest of a JSON-serializable config."""
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
