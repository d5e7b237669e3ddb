"""CSV loading and metadata feature engineering.

Each input stays one RawTable from file to model: numbers are float64
arrays with NaN for a missing cell from the first parse on, and the other
cells lists. The read_* functions load an episode/credit/genre/platform CSV
against its column constant, check it (errors name the file and row) and
return the table; write_csv writes rows in the form load_csv reads, and
format_length a length in the form parse_length_to_minutes reads.
build_model_table takes the four tables and returns one model-ready table:
show length normalized to minutes, per-role crew aggregates (best rating,
total awards, crew count), distinct-genre counts, platform metrics joined
per episode, and date-derived features (age, day of week, month, quarter).
"""

import csv
import datetime
import itertools
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .data import NUMERIC_ROLES, ColumnSchema, RawTable
from .errors import DataError, SchemaError

ROLES_CREW = ("actor", "director", "writer")
ROLE_INDEX = {role: r for r, role in enumerate(ROLES_CREW)}

PLATFORM_METRICS = ("exposures", "minutes_viewed", "revenue", "audience_estimate", "impressions")

# columns of each input file; read_episodes returns EPISODE_COLUMNS (length
# parsed to minutes) plus VIEWS_COLUMN when the file has one
EPISODE_CSV_COLUMNS = (
    ColumnSchema("series_id", "id"),
    ColumnSchema("episode_id", "id"),
    ColumnSchema("release_date", "date"),
    ColumnSchema("length", "categorical"),
)
EPISODE_COLUMNS = EPISODE_CSV_COLUMNS[:3] + (ColumnSchema("length_minutes", "numeric"),)
VIEWS_COLUMN = ColumnSchema("views", "target")
CREDIT_COLUMNS = (
    ColumnSchema("series_id", "id"),
    ColumnSchema("name", "categorical"),
    ColumnSchema("role", "categorical"),
    ColumnSchema("imdb_rating", "numeric"),
    ColumnSchema("awards", "numeric"),
)
GENRE_COLUMNS = (
    ColumnSchema("series_id", "id"),
    ColumnSchema("genre", "categorical"),
    ColumnSchema("source", "categorical"),
)
PLATFORM_COLUMNS = (ColumnSchema("series_id", "id"), ColumnSchema("episode_id", "id")) + tuple(
    ColumnSchema(m, "numeric") for m in PLATFORM_METRICS
)


@dataclass(frozen=True)
class DateFeatures:
    age_days: int
    day_of_week: int  # Monday = 0
    month: int
    quarter: int


def _parse_numeric(cells):
    """A float64 array (NaN for an empty cell) and None, or None and the
    index of the first cell that is not a finite float."""
    try:
        values = np.array([float(c) if c else math.nan for c in cells], dtype=float)
        # an empty cell is NaN, so a parsed "nan" or "inf" is one finite value fewer
        if np.count_nonzero(np.isfinite(values)) == len(cells) - cells.count(""):
            return values, None
    except ValueError:
        pass
    return None, next(i for i, cell in enumerate(cells) if cell and not _finite_float(cell))


def _finite_float(cell):
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _parse_dates(cells):
    """Dates (None for an empty cell), each distinct string parsed once, and
    the index of the first unparseable cell, or None."""
    parsed = {"": None}
    for cell in dict.fromkeys(cells):  # distinct cells in first-seen order
        if cell not in parsed:
            try:
                parsed[cell] = datetime.date.fromisoformat(cell)
            except ValueError:
                return None, cells.index(cell)
    return [parsed[c] for c in cells], None


def load_csv(path, expected_schema, optional=()):
    """Read a headered CSV into a RawTable, matching columns by header name.

    The columns of ``optional`` follow those of ``expected_schema`` in the
    table when the header has them, and are left out when it does not. A
    leading UTF-8 byte-order mark, as spreadsheet exports write, is dropped.
    Numeric and target columns parse as float64 arrays of
    finite floats, date cells as ISO-8601 dates, and the rest stay strings.
    Empty cells become missing (NaN in an array, None in a list), as do the
    cells a short row lacks. Columns in the file but not in the
    schema are ignored. The rows are read once and each schema column is
    parsed in one pass; when several cells are bad, the error names the
    first in row-major order (lowest row, then schema position), as a
    cell-by-cell read would.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        for schema in expected_schema:
            if schema.name not in header:
                raise SchemaError(f"{path}: missing expected header {schema.name!r}")
        schemas = list(expected_schema) + [schema for schema in optional if schema.name in header]
        positions = [header.index(schema.name) for schema in schemas]
        rows = list(reader)

    width = max(positions, default=-1) + 1
    if rows and min(map(len, rows)) < width:
        rows = [row + [""] * (width - len(row)) for row in rows]
    columns = {}
    first_error = None  # (row index, message); a tie keeps the earlier column
    for schema, pos in zip(schemas, positions):
        cells = [row[pos].strip() for row in rows]
        if schema.role in NUMERIC_ROLES:
            values, bad = _parse_numeric(cells)
            what = "unparseable or non-finite numeric cell"
        elif schema.role == "date":
            values, bad = _parse_dates(cells)
            what = "unparseable date"
        else:
            values, bad = [c or None for c in cells], None
        if bad is not None and (first_error is None or bad < first_error[0]):
            message = f"{path}: {what} {cells[bad]!r} (row {bad + 2}, column {schema.name!r})"
            first_error = (bad, message)
        columns[schema.name] = values
    if first_error is not None:
        raise DataError(first_error[1])
    return RawTable(schemas, columns)


def write_csv(path, schemas, rows):
    """Write a headered CSV that load_csv reads back with ``schemas``.

    ``csv.writer`` writes None as an empty cell and any other value by ``str``,
    a Python float's repr, so every number round-trips exactly. Pass Python
    numbers (``tolist()``), not numpy scalars.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([s.name for s in schemas])
        writer.writerows(rows)


_LENGTH_HM = re.compile(r"^\s*(?:(\d+)\s*h)?\s*(?:(\d+)\s*m)?\s*$", re.IGNORECASE)
_LENGTH_COLON = re.compile(r"^\s*(\d{1,3}):([0-5]\d)\s*$")


def parse_length_to_minutes(raw):
    """Convert a show length like '1h 30m', '45m', '2h', or '02:15' to minutes."""
    if raw is None:
        raise DataError("missing length value")
    m = _LENGTH_COLON.match(raw)
    if m:
        return float(int(m.group(1)) * 60 + int(m.group(2)))
    m = _LENGTH_HM.match(raw)
    if m and (m.group(1) is not None or m.group(2) is not None):
        hours = int(m.group(1) or 0)
        minutes = int(m.group(2) or 0)
        return float(hours * 60 + minutes)
    raise DataError(f"unrecognized length format {raw!r}")


def format_length(minutes):
    """Whole minutes as '1h 30m', '2h' or '45m', which parse_length_to_minutes reads back."""
    hours, mins = divmod(int(round(minutes)), 60)
    if hours and mins:
        return f"{hours}h {mins}m"
    if hours:
        return f"{hours}h"
    return f"{mins}m"


def read_episodes(path):
    """Load episodes.csv with its length parsed to minutes; the views column is optional."""
    table = load_csv(path, EPISODE_CSV_COLUMNS, optional=(VIEWS_COLUMN,))
    extra = (VIEWS_COLUMN,) if VIEWS_COLUMN.name in table.columns else ()

    cells = [table.column(s.name) for s in EPISODE_CSV_COLUMNS]
    lengths = cells[-1]  # length is the last CSV column
    n = len(lengths)
    minutes = {None: None}
    bad_length = n
    for raw in dict.fromkeys(lengths):  # each distinct length string parsed once
        if raw not in minutes:
            try:
                minutes[raw] = parse_length_to_minutes(raw)
            except DataError as exc:
                bad_length, length_error = lengths.index(raw), exc
                break
    # name the first bad row; within a row, a missing cell before a bad length
    missing = min((column.index(None) for column in cells if None in column), default=n)
    if missing < n and missing <= bad_length:
        name = next(s.name for s, column in zip(EPISODE_CSV_COLUMNS, cells) if column[missing] is None)
        raise DataError(f"{path}: row {missing + 2} is missing {name!r}")
    if bad_length < n:
        raise DataError(f"{path}: {length_error} (row {bad_length + 2}, column 'length')")
    columns = {s.name: table.column(s.name) for s in EPISODE_COLUMNS[:3] + extra}
    columns["length_minutes"] = np.array([minutes[raw] for raw in lengths], dtype=float)
    return RawTable(list(EPISODE_COLUMNS + extra), columns)


def read_credits(path):
    """Load credits.csv; the first bad row is named, and within it the first failed check."""
    table = load_csv(path, CREDIT_COLUMNS)
    roles, ratings, awards = (table.column(name) for name in ("role", "imdb_rating", "awards"))
    known_role = np.fromiter(map(ROLES_CREW.__contains__, roles), dtype=bool, count=len(roles))
    # one mask per check, in the order a row is checked; a missing cell (NaN)
    # compares false, so it fails none
    masks = (~known_role, (ratings < 0.0) | (ratings > 10.0), awards < 0, awards % 1 > 0)
    bad = np.flatnonzero(np.logical_or.reduce(masks))
    if len(bad):
        i = int(bad[0])
        messages = (
            f"row {i + 2} has unknown crew role {roles[i]!r}",
            f"row {i + 2} rating {float(ratings[i])} outside [0, 10]",
            f"row {i + 2} has negative awards",
            f"non-integer awards {float(awards[i])!r} (row {i + 2}, column 'awards')",
        )
        raise DataError(f"{path}: {next(m for mask, m in zip(masks, messages) if mask[i])}")
    return table


def read_genres(path):
    table = load_csv(path, GENRE_COLUMNS)
    for i, genre in enumerate(table.column("genre")):
        if not genre:
            raise DataError(f"{path}: row {i + 2} has an empty genre")
    return table


def read_platform(path):
    return load_csv(path, PLATFORM_COLUMNS)


def read_genre_aliases(path):
    """alias,canonical pairs; genres not listed pass through verbatim.

    An alias maps to one genre: a row repeating an earlier row is legal, a
    row giving its alias another canonical genre is a DataError naming both rows.
    """
    schema = [ColumnSchema("alias", "categorical"), ColumnSchema("canonical", "categorical")]
    table = load_csv(path, schema)
    first = {}  # alias -> (canonical, the data row that first maps it)
    for i, (alias, canonical) in enumerate(zip(table.column("alias"), table.column("canonical"))):
        if alias is None or canonical is None:
            raise DataError(f"{path}: row {i + 2} has an empty alias mapping")
        mapped, row = first.setdefault(alias, (canonical, i + 2))
        if mapped != canonical:
            raise DataError(f"{path}: row {i + 2} maps alias {alias!r} to {canonical!r}, but row {row} maps it to {mapped!r}")
    return {alias: canonical for alias, (canonical, _) in first.items()}


def apply_genre_aliases(genres, alias_map):
    if not alias_map:
        return genres
    mapped = [alias_map.get(g, g) for g in genres.column("genre")]
    return RawTable(list(genres.schemas), {**genres.columns, "genre": mapped})


def derive_date_features(release_date, reference_date):
    """Age, ISO day-of-week (Monday=0), month, and quarter of a release date."""
    if reference_date < release_date:
        raise DataError(
            f"reference date {reference_date} is before release {release_date}"
        )
    return DateFeatures(
        age_days=(reference_date - release_date).days,
        day_of_week=release_date.weekday(),
        month=release_date.month,
        quarter=(release_date.month - 1) // 3 + 1,
    )


def consolidate_metadata(episodes, credits, genres, platform):
    """One feature row per episode from crew, genre, and platform tables.

    Per role and series: best_<role>_rating is the max rating over that
    series' credits (missing if none carry a rating), <role>_total_awards
    the sum of awards, <role>_crew_count the number of credits — all after
    dropping exact duplicate credit rows. genre_count is the number of
    distinct genre labels per series. Platform metrics join on
    (series_id, episode_id); two platform rows for one episode are an
    error, as are two episode rows. Input series referenced by credit/genre/
    platform rows but absent from episodes produce warnings, not errors.

    The work goes a column at a time: the crew aggregates are bincounts
    over one (series, role) slot per credit, and every numeric column of
    the result is a float64 array (NaN where missing) gathered by index
    from a per-series or per-platform-row array.
    """
    series = episodes.column("series_id")
    keys = list(zip(series, episodes.column("episode_id")))
    if len(set(keys)) < len(keys):
        raise DataError(f"duplicate episode {_first_repeat(keys)}")
    distinct = list(dict.fromkeys(series))  # each series once, first-seen order
    position = {sid: i for i, sid in enumerate(distinct)}
    series_index = _positions(position, series)  # episode -> its series' position

    # one slot per (series, role); read_credits admits no role outside ROLES_CREW
    width = len(ROLES_CREW)
    n_slots = len(distinct) * width
    credit_sids, names, roles, ratings, awards = (credits.column(s.name) for s in CREDIT_COLUMNS)
    # exact duplicate credits removed, first occurrence kept; a missing number
    # keys as None, as NaN never equals NaN (and 0.0 equals -0.0, as it does
    # in a tuple)
    first_row = {}
    for i, key in enumerate(zip(credit_sids, names, roles, _cell_keys(ratings), _cell_keys(awards))):
        first_row.setdefault(key, i)
    kept = list(first_row.values())  # ascending: keys are first seen in row order
    kept = list(itertools.compress(kept, _known([credit_sids[i] for i in kept], position, "credit")))
    role_index = np.array([ROLE_INDEX[roles[i]] for i in kept], dtype=np.intp)
    slots = _positions(position, [credit_sids[i] for i in kept]) * width + role_index
    count = np.bincount(slots, minlength=n_slots).reshape(-1, width)
    awards, ratings = awards[kept], ratings[kept]
    # bincount adds each slot's awards in credit order, as a running sum
    # does; with no credits it returns ints
    total_awards = np.bincount(slots, weights=np.where(np.isnan(awards), 0.0, awards), minlength=n_slots)
    total_awards = total_awards.astype(float).reshape(-1, width)
    # each slot's best is its first credit among those with the highest
    # rating, as a strict > scan keeps it (so 0.0 then -0.0 gives 0.0)
    rated = np.flatnonzero(~np.isnan(ratings))
    order = rated[np.lexsort((rated, -ratings[rated], slots[rated]))]
    first = order[np.flatnonzero(np.diff(slots[order], prepend=-1))]
    best = np.full(n_slots, np.nan)
    best[slots[first]] = ratings[first]
    best = best.reshape(-1, width)

    genre_sids = genres.column("series_id")
    known = _known(genre_sids, position, "genre")
    genre_pairs = set(itertools.compress(zip(genre_sids, genres.column("genre")), known))
    genre_count = np.bincount(_positions(position, [sid for sid, _ in genre_pairs]), minlength=len(distinct))

    platform_sids, platform_eids = platform.column("series_id"), platform.column("episode_id")
    platform_rows = np.flatnonzero(_known(platform_sids, position, "platform row")).tolist()
    platform_keys = [(platform_sids[j], platform_eids[j]) for j in platform_rows]
    platform_row = dict(zip(platform_keys, platform_rows))
    if len(platform_row) < len(platform_keys):
        raise DataError(f"duplicate platform row {_first_repeat(platform_keys)}")
    # episode -> its platform row, or -1 where it has none
    joined = np.fromiter(map(platform_row.get, keys, itertools.repeat(-1)), dtype=np.intp, count=len(keys))
    matched = np.flatnonzero(joined >= 0)

    schemas = [s for s in EPISODE_COLUMNS if s.name != "release_date"]
    columns = {s.name: episodes.column(s.name) for s in schemas}
    per_series = {}
    for r, role in enumerate(ROLES_CREW):
        per_series[f"best_{role}_rating"] = best[:, r]
        per_series[f"{role}_total_awards"] = total_awards[:, r]
        per_series[f"{role}_crew_count"] = count[:, r].astype(float)
    per_series["genre_count"] = genre_count.astype(float)
    for name, values in per_series.items():
        schemas.append(ColumnSchema(name, "numeric"))
        columns[name] = values[series_index]
    for metric in PLATFORM_METRICS:
        schemas.append(ColumnSchema(metric, "numeric"))
        values = columns[metric] = np.full(len(keys), np.nan)
        values[matched] = platform.column(metric)[joined[matched]]
    views = episodes.columns.get(VIEWS_COLUMN.name)
    if views is not None and not np.isnan(views).all():
        schemas.append(VIEWS_COLUMN)
        columns[VIEWS_COLUMN.name] = views
    return RawTable(schemas, columns)


def _first_repeat(keys):
    """The first key in ``keys`` equal to an earlier one."""
    seen = set()
    for key in keys:
        if key in seen:
            return key
        seen.add(key)
    return None


def _positions(position, sids):
    """position[sid] for each of ``sids``, as an index array."""
    return np.fromiter(map(position.__getitem__, sids), dtype=np.intp, count=len(sids))


def _cell_keys(values):
    """A float64 column as Python floats with None where a cell is missing."""
    cells = values.tolist()
    for i in np.flatnonzero(np.isnan(values)).tolist():
        cells[i] = None
    return cells


def _known(sids, position, what):
    """Mask of the rows whose series is in ``position``, with a warning for
    each other row, in row order."""
    known = np.fromiter(map(position.__contains__, sids), dtype=bool, count=len(sids))
    for sid in itertools.compress(sids, ~known):
        warnings.warn(f"{what} for unknown series {sid!r}")
    return known


def build_model_table(episodes, credits, genres, platform, reference_date=None):
    """Consolidated metadata plus date-derived features, ready for build_dataset.

    Calendar fields (day of week, month, quarter) are emitted as categorical
    columns so they one-hot encode; age_days stays numeric. reference_date
    defaults to the latest release date in the input.
    """
    if not episodes.n_rows:
        raise DataError("no episodes to build a table from")
    release_dates = episodes.column("release_date")
    if reference_date is None:
        reference_date = max(release_dates)
    table = consolidate_metadata(episodes, credits, genres, platform)

    derived = {}  # one derivation per distinct release date, in first-seen order
    for d in dict.fromkeys(release_dates):
        f = derive_date_features(d, reference_date)
        derived[d] = (float(f.age_days), str(f.day_of_week), str(f.month), str(f.quarter))
    date_columns = (
        ColumnSchema("age_days", "numeric"),
        ColumnSchema("day_of_week", "categorical"),
        ColumnSchema("month", "categorical"),
        ColumnSchema("quarter", "categorical"),
    )
    dates = RawTable.from_rows(date_columns, map(derived.__getitem__, release_dates))
    return RawTable(table.schemas + dates.schemas, {**table.columns, **dates.columns}), reference_date
