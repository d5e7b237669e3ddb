"""CSV loading and metadata feature engineering.

Each input stays one RawTable from file to model. The read_* functions load
an episode/credit/genre/platform CSV against its column constant, check it
row by row (errors name the file and row) and return the table;
build_model_table takes the four tables and returns one model-ready table:
show length normalized to minutes, per-role crew aggregates (best rating,
total awards, crew count), distinct-genre counts, platform metrics joined
per episode, and date-derived features (age, day of week, month, quarter).
"""

import csv
import datetime
import itertools
import math
import operator
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .data import ColumnSchema, RawTable
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


NUMERIC_ROLES = ("numeric", "passthrough", "target")


def _parse_numeric(cells):
    """Floats (None for an empty cell) and the index of the first cell that
    is not a finite float, or None."""
    try:
        values = [float(c) if c else None for c in cells]
        # a NaN or inf makes the sum non-finite; so can an overflow of finite
        # values, which the scan below then clears
        if math.isfinite(sum(filter(None, values))):
            return values, None
    except ValueError:
        values = None
    for i, cell in enumerate(cells):
        if cell:
            try:
                bad = not math.isfinite(float(cell))
            except ValueError:
                bad = True
            if bad:
                return None, i
    return values, None


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


def load_csv(path, expected_schema):
    """Read a headered CSV into a RawTable, matching columns by header name.

    Empty cells become missing (None), as do the cells a short row lacks;
    numeric, passthrough, and target cells parse as finite floats; date
    cells parse as ISO-8601 dates. Columns in the file but not in the
    schema are ignored. The rows are read once and each schema column is
    parsed in one pass; when several cells are bad, the error names the
    first in row-major order (lowest row, then schema position), as a
    cell-by-cell read would.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        for schema in expected_schema:
            if schema.name not in header:
                raise SchemaError(f"{path}: missing expected header {schema.name!r}")
        positions = [header.index(schema.name) for schema in expected_schema]
        rows = list(reader)

    width = max(positions, default=-1) + 1
    if rows and min(map(len, rows)) < width:
        rows = [row + [""] * (width - len(row)) for row in rows]
    columns = {}
    first_error = None  # (row index, message); a tie keeps the earlier column
    for schema, pos in zip(expected_schema, positions):
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
    return RawTable(list(expected_schema), columns)


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


def read_episodes(path):
    """Load episodes.csv with its length parsed to minutes; the views column is optional."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
    extra = (VIEWS_COLUMN,) if VIEWS_COLUMN.name in header else ()
    table = load_csv(path, EPISODE_CSV_COLUMNS + extra)

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
    columns["length_minutes"] = [minutes[raw] for raw in lengths]
    return RawTable(list(EPISODE_COLUMNS + extra), columns)


def read_credits(path):
    table = load_csv(path, CREDIT_COLUMNS)
    cells = zip(table.column("role"), table.column("imdb_rating"), table.column("awards"))
    for i, (role, rating, awards) in enumerate(cells):
        if role not in ROLES_CREW:
            raise DataError(f"{path}: row {i + 2} has unknown crew role {role!r}")
        if rating is not None and not 0.0 <= rating <= 10.0:
            raise DataError(f"{path}: row {i + 2} rating {rating} outside [0, 10]")
        if awards is not None and awards < 0:
            raise DataError(f"{path}: row {i + 2} has negative awards")
        if awards is not None and not awards.is_integer():
            raise DataError(f"{path}: non-integer awards {awards!r} (row {i + 2}, column 'awards')")
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
    """alias,canonical pairs; genres not listed pass through verbatim."""
    schema = [ColumnSchema("alias", "categorical"), ColumnSchema("canonical", "categorical")]
    table = load_csv(path, schema)
    mapping = {}
    for i in range(table.n_rows):
        alias = table.column("alias")[i]
        canonical = table.column("canonical")[i]
        if alias is None or canonical is None:
            raise DataError(f"{path}: row {i + 2} has an empty alias mapping")
        mapping[alias] = canonical
    return mapping


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
    over one (series, role) slot per credit, and every per-episode column
    is gathered by index from a per-series or per-platform-row list.
    """
    series = episodes.column("series_id")
    keys = list(zip(series, episodes.column("episode_id")))
    if len(set(keys)) < len(keys):
        raise DataError(f"duplicate episode {_first_repeat(keys)}")
    distinct = list(dict.fromkeys(series))  # each series once, first-seen order
    position = {sid: i for i, sid in enumerate(distinct)}
    series_index = _positions(position, series)  # episode -> its series' position

    # one slot per (series, role); a role outside ROLES_CREW goes to the last
    # column, which no feature reads
    width = len(ROLES_CREW) + 1
    n_slots = len(distinct) * width
    # exact duplicate credits removed, first occurrence kept
    credit_rows = list(dict.fromkeys(zip(*(credits.column(s.name) for s in CREDIT_COLUMNS))))
    sids, _, roles, ratings, awards = _known_rows(
        list(zip(*credit_rows)) or [()] * len(CREDIT_COLUMNS), position, "credit"
    )
    role_index = map(ROLE_INDEX.get, roles, itertools.repeat(len(ROLES_CREW)))
    slots = _positions(position, sids) * width + np.fromiter(role_index, dtype=np.intp, count=len(roles))
    count = np.bincount(slots, minlength=n_slots).reshape(-1, width)
    awards, no_award = _float_cells(awards)
    awards[no_award] = 0.0
    # bincount adds each slot's awards in credit order, as a running sum
    # does; with no credits it returns ints
    total_awards = np.bincount(slots, weights=awards, minlength=n_slots).astype(float).reshape(-1, width)
    ratings, unrated = _float_cells(ratings)
    # each slot's best is its first credit among those with the highest
    # rating, as a strict > scan keeps it (so 0.0 then -0.0 gives 0.0)
    rated = np.flatnonzero(~unrated)
    order = rated[np.lexsort((rated, -ratings[rated], slots[rated]))]
    first = order[np.flatnonzero(np.diff(slots[order], prepend=-1))]
    best = np.full(n_slots, None, dtype=object)
    best[slots[first]] = ratings[first].tolist()
    best = best.reshape(-1, width)

    genre_sids, genre_names = _known_rows([genres.column("series_id"), genres.column("genre")], position, "genre")
    genre_pairs = set(zip(genre_sids, genre_names))
    genre_count = np.bincount(_positions(position, [sid for sid, _ in genre_pairs]), minlength=len(distinct))

    platform_sids, platform_eids, *metrics = _known_rows(
        [platform.column(s.name) for s in PLATFORM_COLUMNS], position, "platform row"
    )
    platform_row = dict(zip(zip(platform_sids, platform_eids), itertools.count()))
    if len(platform_row) < len(platform_sids):
        raise DataError(f"duplicate platform row {_first_repeat(list(zip(platform_sids, platform_eids)))}")
    # episode -> its platform row, or one past the last row where it has none
    rows = list(map(platform_row.get, keys, itertools.repeat(len(platform_sids))))

    schemas = [s for s in EPISODE_COLUMNS if s.name != "release_date"]
    columns = {s.name: list(episodes.column(s.name)) for s in schemas}
    per_series = {}
    for r, role in enumerate(ROLES_CREW):
        per_series[f"best_{role}_rating"] = best[:, r]
        per_series[f"{role}_total_awards"] = total_awards[:, r]
        per_series[f"{role}_crew_count"] = count[:, r].astype(float)
    per_series["genre_count"] = genre_count.astype(float)
    # gathering from object arrays shares one float per series among its
    # episodes, instead of making one per episode
    for name, values in per_series.items():
        schemas.append(ColumnSchema(name, "numeric"))
        columns[name] = values.astype(object)[series_index].tolist()
    for metric, values in zip(PLATFORM_METRICS, metrics):
        schemas.append(ColumnSchema(metric, "numeric"))
        columns[metric] = list(map([*values, None].__getitem__, rows))
    views = episodes.columns.get(VIEWS_COLUMN.name)
    if views is not None and any(v is not None for v in views):
        schemas.append(VIEWS_COLUMN)
        columns[VIEWS_COLUMN.name] = list(views)
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


def _float_cells(cells):
    """The cells as a float array, and the mask of the None cells."""
    values = np.array(cells, dtype=float)  # None reads as NaN
    return values, np.fromiter(map(operator.is_, cells, itertools.repeat(None)), dtype=bool, count=len(cells))


def _known_rows(columns, position, what):
    """``columns`` (series ids first) without the rows whose series is not
    in ``position``, with a warning for each such row, in row order."""
    known = list(map(position.__contains__, columns[0]))
    if all(known):
        return columns
    for sid in itertools.compress(columns[0], map(operator.not_, known)):
        warnings.warn(f"{what} for unknown series {sid!r}")
    return [list(itertools.compress(column, known)) for column in columns]


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
    for schema, values in zip(date_columns, zip(*(derived[d] for d in release_dates))):
        table = table.with_column(schema, values)
    return table, reference_date
