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
import math
import re
import warnings
from dataclasses import dataclass

from .data import ColumnSchema, RawTable
from .errors import DataError, SchemaError

ROLES_CREW = ("actor", "director", "writer")

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


def load_csv(path, expected_schema):
    """Read a headered CSV into a RawTable, matching columns by header name.

    Empty cells become missing (None); numeric, passthrough, and target
    cells parse as finite floats; date cells parse as ISO-8601 dates.
    Columns in the file but not in the schema are ignored.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        positions = {}
        for schema in expected_schema:
            if schema.name not in header:
                raise SchemaError(f"{path}: missing expected header {schema.name!r}")
            positions[schema.name] = header.index(schema.name)

        columns = {s.name: [] for s in expected_schema}
        for row_num, row in enumerate(reader, start=2):
            for schema in expected_schema:
                pos = positions[schema.name]
                cell = row[pos].strip() if pos < len(row) else ""
                if cell == "":
                    value = None
                elif schema.role in ("numeric", "passthrough", "target"):
                    try:
                        value = float(cell)
                    except ValueError:
                        value = math.nan  # reported below, with the non-finite values
                    if not math.isfinite(value):
                        raise DataError(
                            f"{path}: unparseable or non-finite numeric cell {cell!r} "
                            f"(row {row_num}, column {schema.name!r})"
                        )
                elif schema.role == "date":
                    try:
                        value = datetime.date.fromisoformat(cell)
                    except ValueError:
                        raise DataError(
                            f"{path}: unparseable date {cell!r} "
                            f"(row {row_num}, column {schema.name!r})"
                        ) from None
                else:
                    value = cell
                columns[schema.name].append(value)
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

    minutes = []
    for i, cells in enumerate(zip(*(table.column(s.name) for s in EPISODE_CSV_COLUMNS))):
        for schema, cell in zip(EPISODE_CSV_COLUMNS, cells):
            if cell is None:
                raise DataError(f"{path}: row {i + 2} is missing {schema.name!r}")
        try:
            minutes.append(parse_length_to_minutes(cells[-1]))  # length is the last CSV column
        except DataError as exc:
            raise DataError(f"{path}: {exc} (row {i + 2}, column 'length')") from None
    columns = {s.name: table.column(s.name) for s in EPISODE_COLUMNS[:3] + extra}
    columns["length_minutes"] = minutes
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
    """
    series = episodes.column("series_id")
    keys = list(zip(series, episodes.column("episode_id")))
    seen = set()
    for key in keys:
        if key in seen:
            raise DataError(f"duplicate episode {key}")
        seen.add(key)
    known_series = set(series)

    best, awards, count = {}, {}, {}  # (series, role) -> aggregate
    credit_rows = zip(*(credits.column(s.name) for s in CREDIT_COLUMNS))
    for sid, _, role, rating, award in dict.fromkeys(credit_rows):  # exact duplicates removed, order kept
        if sid not in known_series:
            warnings.warn(f"credit for unknown series {sid!r}")
            continue
        slot = (sid, role)
        count[slot] = count.get(slot, 0) + 1
        if rating is not None and (best.get(slot) is None or rating > best[slot]):
            best[slot] = rating
        if award is not None:
            awards[slot] = awards.get(slot, 0) + award

    genre_sets = {}
    for sid, genre in zip(genres.column("series_id"), genres.column("genre")):
        if sid not in known_series:
            warnings.warn(f"genre for unknown series {sid!r}")
            continue
        genre_sets.setdefault(sid, set()).add(genre)

    platform_row = {}  # (series, episode) -> row index in platform
    for j, key in enumerate(zip(platform.column("series_id"), platform.column("episode_id"))):
        if key[0] not in known_series:
            warnings.warn(f"platform row for unknown series {key[0]!r}")
            continue
        if key in platform_row:
            raise DataError(f"duplicate platform row {key}")
        platform_row[key] = j
    rows = [platform_row.get(key) for key in keys]

    schemas = [s for s in EPISODE_COLUMNS if s.name != "release_date"]
    columns = {s.name: list(episodes.column(s.name)) for s in schemas}
    for role in ROLES_CREW:
        slots = [(sid, role) for sid in series]
        schemas += [
            ColumnSchema(f"best_{role}_rating", "numeric"),
            ColumnSchema(f"{role}_total_awards", "numeric"),
            ColumnSchema(f"{role}_crew_count", "numeric"),
        ]
        columns[f"best_{role}_rating"] = [best.get(slot) for slot in slots]
        columns[f"{role}_total_awards"] = [float(awards.get(slot, 0)) for slot in slots]
        columns[f"{role}_crew_count"] = [float(count.get(slot, 0)) for slot in slots]
    schemas.append(ColumnSchema("genre_count", "numeric"))
    columns["genre_count"] = [float(len(genre_sets.get(sid, ()))) for sid in series]
    for metric in PLATFORM_METRICS:
        schemas.append(ColumnSchema(metric, "numeric"))
        values = platform.column(metric)
        columns[metric] = [None if j is None else values[j] for j in rows]
    views = episodes.columns.get(VIEWS_COLUMN.name)
    if views is not None and any(v is not None for v in views):
        schemas.append(VIEWS_COLUMN)
        columns[VIEWS_COLUMN.name] = list(views)
    return RawTable(schemas, columns)


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

    feats = [derive_date_features(d, reference_date) for d in release_dates]
    table = table.with_column(ColumnSchema("age_days", "numeric"), [float(f.age_days) for f in feats])
    table = table.with_column(ColumnSchema("day_of_week", "categorical"), [str(f.day_of_week) for f in feats])
    table = table.with_column(ColumnSchema("month", "categorical"), [str(f.month) for f in feats])
    table = table.with_column(ColumnSchema("quarter", "categorical"), [str(f.quarter) for f in feats])
    return table, reference_date
