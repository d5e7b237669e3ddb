"""CSV loading and metadata feature engineering.

Turns four episode/credit/genre/platform CSVs into one model-ready table:
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


@dataclass(frozen=True)
class EpisodeRow:
    series_id: str
    episode_id: str
    release_date: datetime.date
    length_minutes: float
    views: float | None = None  # absent at predict time


@dataclass(frozen=True)
class PersonCredit:
    series_id: str
    name: str
    role: str  # actor | director | writer
    imdb_rating: float | None = None
    awards: int | None = None


@dataclass(frozen=True)
class GenreRow:
    series_id: str
    genre: str
    source: str = ""


@dataclass(frozen=True)
class PlatformRow:
    series_id: str
    episode_id: str
    exposures: float | None = None
    minutes_viewed: float | None = None
    revenue: float | None = None
    audience_estimate: float | None = None
    impressions: float | None = None


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


def _table_cells(table, row, names):
    return {n: table.column(n)[row] for n in names}


def read_episodes(path):
    """Load episodes.csv into EpisodeRow objects; the views column is optional."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
    schema = [
        ColumnSchema("series_id", "id"),
        ColumnSchema("episode_id", "id"),
        ColumnSchema("release_date", "date"),
        ColumnSchema("length", "categorical"),
    ]
    has_views = "views" in header
    if has_views:
        schema.append(ColumnSchema("views", "target"))
    table = load_csv(path, schema)

    episodes = []
    for i in range(table.n_rows):
        cells = _table_cells(table, i, [s.name for s in schema])
        for key in ("series_id", "episode_id", "release_date", "length"):
            if cells[key] is None:
                raise DataError(f"{path}: row {i + 2} is missing {key!r}")
        episodes.append(
            EpisodeRow(
                series_id=cells["series_id"],
                episode_id=cells["episode_id"],
                release_date=cells["release_date"],
                length_minutes=parse_length_to_minutes(cells["length"]),
                views=cells.get("views"),
            )
        )
    return episodes


def read_credits(path):
    schema = [
        ColumnSchema("series_id", "id"),
        ColumnSchema("name", "categorical"),
        ColumnSchema("role", "categorical"),
        ColumnSchema("imdb_rating", "numeric"),
        ColumnSchema("awards", "numeric"),
    ]
    table = load_csv(path, schema)
    credits = []
    for i in range(table.n_rows):
        cells = _table_cells(table, i, [s.name for s in schema])
        role = cells["role"]
        if role not in ROLES_CREW:
            raise DataError(f"{path}: row {i + 2} has unknown crew role {role!r}")
        rating = cells["imdb_rating"]
        if rating is not None and not 0.0 <= rating <= 10.0:
            raise DataError(f"{path}: row {i + 2} rating {rating} outside [0, 10]")
        awards = cells["awards"]
        if awards is not None and awards < 0:
            raise DataError(f"{path}: row {i + 2} has negative awards")
        credits.append(
            PersonCredit(
                series_id=cells["series_id"],
                name=cells["name"],
                role=role,
                imdb_rating=rating,
                awards=None if awards is None else int(awards),
            )
        )
    return credits


def read_genres(path):
    schema = [
        ColumnSchema("series_id", "id"),
        ColumnSchema("genre", "categorical"),
        ColumnSchema("source", "categorical"),
    ]
    table = load_csv(path, schema)
    rows = []
    for i in range(table.n_rows):
        cells = _table_cells(table, i, [s.name for s in schema])
        if not cells["genre"]:
            raise DataError(f"{path}: row {i + 2} has an empty genre")
        rows.append(
            GenreRow(
                series_id=cells["series_id"],
                genre=cells["genre"],
                source=cells["source"] or "",
            )
        )
    return rows


def read_platform(path):
    schema = [ColumnSchema("series_id", "id"), ColumnSchema("episode_id", "id")]
    schema += [ColumnSchema(m, "numeric") for m in PLATFORM_METRICS]
    table = load_csv(path, schema)
    rows = []
    for i in range(table.n_rows):
        cells = _table_cells(table, i, [s.name for s in schema])
        rows.append(
            PlatformRow(
                series_id=cells["series_id"],
                episode_id=cells["episode_id"],
                **{m: cells[m] for m in PLATFORM_METRICS},
            )
        )
    return rows


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
        return list(genres)
    return [
        GenreRow(g.series_id, alias_map.get(g.genre, g.genre), g.source) for g in genres
    ]


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
    """One feature row per episode from crew, genre, and platform inputs.

    Per role and series: best_<role>_rating is the max rating over that
    series' credits (missing if none carry a rating), <role>_total_awards
    the sum of awards, <role>_crew_count the number of credits — all after
    dropping exact duplicate credit rows. genre_count is the number of
    distinct genre labels per series. Platform metrics join on
    (series_id, episode_id). Input series referenced by credit/genre/
    platform rows but absent from episodes produce warnings, not errors.
    """
    seen = set()
    for ep in episodes:
        key = (ep.series_id, ep.episode_id)
        if key in seen:
            raise DataError(f"duplicate episode {key}")
        seen.add(key)
    known_series = {ep.series_id for ep in episodes}

    deduped = list(dict.fromkeys(credits))  # exact duplicate rows removed, order kept
    crew = {}  # (series, role) -> dict(best, awards, count)
    for credit in deduped:
        if credit.series_id not in known_series:
            warnings.warn(f"credit for unknown series {credit.series_id!r}")
            continue
        slot = crew.setdefault(
            (credit.series_id, credit.role), {"best": None, "awards": 0, "count": 0}
        )
        slot["count"] += 1
        if credit.imdb_rating is not None:
            if slot["best"] is None or credit.imdb_rating > slot["best"]:
                slot["best"] = credit.imdb_rating
        if credit.awards is not None:
            slot["awards"] += credit.awards

    genre_sets = {}
    for row in genres:
        if row.series_id not in known_series:
            warnings.warn(f"genre for unknown series {row.series_id!r}")
            continue
        genre_sets.setdefault(row.series_id, set()).add(row.genre)

    platform_by_key = {}
    for row in platform:
        if row.series_id not in known_series:
            warnings.warn(f"platform row for unknown series {row.series_id!r}")
            continue
        platform_by_key[(row.series_id, row.episode_id)] = row

    schemas = [
        ColumnSchema("series_id", "id"),
        ColumnSchema("episode_id", "id"),
        ColumnSchema("length_minutes", "numeric"),
    ]
    for role in ROLES_CREW:
        schemas.append(ColumnSchema(f"best_{role}_rating", "numeric"))
        schemas.append(ColumnSchema(f"{role}_total_awards", "numeric"))
        schemas.append(ColumnSchema(f"{role}_crew_count", "numeric"))
    schemas.append(ColumnSchema("genre_count", "numeric"))
    schemas += [ColumnSchema(m, "numeric") for m in PLATFORM_METRICS]
    has_views = any(ep.views is not None for ep in episodes)
    if has_views:
        schemas.append(ColumnSchema("views", "target"))

    columns = {s.name: [] for s in schemas}
    for ep in episodes:
        columns["series_id"].append(ep.series_id)
        columns["episode_id"].append(ep.episode_id)
        columns["length_minutes"].append(ep.length_minutes)
        for role in ROLES_CREW:
            slot = crew.get((ep.series_id, role), {"best": None, "awards": 0, "count": 0})
            columns[f"best_{role}_rating"].append(slot["best"])
            columns[f"{role}_total_awards"].append(float(slot["awards"]))
            columns[f"{role}_crew_count"].append(float(slot["count"]))
        columns["genre_count"].append(float(len(genre_sets.get(ep.series_id, ()))))
        prow = platform_by_key.get((ep.series_id, ep.episode_id))
        for metric in PLATFORM_METRICS:
            columns[metric].append(None if prow is None else getattr(prow, metric))
        if has_views:
            columns["views"].append(ep.views)
    return RawTable(schemas, columns)


def build_model_table(episodes, credits, genres, platform, reference_date=None):
    """Consolidated metadata plus date-derived features, ready for build_dataset.

    Calendar fields (day of week, month, quarter) are emitted as categorical
    columns so they one-hot encode; age_days stays numeric. reference_date
    defaults to the latest release date in the input.
    """
    if not episodes:
        raise DataError("no episodes to build a table from")
    if reference_date is None:
        reference_date = max(ep.release_date for ep in episodes)
    table = consolidate_metadata(episodes, credits, genres, platform)

    age, dow, month, quarter = [], [], [], []
    for ep in episodes:
        feats = derive_date_features(ep.release_date, reference_date)
        age.append(float(feats.age_days))
        dow.append(str(feats.day_of_week))
        month.append(str(feats.month))
        quarter.append(str(feats.quarter))
    table = table.with_column(ColumnSchema("age_days", "numeric"), age)
    table = table.with_column(ColumnSchema("day_of_week", "categorical"), dow)
    table = table.with_column(ColumnSchema("month", "categorical"), month)
    table = table.with_column(ColumnSchema("quarter", "categorical"), quarter)
    return table, reference_date
