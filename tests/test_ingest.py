import csv
import datetime
import math
import random
import warnings
from pathlib import Path

import numpy as np
import pytest

from coldstart.data import NUMERIC_ROLES, ColumnSchema, RawTable, build_dataset
from coldstart.errors import DataError, SchemaError
from coldstart.ingest import (
    CREDIT_COLUMNS,
    EPISODE_COLUMNS,
    GENRE_COLUMNS,
    PLATFORM_COLUMNS,
    PLATFORM_METRICS,
    ROLES_CREW,
    VIEWS_COLUMN,
    apply_genre_aliases,
    build_model_table,
    consolidate_metadata,
    derive_date_features,
    load_csv,
    parse_length_to_minutes,
    read_credits,
    read_episodes,
    read_genre_aliases,
    read_genres,
    read_platform,
    write_csv,
)
from coldstart.synth import SynthConfig, generate
from table_cells import cells

D = datetime.date


def ep(sid, eid, date=D(2016, 1, 1), length=30.0, views=100.0):
    return (sid, eid, date, length, views)


def consolidate(episodes, credits=(), genres=(), platform=()):
    """consolidate_metadata over tables built from the given row tuples."""
    return consolidate_metadata(
        RawTable.from_rows(EPISODE_COLUMNS + (VIEWS_COLUMN,), episodes),
        RawTable.from_rows(CREDIT_COLUMNS, credits),
        genres if isinstance(genres, RawTable) else RawTable.from_rows(GENRE_COLUMNS, genres),
        RawTable.from_rows(PLATFORM_COLUMNS, platform),
    )


def platform_row(sid, eid, **metrics):
    return (sid, eid, *(metrics.get(m) for m in PLATFORM_METRICS))


# --- load_csv ---------------------------------------------------------------

def test_load_csv_basic(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("series_id,views\nS1,100\nS2,200\n")
    table = load_csv(path, [ColumnSchema("series_id", "id"), ColumnSchema("views", "target")])
    assert table.n_rows == 2
    assert cells(table.column("views")) == [100.0, 200.0]


def test_load_csv_empty_cell_is_missing_not_zero(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x\n\n3\n")
    table = load_csv(path, [ColumnSchema("x", "numeric")])
    assert cells(table.column("x")) == [None, 3.0]


def test_load_csv_bad_numeric_names_row_and_column(tmp_path):
    path = tmp_path / "t.csv"
    # float() parses the last four, but a non-finite value is not a number to model
    for cell in ('"12,5"', "nan", "inf", "-Infinity", "1e400"):
        path.write_text(f"x\n1\n{cell}\n")
        with pytest.raises(DataError) as err:
            load_csv(path, [ColumnSchema("x", "numeric")])
        assert "t.csv" in str(err.value) and "row 3" in str(err.value) and "'x'" in str(err.value)


XYD = [ColumnSchema("x", "numeric"), ColumnSchema("y", "target"), ColumnSchema("d", "date")]


@pytest.mark.parametrize(
    "body, message",
    [
        # bad cells in different rows and columns: the earlier row is named
        ("1,2,2016-01-01\n3,oops,2016-01-02\nbad,4,2016-01-03\n", "numeric cell 'oops' (row 3, column 'y')"),
        ("1,2,2016-01-01\n3,4,2016-13-01\nbad,4,2016-01-03\n", "date '2016-13-01' (row 3, column 'd')"),
        # two bad cells in one row: the earlier schema column is named
        ("1,2,2016-01-01\n3,inf,never\n", "numeric cell 'inf' (row 3, column 'y')"),
        ("1,2,2016-01-01\nnan,inf,2016-01-01\n", "numeric cell 'nan' (row 3, column 'x')"),
        # a bad date after a valid date that repeats is named at its own row
        ("1,2,2016-01-01\n1,2,2016-01-01\n1,2,2016-02-30\n1,2,2016-01-01\n", "date '2016-02-30' (row 4, column 'd')"),
    ],
)
def test_load_csv_names_the_first_bad_cell_in_row_major_order(tmp_path, body, message):
    path = tmp_path / "t.csv"
    path.write_text("x,y,d\n" + body)
    with pytest.raises(DataError) as err:
        load_csv(path, XYD)
    assert str(err.value) == f"{path}: unparseable {'or non-finite ' if 'numeric' in message else ''}{message}"


def test_load_csv_short_row_reads_missing_cells_as_none(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("s,x,y,d\nS1,1,2,2016-01-01\nS2,3\nS3\n")
    table = load_csv(path, [ColumnSchema("s", "id")] + XYD)
    assert table.column("s") == ["S1", "S2", "S3"]
    assert cells(table.column("x")) == [1.0, 3.0, None]
    assert cells(table.column("y")) == [2.0, None, None]
    assert table.column("d") == [D(2016, 1, 1), None, None]


def test_load_csv_accepts_finite_values_whose_sum_overflows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x\n1e308\n1e308\n-1e308\n")
    assert cells(load_csv(path, [ColumnSchema("x", "numeric")]).column("x")) == [1e308, 1e308, -1e308]


def rowwise_load_csv(path, expected_schema):
    """Reference loader: the cell-by-cell read that load_csv's column parse
    replaced, raising at the first bad cell in row-major order."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        columns = {s.name: [] for s in expected_schema}
        for row_num, row in enumerate(reader, start=2):
            for schema in expected_schema:
                pos = header.index(schema.name)
                cell = row[pos].strip() if pos < len(row) else ""
                if cell == "":
                    value = None
                elif schema.role in ("numeric", "target"):
                    try:
                        value = float(cell)
                    except ValueError:
                        value = math.nan
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
                            f"{path}: unparseable date {cell!r} (row {row_num}, column {schema.name!r})"
                        ) from None
                else:
                    value = cell
                columns[schema.name].append(value)
    return columns


def test_column_parse_matches_rowwise_reference(tmp_path):
    rng = random.Random(8)
    # role -> (good cells, bad cells); a 1e308 pair overflows a sum
    cells_of = {
        "numeric": (["1", " 2.5 ", "-0.0", "1e308", ""], ["x", "nan", "inf", "1e400"]),
        "date": (["2016-01-01", " 2017-02-28", ""], ["2016-02-30", "soon"]),
        "categorical": (["a", " b ", "", "c d"], ["a"]),
    }
    schema = [ColumnSchema("d", "date"), ColumnSchema("n", "numeric"), ColumnSchema("c", "categorical"), ColumnSchema("t", "target")]
    file_roles = ("numeric", "categorical", "categorical", "numeric", "date")  # t,c,skip,n,d
    path = tmp_path / "t.csv"
    outcomes = set()
    for _ in range(300):
        bad_rate = rng.choice([0.0, 0.02, 0.2])
        lines = ["t,c,skip,n,d"]
        for _ in range(rng.randint(0, 12)):
            row = [rng.choice(cells_of[role][rng.random() < bad_rate]) for role in file_roles]
            lines.append(",".join(row[: rng.choice([5, 5, 5, 4, 2])]))  # some rows short
        path.write_text("\n".join(lines) + "\n")
        try:
            want = rowwise_load_csv(path, schema)
        except DataError as exc:
            with pytest.raises(DataError) as err:
                load_csv(path, schema)
            assert str(err.value) == str(exc)
            outcomes.add("error")
        else:
            table = load_csv(path, schema)
            assert {name: cells(table.column(name)) for name in table.columns} == want
            outcomes.add("table")
    assert outcomes == {"error", "table"}


def per_cell_write_csv(path, schemas, rows):
    """The per-cell writer that write_csv replaced, kept as its byte reference."""

    def cell_text(value):
        if value is None:
            return ""
        if isinstance(value, float):
            return repr(value)
        return str(value)

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([s.name for s in schemas])
        for row in rows:
            writer.writerow([cell_text(v) for v in row])


@pytest.mark.parametrize(
    "schemas, rows",
    [
        (
            [ColumnSchema("name", "categorical"), ColumnSchema("x", "numeric"), ColumnSchema("n", "target")],
            [
                ("plain", 0.1 + 0.2, 3),
                ("a, comma", -0.0, -7),
                ('a "quote"', 1e-300, 0),
                ('both, "', 1e22, 2**40),
                (None, None, None),
            ],
        ),
        ([ColumnSchema("x", "numeric")], [(None,), (2.5,), (None,)]),  # a lone empty cell is quoted
    ],
)
def test_write_csv_matches_per_cell_writer_and_round_trips(tmp_path, schemas, rows):
    write_csv(tmp_path / "new.csv", schemas, rows)
    per_cell_write_csv(tmp_path / "old.csv", schemas, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    table = load_csv(tmp_path / "new.csv", schemas)
    for j, schema in enumerate(schemas):
        want = [row[j] for row in rows]
        got = table.column(schema.name)
        if schema.role in NUMERIC_ROLES:
            missing = np.array([v is None for v in want])
            assert np.array_equal(np.isnan(got), missing)
            # tobytes tells -0.0 from 0.0
            assert got[~missing].tobytes() == np.array([v for v in want if v is not None], dtype=float).tobytes()
        else:
            assert got == want


def test_load_csv_missing_header_and_empty_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a\n1\n")
    with pytest.raises(DataError):
        load_csv(path, [ColumnSchema("b", "numeric")])
    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(DataError):
        load_csv(empty, [ColumnSchema("a", "numeric")])


def test_every_reader_skips_a_utf8_byte_order_mark(tmp_path):
    # spreadsheet "CSV UTF-8" exports start the file with a BOM, which must
    # not become part of the first header name
    paths = generate(SynthConfig(n_series=6, seed=5), tmp_path / "plain")
    alias = tmp_path / "plain" / "aliases.csv"
    alias.write_text("alias,canonical\nSci-Fi,scifi\n", encoding="utf-8")
    readers = {
        paths["episodes"]: read_episodes,
        paths["credits"]: read_credits,
        paths["genres"]: read_genres,
        paths["platform"]: read_platform,
        alias: read_genre_aliases,
    }
    (tmp_path / "bom").mkdir()
    for path, read in readers.items():
        bom = tmp_path / "bom" / Path(path).name
        bom.write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
        want, got = read(path), read(bom)
        if isinstance(want, dict):
            assert got == want
            continue
        assert got.schemas == want.schemas
        for name in want.columns:
            assert cells(got.column(name)) == cells(want.column(name)), (path, name)


def test_read_episodes_views_optional(tmp_path):
    path = tmp_path / "eps.csv"
    path.write_text("series_id,episode_id,release_date,length\nS1,E1,2016-01-01,30m\n")
    table = read_episodes(path)
    assert "views" not in table.columns
    assert cells(table.column("length_minutes")) == [30.0]


def test_read_episodes_bad_length_names_row_and_column(tmp_path):
    path = tmp_path / "eps.csv"
    path.write_text("series_id,episode_id,release_date,length\nS1,E1,2016-01-01,30m\nS1,E2,2016-01-08,ninety\n")
    with pytest.raises(DataError) as err:
        read_episodes(path)
    message = str(err.value)
    assert "eps.csv" in message and "row 3" in message and "'length'" in message and "'ninety'" in message


@pytest.mark.parametrize(
    "body, message",
    [
        # a missing cell and a bad length in one row: the missing cell is named
        ("S1,E1,2016-01-01,30m\nS1,,2016-01-08,ninety\n", "row 3 is missing 'episode_id'"),
        ("S1,E1,2016-01-01,ninety\nS1,,2016-01-08,30m\n", "unrecognized length format 'ninety' (row 2, column 'length')"),
        ("S1,E1,2016-01-01,30m\nS1,E2,2016-01-08,30m\nS1,E3,2016-01-15,\n", "row 4 is missing 'length'"),
        ("S1,E1,2016-01-01,30m\nS1,E2,2016-01-08,30m\nS1,E3,2016-01-15,1h 5x\n", "(row 4, column 'length')"),
    ],
)
def test_read_episodes_names_the_first_bad_row(tmp_path, body, message):
    path = tmp_path / "eps.csv"
    path.write_text("series_id,episode_id,release_date,length\n" + body)
    with pytest.raises(DataError) as err:
        read_episodes(path)
    assert str(err.value).startswith(f"{path}: ") and str(err.value).endswith(message)


@pytest.mark.parametrize(
    "body, message",
    [
        # within a row the checks run role, rating, negative awards, integer awards
        ("S1,a,actor,7,2\nS1,b,producer,11,-1\n", "row 3 has unknown crew role 'producer'"),
        ("S1,a,actor,11,2.5\n", "row 2 rating 11.0 outside [0, 10]"),
        ("S1,a,actor,,-1\n", "row 2 has negative awards"),
        ("S1,a,actor,,\nS1,b,writer,-0.5,2.5\n", "row 3 rating -0.5 outside [0, 10]"),
        ("S1,a,actor,7,2.5\nS1,b,writer,12,1\n", "non-integer awards 2.5 (row 2, column 'awards')"),
    ],
)
def test_read_credits_names_the_first_bad_row(tmp_path, body, message):
    path = tmp_path / "credits.csv"
    path.write_text("series_id,name,role,imdb_rating,awards\n" + body)
    with pytest.raises(DataError) as err:
        read_credits(path)
    assert str(err.value) == f"{path}: {message}"


def test_read_credits_rejects_non_integer_awards(tmp_path):
    path = tmp_path / "credits.csv"
    path.write_text("series_id,name,role,imdb_rating,awards\nS1,a,actor,7,2\nS1,b,actor,7,2.5\n")
    with pytest.raises(DataError) as err:
        read_credits(path)
    assert "credits.csv" in str(err.value) and "row 3" in str(err.value) and "'awards'" in str(err.value)


# --- length parsing ----------------------------------------------------------

@pytest.mark.parametrize(
    "raw,minutes",
    [
        ("1h 30m", 90.0),
        ("0m", 0.0),
        ("02:15", 135.0),
        ("2h", 120.0),
        ("45m", 45.0),
        ("00:21", 21.0),
    ],
)
def test_parse_length(raw, minutes):
    assert parse_length_to_minutes(raw) == minutes


@pytest.mark.parametrize("raw", ["ninety", "1h30", "h m", "", "12:99", "-5m"])
def test_parse_length_rejects(raw):
    with pytest.raises(DataError):
        parse_length_to_minutes(raw)


def test_parse_length_round_trips_canonical():
    for h in range(0, 4):
        for m in range(0, 60, 7):
            if h == 0 and m == 0:
                continue
            text = f"{h}h {m}m" if h else f"{m}m"
            assert parse_length_to_minutes(text) == h * 60 + m


# --- date features -----------------------------------------------------------

def test_date_features_civil_calendar():
    f = derive_date_features(D(2015, 10, 1), D(2015, 10, 8))
    assert f.age_days == 7
    assert f.day_of_week == 3  # 2015-10-01 was a Thursday
    assert f.month == 10
    assert f.quarter == 4


def test_date_features_same_day_and_leap_year():
    assert derive_date_features(D(2016, 1, 15), D(2016, 1, 15)).age_days == 0
    f = derive_date_features(D(2016, 1, 15), D(2016, 3, 1))
    assert f.age_days == 46  # 2016 is a leap year
    assert f.quarter == 1


def test_date_features_reference_before_release_errors():
    with pytest.raises(DataError):
        derive_date_features(D(2016, 1, 2), D(2016, 1, 1))


# --- consolidation -----------------------------------------------------------

def test_best_rating_is_max():
    credits = [
        ("S1", "a", "actor", 7.0, 0),
        ("S1", "b", "actor", 8.5, 0),
    ]
    table = consolidate([ep("S1", "E1")], credits)
    assert cells(table.column("best_actor_rating")) == [8.5]


def test_genre_distinct_count():
    genres = [
        ("S1", "drama", "imdb"),
        ("S1", "crime", "imdb"),
        ("S1", "drama", "rotten"),
    ]
    table = consolidate([ep("S1", "E1")], genres=genres)
    assert cells(table.column("genre_count")) == [2.0]


def test_award_and_count_aggregation():
    credits = [
        ("S1", "a1", "actor", 6.0, 3),
        ("S1", "a2", "actor", 7.0, 1),
        ("S1", "d1", "director", 8.0, 4),
    ]
    table = consolidate([ep("S1", "E1")], credits)
    assert cells(table.column("actor_total_awards")) == [4.0]
    assert cells(table.column("director_total_awards")) == [4.0]
    assert cells(table.column("actor_crew_count")) == [2.0]


def test_exact_duplicate_credits_removed():
    credit = ("S1", "a1", "actor", 6.0, 3)
    table = consolidate([ep("S1", "E1")], [credit, credit])
    assert cells(table.column("actor_total_awards")) == [3.0]
    assert cells(table.column("actor_crew_count")) == [1.0]


def test_zero_credits_of_role():
    table = consolidate([ep("S1", "E1")])
    assert cells(table.column("best_writer_rating")) == [None]
    assert cells(table.column("writer_total_awards")) == [0.0]
    assert cells(table.column("writer_crew_count")) == [0.0]


def test_missing_ratings_do_not_poison_max():
    credits = [
        ("S1", "a1", "actor", None, None),
        ("S1", "a2", "actor", 5.5, 2),
    ]
    table = consolidate([ep("S1", "E1")], credits)
    assert cells(table.column("best_actor_rating")) == [5.5]
    assert cells(table.column("actor_total_awards")) == [2.0]
    assert cells(table.column("actor_crew_count")) == [2.0]


def test_platform_join_and_missing():
    platform = [platform_row("S1", "E1", exposures=10.0)]
    table = consolidate([ep("S1", "E1"), ep("S1", "E2")], platform=platform)
    assert cells(table.column("exposures")) == [10.0, None]
    assert cells(table.column("revenue")) == [None, None]


def test_duplicate_platform_rows_error():
    # keeping either row would make the features depend on row order
    rows = [platform_row("S1", "E1", exposures=1.0), platform_row("S1", "E1", exposures=2.0)]
    for platform in (rows, rows[::-1]):
        with pytest.raises(DataError, match=r"\('S1', 'E1'\)"):
            consolidate([ep("S1", "E1")], platform=platform)


def test_row_count_matches_episodes():
    episodes = [ep("S1", f"E{i}") for i in range(7)] + [ep("S2", "E1")]
    table = consolidate(episodes)
    assert table.n_rows == 8


def test_duplicate_episode_errors():
    with pytest.raises(DataError):
        consolidate([ep("S1", "E1"), ep("S1", "E1")])


def test_unknown_series_warns_not_errors():
    with pytest.warns(UserWarning):
        consolidate([ep("S1", "E1")], [("S9", "x", "actor", 5.0, 1)])


def test_aggregation_permutation_invariant():
    import random

    episodes = [ep("S1", "E1"), ep("S2", "E1")]
    credits = [
        ("S1", "a", "actor", 7.5, 1),
        ("S1", "b", "actor", 6.5, 2),
        ("S2", "c", "actor", 9.0, 0),
        ("S1", "d", "writer", 8.0, 5),
    ]
    genres = [("S1", "drama", "x"), ("S1", "crime", "x"), ("S2", "drama", "y")]
    platform = [platform_row("S1", "E1", exposures=3.0), platform_row("S2", "E1", revenue=9.0)]
    base = consolidate(episodes, credits, genres, platform)
    rng = random.Random(7)
    for _ in range(5):
        rng.shuffle(credits)
        rng.shuffle(genres)
        rng.shuffle(platform)
        again = consolidate(episodes, credits, genres, platform)
        for name in base.columns:
            assert cells(base.column(name)) == cells(again.column(name))


def test_genre_aliases():
    genres = RawTable.from_rows(GENRE_COLUMNS, [("S1", "Sci-Fi", "imdb"), ("S1", "scifi", "rotten")])
    mapped = apply_genre_aliases(genres, {"Sci-Fi": "scifi"})
    table = consolidate([ep("S1", "E1")], genres=mapped)
    assert cells(table.column("genre_count")) == [1.0]
    # unmapped genres pass through verbatim
    same = apply_genre_aliases(genres, {})
    assert same.column("genre") == ["Sci-Fi", "scifi"]


def test_genre_alias_maps_to_one_genre(tmp_path):
    path = tmp_path / "aliases.csv"
    # an exact repeat of a row is legal
    path.write_text("alias,canonical\nSci-Fi,scifi\nRom-Com,comedy\nSci-Fi,scifi\n", encoding="utf-8")
    assert read_genre_aliases(path) == {"Sci-Fi": "scifi", "Rom-Com": "comedy"}
    # a second canonical genre for one alias names both rows
    path.write_text("alias,canonical\nSci-Fi,scifi\nRom-Com,comedy\nSci-Fi,drama\n", encoding="utf-8")
    with pytest.raises(DataError, match="row 4 maps alias 'Sci-Fi' to 'drama', but row 2 maps it to 'scifi'"):
        read_genre_aliases(path)


def reference_consolidate(episodes, credits, genres, platform):
    """Row-at-a-time consolidation, the reference for consolidate_metadata:
    its schemas and its columns of Python cells (None missing)."""
    series = episodes.column("series_id")
    keys = list(zip(series, episodes.column("episode_id")))
    seen = set()
    for key in keys:
        if key in seen:
            raise DataError(f"duplicate episode {key}")
        seen.add(key)
    known = set(series)
    best, awards, count = {}, {}, {}
    for sid, _, role, rating, award in dict.fromkeys(zip(*(cells(credits.column(s.name)) for s in CREDIT_COLUMNS))):
        if sid not in known:
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
        if sid not in known:
            warnings.warn(f"genre for unknown series {sid!r}")
            continue
        genre_sets.setdefault(sid, set()).add(genre)
    platform_row = {}
    for j, key in enumerate(zip(platform.column("series_id"), platform.column("episode_id"))):
        if key[0] not in known:
            warnings.warn(f"platform row for unknown series {key[0]!r}")
            continue
        if key in platform_row:
            raise DataError(f"duplicate platform row {key}")
        platform_row[key] = j

    schemas = [s for s in EPISODE_COLUMNS if s.name != "release_date"]
    columns = {s.name: cells(episodes.column(s.name)) for s in schemas}
    for role in ROLES_CREW:
        for name, cell in (
            (f"best_{role}_rating", lambda sid: best.get((sid, role))),
            (f"{role}_total_awards", lambda sid: float(awards.get((sid, role), 0))),
            (f"{role}_crew_count", lambda sid: float(count.get((sid, role), 0))),
        ):
            schemas.append(ColumnSchema(name, "numeric"))
            columns[name] = [cell(sid) for sid in series]
    schemas.append(ColumnSchema("genre_count", "numeric"))
    columns["genre_count"] = [float(len(genre_sets.get(sid, ()))) for sid in series]
    for metric in PLATFORM_METRICS:
        schemas.append(ColumnSchema(metric, "numeric"))
        values = cells(platform.column(metric))
        columns[metric] = [None if platform_row.get(k) is None else values[platform_row[k]] for k in keys]
    views = cells(episodes.column("views"))
    if any(v is not None for v in views):
        schemas.append(VIEWS_COLUMN)
        columns["views"] = views
    return schemas, columns


def _typed(columns):
    """Every cell with its type and sign, so 0.0 and -0.0 (or 1 and 1.0) differ."""
    return {name: [(type(v), repr(v)) for v in values] for name, values in columns.items()}


def _random_metadata(rng, n_series):
    """Row tuples for episodes, credits, genres and platform with duplicate
    credits, unknown series, missing ratings and awards, tied and signed-zero
    ratings, and episodes without a platform row."""
    sids = [f"S{i}" for i in range(n_series)]
    episodes = [ep(s, f"E{e}", views=rng.choice([None, 10.0, 0.0])) for s in sids for e in range(rng.randint(1, 4))]
    pool = sids + ["X1", "X2"]  # X*: series with no episodes
    credits = []
    for _ in range(6 * n_series):
        rating = rng.choice([None, 0.0, -0.0, 5.5, 7.0, 7.0, 9.25])
        award = rng.choice([None, 0.0, 1.0, 3.0])
        credits.append((rng.choice(pool), f"p{rng.randint(0, 4)}", rng.choice(ROLES_CREW), rating, award))
    credits += rng.sample(credits, len(credits) // 4)  # exact duplicates
    rng.shuffle(credits)
    genres = [(rng.choice(pool), rng.choice(["drama", "crime", "comedy"]), "src") for _ in range(3 * n_series)]
    platform = [
        platform_row(sid, eid, **{m: rng.choice([None, float(rng.randint(0, 99))]) for m in PLATFORM_METRICS})
        for sid, eid, *_ in episodes
        if rng.random() < 0.7
    ] + [platform_row("X2", "E0", exposures=1.0)]
    rng.shuffle(platform)
    return episodes, credits, genres, platform


def test_consolidate_matches_row_reference():
    rng = random.Random(3)
    for n_series in (1, 2, 5, 40):
        for _ in range(5):
            rows = _random_metadata(rng, n_series)
            schemas = (EPISODE_COLUMNS + (VIEWS_COLUMN,), CREDIT_COLUMNS, GENRE_COLUMNS, PLATFORM_COLUMNS)
            tables = [RawTable.from_rows(schema, r) for schema, r in zip(schemas, rows)]
            with warnings.catch_warnings(record=True) as want_warnings:
                warnings.simplefilter("always")
                want_schemas, want = reference_consolidate(*tables)
            with warnings.catch_warnings(record=True) as got_warnings:
                warnings.simplefilter("always")
                got = consolidate_metadata(*tables)
            assert got.schemas == want_schemas
            assert _typed({name: cells(got.column(name)) for name in got.columns}) == _typed(want)
            assert [str(w.message) for w in got_warnings] == [str(w.message) for w in want_warnings]


def test_consolidate_keeps_the_first_of_equal_best_ratings():
    credits = [("S1", "a", "actor", -0.0, None), ("S1", "b", "actor", 0.0, None), ("S1", "c", "writer", 0.0, None)]
    credits.append(("S1", "d", "writer", -0.0, None))
    table = consolidate([ep("S1", "E1")], credits)
    assert repr(cells(table.column("best_actor_rating"))) == "[-0.0]"
    assert repr(cells(table.column("best_writer_rating"))) == "[0.0]"


def test_consolidate_duplicate_errors_match_reference():
    episodes = [ep("S1", "E1"), ep("S1", "E2"), ep("S2", "E1"), ep("S1", "E2"), ep("S2", "E1")]
    with pytest.raises(DataError, match=r"duplicate episode \('S1', 'E2'\)"):
        consolidate(episodes)
    platform = [platform_row("S9", "E1"), platform_row("S9", "E1"), platform_row("S1", "E1"), platform_row("S1", "E1")]
    with pytest.warns(UserWarning), pytest.raises(DataError, match=r"duplicate platform row \('S1', 'E1'\)"):
        consolidate([ep("S1", "E1")], platform=platform)


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_numbers_are_float64_arrays_from_csv_to_features(tmp_path):
    """Every numeric and target column is a 1-D float64 array,
    NaN exactly where its cell is missing, in every table from the CSV to
    the features."""
    paths = generate(SynthConfig(n_series=30, seed=11), tmp_path)

    def check(table):
        for s in table.schemas:
            column = table.column(s.name)
            if s.role in NUMERIC_ROLES:
                assert isinstance(column, np.ndarray) and column.dtype == np.float64 and column.ndim == 1, s.name
            else:
                assert isinstance(column, list), s.name
        return table

    def missing(table, name):
        return np.isnan(table.column(name)).tolist()

    loaded = {"credits": read_credits(paths["credits"]), "platform": read_platform(paths["platform"])}
    loaded["episodes"] = episodes = read_episodes(paths["episodes"])
    loaded["load_csv"] = load_csv(paths["credits"], CREDIT_COLUMNS)
    for name, table in loaded.items():
        rows = _csv_rows(paths["credits" if name == "load_csv" else name])
        for s in check(table).schemas:
            if s.role in NUMERIC_ROLES and s.name in rows[0]:
                assert missing(table, s.name) == [row[s.name] == "" for row in rows], (name, s.name)
    assert any(missing(loaded["credits"], "imdb_rating")) and any(missing(loaded["platform"], "revenue"))
    genres = check(read_genres(paths["genres"]))

    credits, platform = loaded["credits"], loaded["platform"]
    table = check(consolidate_metadata(episodes, credits, genres, platform))
    series = episodes.column("series_id")
    keys = list(zip(series, episodes.column("episode_id")))
    rated = {(row["series_id"], row["role"]) for row in _csv_rows(paths["credits"]) if row["imdb_rating"]}
    for role in ROLES_CREW:
        assert missing(table, f"best_{role}_rating") == [(sid, role) not in rated for sid in series]
        assert not any(missing(table, f"{role}_total_awards") + missing(table, f"{role}_crew_count"))
    platform_rows = {(row["series_id"], row["episode_id"]): row for row in _csv_rows(paths["platform"])}
    for metric in PLATFORM_METRICS:
        assert missing(table, metric) == [key not in platform_rows or platform_rows[key][metric] == "" for key in keys]

    model_table, _ = build_model_table(episodes, credits, genres, platform)
    check(model_table)
    assert not any(missing(model_table, "age_days"))
    features, y = build_dataset(model_table)
    check(features)
    assert y.dtype == np.float64 and y.ndim == 1
    for indices in ([3, 0, 3], []):
        rows = check(features.take_rows(indices))
        for s in rows.schemas:
            if s.role in NUMERIC_ROLES:
                assert missing(rows, s.name) == [missing(features, s.name)[i] for i in indices]
    kept = check(features.drop_columns(["exposures", "month"]))
    assert all(kept.column(name) is features.column(name) for name in kept.columns)

    for role in NUMERIC_ROLES:
        for column in ([1.0, None], np.array([1, 2]), np.zeros((2, 1)), (1.0, 2.0)):
            with pytest.raises(SchemaError, match="must be a 1-D float64 array"):
                RawTable([ColumnSchema("x", role)], {"x": column})
        values = np.array([1.0, np.nan])
        assert RawTable([ColumnSchema("x", role)], {"x": values}).column("x") is values  # checked, not copied
