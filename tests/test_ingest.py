import datetime

import pytest

from coldstart.data import ColumnSchema, RawTable
from coldstart.errors import DataError
from coldstart.ingest import (
    CREDIT_COLUMNS,
    EPISODE_COLUMNS,
    GENRE_COLUMNS,
    PLATFORM_COLUMNS,
    PLATFORM_METRICS,
    VIEWS_COLUMN,
    apply_genre_aliases,
    consolidate_metadata,
    derive_date_features,
    load_csv,
    parse_length_to_minutes,
    read_credits,
    read_episodes,
)

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
    assert table.column("views") == [100.0, 200.0]


def test_load_csv_empty_cell_is_missing_not_zero(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x\n\n3\n")
    table = load_csv(path, [ColumnSchema("x", "numeric")])
    assert table.column("x") == [None, 3.0]


def test_load_csv_bad_numeric_names_row_and_column(tmp_path):
    path = tmp_path / "t.csv"
    # float() parses the last four, but a non-finite value is not a number to model
    for cell in ('"12,5"', "nan", "inf", "-Infinity", "1e400"):
        path.write_text(f"x\n1\n{cell}\n")
        with pytest.raises(DataError) as err:
            load_csv(path, [ColumnSchema("x", "numeric")])
        assert "t.csv" in str(err.value) and "row 3" in str(err.value) and "'x'" in str(err.value)


def test_load_csv_missing_header_and_empty_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a\n1\n")
    with pytest.raises(DataError):
        load_csv(path, [ColumnSchema("b", "numeric")])
    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(DataError):
        load_csv(empty, [ColumnSchema("a", "numeric")])


def test_read_episodes_views_optional(tmp_path):
    path = tmp_path / "eps.csv"
    path.write_text("series_id,episode_id,release_date,length\nS1,E1,2016-01-01,30m\n")
    table = read_episodes(path)
    assert "views" not in table.column_names
    assert table.column("length_minutes") == [30.0]


def test_read_episodes_bad_length_names_row_and_column(tmp_path):
    path = tmp_path / "eps.csv"
    path.write_text("series_id,episode_id,release_date,length\nS1,E1,2016-01-01,30m\nS1,E2,2016-01-08,ninety\n")
    with pytest.raises(DataError) as err:
        read_episodes(path)
    message = str(err.value)
    assert "eps.csv" in message and "row 3" in message and "'length'" in message and "'ninety'" in message


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
    assert table.column("best_actor_rating") == [8.5]


def test_genre_distinct_count():
    genres = [
        ("S1", "drama", "imdb"),
        ("S1", "crime", "imdb"),
        ("S1", "drama", "rotten"),
    ]
    table = consolidate([ep("S1", "E1")], genres=genres)
    assert table.column("genre_count") == [2.0]


def test_award_and_count_aggregation():
    credits = [
        ("S1", "a1", "actor", 6.0, 3),
        ("S1", "a2", "actor", 7.0, 1),
        ("S1", "d1", "director", 8.0, 4),
    ]
    table = consolidate([ep("S1", "E1")], credits)
    assert table.column("actor_total_awards") == [4.0]
    assert table.column("director_total_awards") == [4.0]
    assert table.column("actor_crew_count") == [2.0]


def test_exact_duplicate_credits_removed():
    credit = ("S1", "a1", "actor", 6.0, 3)
    table = consolidate([ep("S1", "E1")], [credit, credit])
    assert table.column("actor_total_awards") == [3.0]
    assert table.column("actor_crew_count") == [1.0]


def test_zero_credits_of_role():
    table = consolidate([ep("S1", "E1")])
    assert table.column("best_writer_rating") == [None]
    assert table.column("writer_total_awards") == [0.0]
    assert table.column("writer_crew_count") == [0.0]


def test_missing_ratings_do_not_poison_max():
    credits = [
        ("S1", "a1", "actor", None, None),
        ("S1", "a2", "actor", 5.5, 2),
    ]
    table = consolidate([ep("S1", "E1")], credits)
    assert table.column("best_actor_rating") == [5.5]
    assert table.column("actor_total_awards") == [2.0]
    assert table.column("actor_crew_count") == [2.0]


def test_platform_join_and_missing():
    platform = [platform_row("S1", "E1", exposures=10.0)]
    table = consolidate([ep("S1", "E1"), ep("S1", "E2")], platform=platform)
    assert table.column("exposures") == [10.0, None]
    assert table.column("revenue") == [None, None]


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
        for name in base.column_names:
            assert base.column(name) == again.column(name)


def test_genre_aliases():
    genres = RawTable.from_rows(GENRE_COLUMNS, [("S1", "Sci-Fi", "imdb"), ("S1", "scifi", "rotten")])
    mapped = apply_genre_aliases(genres, {"Sci-Fi": "scifi"})
    table = consolidate([ep("S1", "E1")], genres=mapped)
    assert table.column("genre_count") == [1.0]
    # unmapped genres pass through verbatim
    same = apply_genre_aliases(genres, {})
    assert same.column("genre") == ["Sci-Fi", "scifi"]
