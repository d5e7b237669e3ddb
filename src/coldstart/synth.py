"""Deterministic synthetic episode data with a known view-generating function.

The generator emits the same CSV schemas the ingest stage consumes plus a
ground_truth.json with every generating coefficient, so tests can verify
the whole pipeline against a closed-form target:

    views = base * genre_mult(genre_count)
                 * exp(w_rating * best_actor_rating + w_awards * log1p(actor_total_awards))
                 * decay_per_day^age_days * weekday_uplift[dow] * noise

where genre_mult is a saturating per-count lookup, noise is
lognormal(0, noise_sigma), and the aggregates are computed by the very
consolidation code the pipeline uses, guaranteeing the learning task is a
deterministic function of emitted features when noise_sigma=0.
"""

import datetime
import math
import os
from dataclasses import dataclass

import numpy as np

from .data import RawTable
from .errors import DataError
from .ingest import (
    CREDIT_COLUMNS,
    EPISODE_COLUMNS,
    EPISODE_CSV_COLUMNS,
    GENRE_COLUMNS,
    PLATFORM_COLUMNS,
    VIEWS_COLUMN,
    consolidate_metadata,
    derive_date_features,
    format_length,
    write_csv,
)
from .util import dump_json

GENRE_CATALOG = (
    "action", "comedy", "crime", "documentary", "drama", "romance", "scifi", "thriller",
)
GENRE_SOURCES = ("imdb", "rotten", "fandango")

FIRST_RELEASE = datetime.date(2015, 10, 1)

# the largest noise_sigma: exp of a normal draw overflows past 709, a draw
# of ~70 sigma here, so neither the noise nor a view can become inf
NOISE_SIGMA_MAX = 10.0


@dataclass
class SynthConfig:
    n_series: int = 50
    episodes_min: int = 4
    episodes_max: int = 16
    seed: int = 42
    noise_sigma: float = 0.3

    def __post_init__(self):
        if self.n_series < 1:
            raise DataError("n_series must be >= 1")
        if not 1 <= self.episodes_min <= self.episodes_max:
            raise DataError("need 1 <= episodes_min <= episodes_max")
        # the latest release a series can have: premiere day 364, then weekly episodes
        if 364 + 7 * (self.episodes_max - 1) > (datetime.date.max - FIRST_RELEASE).days:
            raise DataError(f"episodes_max {self.episodes_max} puts release dates past {datetime.date.max}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise DataError(f"noise_sigma must be a finite number >= 0, got {self.noise_sigma}")
        if self.noise_sigma > NOISE_SIGMA_MAX:
            raise DataError(f"noise_sigma must be at most {NOISE_SIGMA_MAX}, got {self.noise_sigma}")

    def to_dict(self):
        return {
            "n_series": self.n_series,
            "episodes_min": self.episodes_min,
            "episodes_max": self.episodes_max,
            "seed": self.seed,
            "noise_sigma": self.noise_sigma,
        }


@dataclass
class GroundTruth:
    base_views: float = 50000.0
    w_rating: float = 0.45  # star power dominates by design
    w_awards: float = 0.5
    # saturating multiplier per distinct-genre count (1, 2, 3, ...): a curve
    # in log views that a linear fit on genre_count draws as a line. It does
    # not make tree and linear errors complementary (ridge and forest log
    # errors correlate at about 0.7).
    genre_multipliers: tuple = (1.0, 1.5, 1.8, 1.95, 2.0)
    decay_per_day: float = 0.9985
    weekday_uplift: tuple = (0.95, 0.9, 0.92, 1.0, 1.1, 1.2, 1.15)  # Mon..Sun

    def genre_mult(self, genre_count):
        count = int(genre_count)
        if count <= 0:
            return 1.0
        return self.genre_multipliers[min(count, len(self.genre_multipliers)) - 1]

    def expected_views(self, best_actor_rating, actor_total_awards, genre_count, age_days, day_of_week):
        return (
            self.base_views
            * self.genre_mult(genre_count)
            * math.exp(self.w_rating * best_actor_rating + self.w_awards * math.log1p(actor_total_awards))
            * self.decay_per_day ** age_days
            * self.weekday_uplift[day_of_week]
        )

    def to_dict(self):
        return {
            "base_views": self.base_views,
            "w_rating": self.w_rating,
            "w_awards": self.w_awards,
            "genre_multipliers": list(self.genre_multipliers),
            "decay_per_day": self.decay_per_day,
            "weekday_uplift": list(self.weekday_uplift),
        }


def _format_length(minutes, style):
    """Style 0 writes 'HH:MM'; the others write format_length's '1h 30m'."""
    if style == 0:
        hours, mins = divmod(minutes, 60)
        return f"{hours:02d}:{mins:02d}"
    return format_length(minutes)


def generate(config, out_dir, truth=None):
    """Write episodes/credits/genres/platform CSVs and ground_truth.json.

    Same config (and truth) always produces byte-identical files. Returns
    the paths of the five written files. Draws are scalar calls on the
    seeded generator in a fixed order; the arithmetic on them (clipping,
    rounding to cents) is on Python floats, cheaper than numpy scalar calls.
    """
    truth = truth or GroundTruth()
    rng = np.random.default_rng(config.seed)
    os.makedirs(out_dir, exist_ok=True)

    # rows as tuples in the order of the ingest column constants
    episodes = []  # (series_id, episode_id, release_date, length_minutes)
    lengths = []  # the episode's length as written to the CSV
    credits = []
    genres = []
    platform = []

    for s in range(config.n_series):
        sid = f"S{s + 1:03d}"
        star_quality = float(rng.uniform(2.5, 9.0))

        n_actors = int(rng.integers(2, 6))
        n_directors = int(rng.integers(1, 3))
        n_writers = int(rng.integers(1, 4))
        for role, count in (("actor", n_actors), ("director", n_directors), ("writer", n_writers)):
            for i in range(count):
                rating = min(max(rng.normal(star_quality, 0.7), 0.0), 10.0)
                awards = int(rng.poisson(3.0))
                # first actor always carries a rating so best_actor_rating
                # is never missing; other fields drop out occasionally
                if not (role == "actor" and i == 0):
                    if rng.random() < 0.1:
                        rating = None
                    if rng.random() < 0.1:
                        awards = None
                credit = (sid, f"{sid}-{role}-{i + 1}", role, rating, awards)
                credits.append(credit)
                if rng.random() < 0.08:  # exact duplicate rows exercise dedup
                    credits.append(credit)

        n_genres = int(rng.integers(1, 5))
        picks = rng.choice(len(GENRE_CATALOG), size=n_genres, replace=False)
        for g in sorted(int(p) for p in picks):
            source = GENRE_SOURCES[int(rng.integers(0, len(GENRE_SOURCES)))]
            genres.append((sid, GENRE_CATALOG[g], source))
            if rng.random() < 0.15:  # same genre from a second catalog
                other = GENRE_SOURCES[int(rng.integers(0, len(GENRE_SOURCES)))]
                genres.append((sid, GENRE_CATALOG[g], other))

        premiere = FIRST_RELEASE + datetime.timedelta(days=int(rng.integers(0, 365)))
        n_episodes = int(rng.integers(config.episodes_min, config.episodes_max + 1))
        for e in range(n_episodes):
            eid = f"E{e + 1:02d}"
            release = premiere + datetime.timedelta(days=7 * e)
            minutes = int(rng.integers(20, 75))
            style = int(rng.integers(0, 4))
            episodes.append((sid, eid, release, float(minutes)))
            lengths.append(_format_length(minutes, style))
            # platform metrics are marketing-side noise, deliberately
            # independent of the view formula
            metrics = []
            for mu in (10.5, 8.0, 7.0, 9.0, 11.0):  # per PLATFORM_METRICS entry
                # np.round(x, 2)'s float: it too scales by 100, rounds half to even, divides
                value = round(rng.lognormal(mu, 0.6) * 100.0) / 100.0
                metrics.append(None if rng.random() < 0.15 else value)
            platform.append((sid, eid, *metrics))

    release_dates = [ep[2] for ep in episodes]
    reference_date = max(release_dates)

    # compute the generating features with the pipeline's own aggregation
    table = consolidate_metadata(
        RawTable.from_rows(EPISODE_COLUMNS, episodes),
        RawTable.from_rows(CREDIT_COLUMNS, credits),
        RawTable.from_rows(GENRE_COLUMNS, genres),
        RawTable.from_rows(PLATFORM_COLUMNS, platform),
    )
    # Python floats, so that each view is a Python float, which write_csv writes by repr
    best_rating, total_awards, genre_count = (
        table.column(name).tolist() for name in ("best_actor_rating", "actor_total_awards", "genre_count")
    )
    views = []
    for i, release in enumerate(release_dates):
        dates = derive_date_features(release, reference_date)
        expected = truth.expected_views(
            best_actor_rating=best_rating[i],
            actor_total_awards=total_awards[i],
            genre_count=genre_count[i],
            age_days=dates.age_days,
            day_of_week=dates.day_of_week,
        )
        noise = math.exp(float(rng.normal(0.0, config.noise_sigma))) if config.noise_sigma > 0 else 1.0
        views.append(expected * noise)

    paths = {
        "episodes": os.path.join(out_dir, "episodes.csv"),
        "credits": os.path.join(out_dir, "credits.csv"),
        "genres": os.path.join(out_dir, "genres.csv"),
        "platform": os.path.join(out_dir, "platform.csv"),
        "ground_truth": os.path.join(out_dir, "ground_truth.json"),
    }

    write_csv(
        paths["episodes"],
        EPISODE_CSV_COLUMNS + (VIEWS_COLUMN,),
        [
            (sid, eid, release.isoformat(), length, v)
            for (sid, eid, release, _), length, v in zip(episodes, lengths, views)
        ],
    )
    write_csv(paths["credits"], CREDIT_COLUMNS, credits)
    write_csv(paths["genres"], GENRE_COLUMNS, genres)
    write_csv(paths["platform"], PLATFORM_COLUMNS, platform)
    dump_json(
        {
            "config": config.to_dict(),
            "coefficients": truth.to_dict(),
            "reference_date": reference_date.isoformat(),
            "n_episodes": len(episodes),
        },
        paths["ground_truth"],
    )
    return paths
