import datetime
import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from coldstart.data import build_dataset
from coldstart.errors import DataError
from coldstart.ingest import build_model_table, consolidate_metadata, derive_date_features
from coldstart.metrics import mape, pearson
from coldstart.pipeline import load_inputs
from coldstart.synth import FIRST_RELEASE, GroundTruth, SynthConfig, generate
from coldstart.trees import TreeParams, fit_decision_tree, predict_tree


def read_all(directory):
    return load_inputs(
        f"{directory}/episodes.csv",
        f"{directory}/credits.csv",
        f"{directory}/genres.csv",
        f"{directory}/platform.csv",
    )


def test_same_config_byte_identical(tmp_path):
    config = SynthConfig(n_series=8, seed=11, noise_sigma=0.2)
    paths_a = generate(config, tmp_path / "a")
    paths_b = generate(config, tmp_path / "b")
    for key in paths_a:
        assert (tmp_path / "a" / paths_a[key].split("/")[-1]).read_bytes() == (
            tmp_path / "b" / paths_b[key].split("/")[-1]
        ).read_bytes()


# sha256 of each file for SynthConfig(n_series=8, seed=11); the benchmark and
# the acceptance suite train on synth output, so a change to the generator
# or its CSV writer must show up here rather than as drifting results
SYNTH_GOLDEN = {
    "credits": "a158870207781501ff9c1fee68b0515f3bee97b85f15285c32f0ee4f0e030c08",
    "episodes": "38497d3459774a108021f6184315a45649397bcbce29c07a33efd7fc67501089",
    "genres": "3cea1ab1d6b086f66c8a8db9f871fbbd8b0576d61ebf81b99a44d888fe5ad558",
    "ground_truth": "76d70f5c7836205447a71e613fb8f01e2a7a607d70daa0199bd3b41852fc9fa2",
    "platform": "fbb22b72e9b060d406da0b65c5ba74add2fb3460e5538f2360971857834a8f0a",
}


def test_synth_files_match_golden_digests(tmp_path):
    paths = generate(SynthConfig(n_series=8, seed=11), tmp_path)
    digests = {key: hashlib.sha256(open(path, "rb").read()).hexdigest() for key, path in paths.items()}
    assert digests == SYNTH_GOLDEN


def test_episodes_max_is_capped_where_release_dates_end():
    # series premiere on day 0..364 after FIRST_RELEASE, then one episode a week
    last_day = (datetime.date.max - FIRST_RELEASE).days
    cap = (last_day - 364) // 7 + 1
    SynthConfig(episodes_max=cap)
    assert FIRST_RELEASE + datetime.timedelta(days=364 + 7 * (cap - 1)) <= datetime.date.max
    with pytest.raises(DataError, match=f"episodes_max {cap + 1} puts release dates past"):
        SynthConfig(episodes_max=cap + 1)
    with pytest.raises(OverflowError):
        FIRST_RELEASE + datetime.timedelta(days=364 + 7 * cap)


def test_different_seed_differs(tmp_path):
    a = generate(SynthConfig(n_series=5, seed=1), tmp_path / "a")
    b = generate(SynthConfig(n_series=5, seed=2), tmp_path / "b")
    assert open(a["episodes"]).read() != open(b["episodes"]).read()


def test_noiseless_views_reproducible_from_ground_truth(tmp_path):
    config = SynthConfig(n_series=10, seed=3, noise_sigma=0.0)
    paths = generate(config, tmp_path)
    truth_doc = json.loads(open(paths["ground_truth"]).read())
    coef = truth_doc["coefficients"]
    truth = GroundTruth(
        base_views=coef["base_views"],
        w_rating=coef["w_rating"],
        w_awards=coef["w_awards"],
        genre_multipliers=tuple(coef["genre_multipliers"]),
        decay_per_day=coef["decay_per_day"],
        weekday_uplift=tuple(coef["weekday_uplift"]),
    )
    episodes, credits, genres, platform = read_all(tmp_path)
    table = consolidate_metadata(episodes, credits, genres, platform)
    import datetime

    reference = datetime.date.fromisoformat(truth_doc["reference_date"])
    views = episodes.column("views")
    for i, release in enumerate(episodes.column("release_date")):
        dates = derive_date_features(release, reference)
        expected = truth.expected_views(
            table.column("best_actor_rating")[i],
            table.column("actor_total_awards")[i],
            table.column("genre_count")[i],
            dates.age_days,
            dates.day_of_week,
        )
        assert math.isclose(views[i], expected, rel_tol=1e-12)


def test_generated_files_load_without_warnings(tmp_path):
    generate(SynthConfig(n_series=12, seed=5, noise_sigma=0.1), tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        episodes, credits, genres, platform = read_all(tmp_path)
        table, _ = build_model_table(episodes, credits, genres, platform)
    assert table.n_rows == len(episodes)
    assert json.loads(open(tmp_path / "ground_truth.json").read())["n_episodes"] == len(episodes)


def test_noiseless_deep_tree_interpolates(tmp_path):
    generate(SynthConfig(n_series=20, seed=9, noise_sigma=0.0), tmp_path)
    episodes, credits, genres, platform = read_all(tmp_path)
    table, _ = build_model_table(episodes, credits, genres, platform)
    features, y = build_dataset(table)
    from coldstart.preprocess import fit_preprocessor, transform

    prep = fit_preprocessor(features)
    X = transform(prep, features).values
    tree = fit_decision_tree(X, y, TreeParams(max_depth=None, min_samples_split=2))
    assert mape(y, predict_tree(tree, X)) < 1.0


def test_star_power_correlates_with_log_views(tmp_path):
    for seed in range(1, 6):
        generate(SynthConfig(n_series=25, seed=seed, noise_sigma=0.3), tmp_path / str(seed))
        episodes, credits, genres, platform = read_all(tmp_path / str(seed))
        table = consolidate_metadata(episodes, credits, genres, platform)
        ratings = [float(v) for v in table.column("best_actor_rating")]
        views = np.asarray(episodes.column("views"))
        assert pearson(ratings, np.log(views)) > 0.0


def test_config_validation():
    with pytest.raises(DataError):
        SynthConfig(n_series=0)
    with pytest.raises(DataError):
        SynthConfig(episodes_min=5, episodes_max=2)
    with pytest.raises(DataError):
        SynthConfig(noise_sigma=-0.1)
