"""The benchmark's tracer patches coldstart functions by module and name, so
renaming one of them must fail here and not only in a traced benchmark run."""

import importlib
import importlib.util
import warnings
from pathlib import Path

import numpy as np

from coldstart import pipeline, trees
from coldstart.data import split_indices
from coldstart.ingest import read_episodes
from coldstart.pipeline import RunConfig
from coldstart.synth import SynthConfig, generate

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_is_a_coldstart_function():
    tracer = load_tracer()
    missing = [
        f"coldstart.{layer}.{name}"
        for layer, names in tracer.TARGETS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"coldstart.{layer}"), name, None))
    ]
    assert missing == []


def test_traced_episode_rows_count_data_rows(tmp_path):
    # the tracer records ingest.rows from the value read_episodes returns
    path = tmp_path / "episodes.csv"
    path.write_text(
        "series_id,episode_id,release_date,length,views\n"
        "S1,E1,2016-01-01,30m,10\nS1,E2,2016-01-08,1h,20\nS2,E1,2016-02-01,00:45,30\n"
    )
    attrs = load_tracer().RESULT_ATTRS["ingest.read_episodes"]
    assert attrs(read_episodes(path), (path,), {}) == {"rows": 3}


def test_traced_tree_fits_record_one_best_split_span_per_searched_node():
    # the benchmark's trees.best_split_calls counts these spans, one per node
    # the grower searches: 39 on this fixture
    tracer_mod = load_tracer()
    for layer in tracer_mod.TARGETS:
        importlib.import_module(f"coldstart.{layer}")
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        tracer.run = "fit"
        rng = np.random.default_rng(3)
        X = np.round(rng.normal(size=(60, 4)), 1)
        y = rng.normal(size=60)
        trees.fit_decision_tree(X, y, trees.TreeParams(max_depth=4, min_samples_split=5))
        trees.fit_random_forest(X, y, trees.TreeParams(max_depth=3, max_features="sqrt", seed=1), n_estimators=3)
        trees.fit_gbt(X, y, rounds=2, learning_rate=0.5, tree_params=trees.TreeParams(max_depth=2))
    finally:
        tracer.uninstall()
    assert sum(span.name == "trees.best_split" for span in tracer.spans) == 39


def test_traced_train_records_every_preprocess_call(tmp_path):
    # the benchmark's preprocess.fit_calls, transform_calls and transform_rows
    # sum these spans: one fit and two transforms (training rows and
    # holdout) for the final model; then, once per train and whatever the
    # number of families, one fit and two transforms for each of the k folds
    # of the shared plan, whose transforms cover every training row k times
    tracer_mod = load_tracer()
    for layer in tracer_mod.TARGETS:
        importlib.import_module(f"coldstart.{layer}")
    generate(SynthConfig(n_series=12, episodes_min=4, episodes_max=6, seed=3), tmp_path / "data")
    families, k = ["decision_tree", "ridge"], 3
    config = RunConfig(
        **{name: str(tmp_path / "data" / f"{name}.csv") for name in ("episodes", "credits", "genres", "platform")},
        out_dir=str(tmp_path / "out"),
        families=families,
        n_iter=1,
        cv_folds=k,
        grids={"decision_tree": {"max_depth": [3]}, "ridge": {"alpha": [1.0]}},
        importance_repeats=1,
    )
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        tracer.run = "train"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pipeline.run_train(config)
    finally:
        tracer.uninstall()
    n_train, n_holdout = (
        len(idx) for idx in split_indices(len(read_episodes(config.episodes)), config.test_fraction, config.seed)
    )
    fits = [s for s in tracer.spans if s.name == "preprocess.fit_preprocessor"]
    transforms = [s for s in tracer.spans if s.name == "preprocess.transform"]
    assert len(fits) == k + 1
    assert len(transforms) == 2 * k + 2
    assert sum(s.attrs["rows"] for s in transforms) == (k + 1) * n_train + n_holdout
