"""The benchmark's tracer patches coldstart functions by module and name, so
renaming one of them must fail here and not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from coldstart import trees
from coldstart.ingest import read_episodes

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
