"""A mutation sweep over the bundle: every JSON leaf of two small bundles,
the first three items of each list, set to each of 14 hostile values, goes
through ``predict`` in process. Each run must end in exit 0 or 3, never in
an internal error, and an exit 0 must write the same predictions unless the
leaf is a fitted value that predictions are made from (Miller, Fredriksen &
So 1990, "An empirical study of the reliability of UNIX utilities", CACM 33).
Every other leaf must be checked: some hostile value of it exits 3, unless
README names it as a field that ``predict`` ignores.
"""

import json
import warnings

import pytest

from coldstart.cli import main
from coldstart.pipeline import RunConfig, run_train
from coldstart.util import load_json
from conftest import TINY_GRIDS

HOSTILE = (None, True, -1, 0, 2**63, 1e308, -1e308, "x", "", [], {}, [1], {"a": 1}, 0.5)

# leaves that carry predictions: a valid new value may change them; "*"
# stands for any key or list index
PREDICTION_FIELDS = (
    ("members", "*", "model", "coefficients"),
    ("members", "*", "model", "intercept"),
    ("members", "*", "model", "base_prediction"),
    ("members", "*", "model", "trees"),
    ("members", "*", "params", "learning_rate"),
    ("preprocessor", "numeric", "*", "impute_value"),
    ("preprocessor", "numeric", "*", "mean"),
    ("preprocessor", "numeric", "*", "std"),
    ("preprocessor", "categorical", "*", "impute_category"),
    ("preprocessor", "categorical", "*", "categories"),
)

# the leaves README says predict ignores: they record where a bundle came from
IGNORED_FIELDS = (("meta", "seed"), ("meta", "config_digest"))


def leaf_paths(doc, path=()):
    """The key path of every leaf of ``doc``, taking each list's first three items."""
    if isinstance(doc, dict) and doc:
        for key in sorted(doc):
            yield from leaf_paths(doc[key], path + (key,))
    elif isinstance(doc, list) and doc:
        for i, item in enumerate(doc[:3]):
            yield from leaf_paths(item, path + (i,))
    else:
        yield path


def carries_predictions(path):
    return any(
        len(path) >= len(field) and all(f in ("*", p) for f, p in zip(field, path)) for field in PREDICTION_FIELDS
    )


def mutated(doc, path, value):
    """``doc`` as JSON text with the leaf at ``path`` set to ``value``."""
    copy = json.loads(json.dumps(doc))
    node = copy
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(copy)


@pytest.fixture(scope="module")
def forest_run(tiny_run, tmp_path_factory):
    """A small forest and decision-tree bundle trained on the tiny run's data."""
    data_dir = tiny_run.data_dir
    config = RunConfig(
        episodes=str(data_dir / "episodes.csv"),
        credits=str(data_dir / "credits.csv"),
        genres=str(data_dir / "genres.csv"),
        platform=str(data_dir / "platform.csv"),
        out_dir=str(tmp_path_factory.mktemp("forest_run")),
        seed=3,
        families=["random_forest", "decision_tree"],
        n_iter=1,
        cv_folds=2,
        top_k=2,
        grids={**TINY_GRIDS, "random_forest": {"n_estimators": [5], "max_depth": [4]}},
        importance_repeats=1,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_train(config)["bundle"]


@pytest.mark.parametrize("which", ["tiny_run", "forest_run"])
def test_every_bundle_leaf_mutation_exits_0_or_3(which, tiny_run, request, tmp_path, capsys):
    bundle = tiny_run.result["bundle"] if which == "tiny_run" else request.getfixturevalue("forest_run")
    doc = load_json(bundle)
    data = tiny_run.data_dir
    bad, out = tmp_path / "bundle.json", tmp_path / "predictions.csv"
    argv = [
        "predict", "--bundle", str(bad), "--episodes", tiny_run.result["holdout_episodes"],
        "--credits", str(data / "credits.csv"), "--genres", str(data / "genres.csv"),
        "--platform", str(data / "platform.csv"), "--out", str(out),
    ]
    bad.write_text(json.dumps(doc))
    assert main(argv) == 0
    want = out.read_bytes()
    failures = []
    unchecked = []  # leaves that carry no predictions, where no hostile value exits 3
    for path in leaf_paths(doc):
        codes = set()
        for value in HOSTILE:
            bad.write_text(mutated(doc, path, value))
            out.unlink(missing_ok=True)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main(argv)
            err = capsys.readouterr().err
            codes.add(code)
            if code not in (0, 3) or "internal error" in err:
                failures.append((path, value, code, err.strip()))
            elif code == 0 and not carries_predictions(path) and out.read_bytes() != want:
                failures.append((path, value, code, "predictions changed"))
        if 3 not in codes and not carries_predictions(path) and path not in IGNORED_FIELDS:
            unchecked.append(path)
    assert not failures, "\n".join(map(repr, failures[:20]))
    assert not unchecked, f"no hostile value of these leaves exits 3: {unchecked}"
