import importlib.util
from pathlib import Path

import numpy as np
import pytest

from conftest import TINY_GRIDS
from test_acceptance import REDUCED_GRIDS

from coldstart import families, trees, tuning
from coldstart.data import ColumnSchema, RawTable
from coldstart.errors import DataError, UndefinedMetricError
from coldstart.linear import fit_linear
from coldstart.families import (
    DEFAULT_GRIDS,
    DEFAULT_PARAMS,
    DOMAINS,
    FAMILIES,
    check_grid,
    fit_family,
    predict_family,
    resolve_params,
)
from coldstart.tuning import (
    cross_validate,
    cross_validate_pipeline,
    enumerate_grid,
    fold_matrices,
    kfold_indices,
    randomized_search,
)
from coldstart.pipeline import RunConfig, run_train
from coldstart.synth import SynthConfig, generate
from coldstart.util import load_json, mix_seed


def numeric_table(X):
    """A RawTable whose numeric columns x0, x1, ... hold the columns of X."""
    X = np.asarray(X, dtype=float)
    names = [f"x{j}" for j in range(X.shape[1])]
    return RawTable(
        [ColumnSchema(n, "numeric") for n in names], {n: X[:, j] for j, n in enumerate(names)}
    )


def cv_folds(X, y, k, seed):
    """fold_matrices over a numeric table of X on a seeded k-fold plan."""
    return fold_matrices(numeric_table(X), y, kfold_indices(len(y), k, seed))


def test_kfold_exact_division():
    plan = kfold_indices(10, 5, seed=0)
    assert np.bincount(plan).tolist() == [2, 2, 2, 2, 2]


def test_kfold_uneven_sizes():
    plan = kfold_indices(7, 3, seed=0)
    assert sorted(np.bincount(plan).tolist(), reverse=True) == [3, 2, 2]


def test_kfold_determinism_and_partition():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 80))
        k = int(rng.integers(2, min(n, 10) + 1))
        seed = int(rng.integers(0, 1 << 30))
        plan = kfold_indices(n, k, seed)
        again = kfold_indices(n, k, seed)
        assert np.array_equal(plan, again)
        # one fold id per row, and every fold of 0..k-1 holds a row
        assert len(plan) == n and plan.min() == 0 and plan.max() == k - 1
        sizes = np.bincount(plan)
        assert len(sizes) == k and sizes.max() - sizes.min() <= 1


def test_kfold_bounds():
    with pytest.raises(DataError):
        kfold_indices(5, 1, seed=0)
    with pytest.raises(DataError):
        kfold_indices(5, 6, seed=0)


def test_cross_validate_mean_predictor_scores_near_zero_r2():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(100, 2))
    y = rng.normal(size=100)  # feature-independent target
    plan = kfold_indices(100, 5, seed=0)
    # a depth-limited stump-free tree: min_samples_split too high to split
    folds = fold_matrices(numeric_table(X), y, plan)
    scores = cross_validate("decision_tree", {"min_samples_split": 1000}, folds, "r2")
    assert all(abs(s) < 0.25 for s in scores)  # R^2 of the train-mean predictor


def test_cross_validate_no_peeking_at_test_fold():
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(60, 1))
    y = X[:, 0] + rng.normal(scale=0.5, size=60)  # noisy: memorizing cannot reach 1
    plan = kfold_indices(60, 5, seed=1)
    folds = fold_matrices(numeric_table(X), y, plan)
    scores = cross_validate("decision_tree", {"max_depth": None, "min_samples_split": 2}, folds, "r2")
    assert all(s < 0.999 for s in scores)


def test_leave_one_out_equivalent():
    X = np.arange(5, dtype=float).reshape(-1, 1)
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    plan = kfold_indices(5, 5, seed=0)
    folds = fold_matrices(numeric_table(X), y, plan)
    scores = cross_validate("decision_tree", {"min_samples_split": 2}, folds, "neg_mape")
    assert len(scores) == 5  # each score from a 4-row fit


def _leaky_table(n=40):
    # two fold-distinguishable clusters in the numeric column
    values = [float(1000 + i) if i < n // 2 else float(i) for i in range(n)]
    return RawTable([ColumnSchema("x", "numeric")], {"x": np.array(values)})


def test_pipeline_cv_fits_preprocessor_per_fold():
    table = _leaky_table()
    y = np.arange(40, dtype=float) + 1
    plan = kfold_indices(40, 4, seed=7)
    scores, preps = cross_validate_pipeline(
        "decision_tree", {"max_depth": 2}, table, y, plan, "neg_mape"
    )
    assert len(scores) == 4 and len(preps) == 4
    means = [p.numeric[0].mean for p in preps]
    assert len(set(means)) == 4  # every fold saw different training stats


def test_enumerate_grid_and_errors():
    combos = enumerate_grid({"a": [1, 2], "b": ["x"]})
    assert combos == [{"a": 1, "b": "x"}, {"a": 2, "b": "x"}]
    # the product of no value lists is one empty assignment: the family's defaults
    assert enumerate_grid({}) == [{}]
    # an empty or repeating value list is checked by check_grid, which randomized_search runs first
    train = (np.zeros((4, 1)), np.arange(4.0), 0)
    with pytest.raises(DataError, match="'alpha' has no candidate values"):
        check_grid("ridge", {"alpha": []})
    with pytest.raises(DataError, match="'alpha' has no candidate values"):
        randomized_search("ridge", {"alpha": []}, n_iter=1, folds=[], seed=0, train=train)
    with pytest.raises(DataError, match=r"^ridge parameter 'alpha' repeats 1\.0$"):
        randomized_search("ridge", {"alpha": [1, 0.5, 1.0]}, n_iter=3, folds=[], seed=0, train=train)


def test_search_single_assignment_wins():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    result = randomized_search(
        "decision_tree", {"max_depth": [2]}, n_iter=5, folds=cv_folds(X, y, 3, 0), seed=0, train=(X, y, 0)
    )
    assert len(result.candidates) == 1
    assert result.best_params == {"max_depth": 2}


def test_search_exhausts_grid_without_replacement():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 2))
    y = X[:, 0] * 2 + rng.normal(scale=0.1, size=30)
    grid = {"alpha": [0.001, 0.1, 10.0]}
    result = randomized_search("ridge", grid, n_iter=50, folds=cv_folds(X, y, 3, 9), seed=9, train=(X, y, 0))
    tried = sorted(c["params"]["alpha"] for c in result.candidates)
    assert tried == [0.001, 0.1, 10.0]


def test_search_determinism_and_winner_is_max():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(40, 3))
    y = X @ np.array([1.0, 0.0, -1.0]) + rng.normal(scale=0.2, size=40)
    grid = {"alpha": [0.001, 0.01, 0.1, 1.0, 10.0]}
    folds = cv_folds(X, y, 5, 42)
    a = randomized_search("lasso", grid, n_iter=3, folds=folds, seed=42, train=(X, y, 0))
    b = randomized_search("lasso", grid, n_iter=3, folds=folds, seed=42, train=(X, y, 0))
    assert a.to_dict() == b.to_dict()
    assert len(a.candidates) == 3
    best_mean = a.candidates[a.best_index]["mean_score"]
    assert all(best_mean >= c["mean_score"] for c in a.candidates)


def test_search_tie_goes_to_earliest_sampled():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([1.0, 1.0, 1.0, 1.0])
    # constant target: every candidate scores identically under neg_mape
    grid = {"max_depth": [2, 3, 4]}
    result = randomized_search("decision_tree", grid, n_iter=3, folds=cv_folds(X, y, 2, 1), seed=1, train=(X, y, 0))
    assert result.best_index == 0


def test_search_on_raw_table_runs_pipeline_mode():
    rng = np.random.default_rng(8)
    n = 50
    values = rng.normal(size=n)
    table = RawTable([ColumnSchema("x", "numeric")], {"x": values})
    y = values * 3.0 + 5.0 + rng.normal(scale=0.1, size=n)
    folds = fold_matrices(table, y, kfold_indices(n, 5, 42))
    train = (values.reshape(-1, 1), y, 0)
    result = randomized_search("ridge", {"alpha": [0.001, 1.0]}, n_iter=4, folds=folds, seed=42, train=train)
    assert len(result.candidates) == 2
    assert result.best_params["alpha"] == 0.001
    assert result.candidates[result.best_index]["mean_score"] > 0.9


def test_search_input_validation():
    X, y = np.zeros((10, 1)), np.zeros(10)
    folds = cv_folds(X, y, 2, 0)
    with pytest.raises(DataError):
        randomized_search("ridge", {"alpha": [1.0]}, n_iter=0, folds=folds, seed=0, train=(X, y, 0))
    with pytest.raises(DataError):
        randomized_search("mystery", {"alpha": [1.0]}, n_iter=1, folds=folds, seed=0, train=(X, y, 0))
    with pytest.raises(DataError):
        fold_matrices(numeric_table(X), y[:9], kfold_indices(10, 2, 0))


def _count_preprocessor_fits(monkeypatch):
    calls = []
    original = tuning.fit_preprocessor

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(tuning, "fit_preprocessor", counting)
    return calls


def test_fold_matrices_fit_preprocessor_once_per_fold(monkeypatch):
    calls = _count_preprocessor_fits(monkeypatch)
    rng = np.random.default_rng(11)
    X = rng.normal(size=(40, 2))
    folds = cv_folds(X, X[:, 0], 4, 3)
    assert len(folds) == 4
    assert len(calls) == 4


def test_search_fits_no_preprocessor(monkeypatch):
    rng = np.random.default_rng(11)
    X = rng.normal(size=(40, 2))
    y = X[:, 0] + rng.normal(scale=0.1, size=40)
    folds = cv_folds(X, y, 4, 3)
    calls = _count_preprocessor_fits(monkeypatch)
    result = randomized_search("ridge", {"alpha": [0.01, 0.1, 1.0]}, n_iter=3, folds=folds, seed=3, train=(X, y, 0))
    assert len(result.candidates) == 3
    assert len(calls) == 0  # every candidate is scored on the given fold matrices


@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_fits_from_its_defaults_alone(family):
    # a fit reads every parameter without a fallback, so a parameter missing
    # from DEFAULT_PARAMS fails here
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 3))
    y = X @ [1.0, -2.0, 0.5] + 10.0
    model = fit_family(family, {}, X, y)
    assert np.all(np.isfinite(predict_family(family, model, X)))
    if "l1_ratio" in DEFAULT_PARAMS[family]:
        # the linear fit has no defaults of its own: DEFAULT_PARAMS holds each one
        want = fit_linear(X, y, **DEFAULT_PARAMS[family])
        assert model.coefficients.tobytes() == want.coefficients.tobytes()
        state = (model.intercept, model.converged, model.n_iterations)
        assert state == (want.intercept, want.converged, want.n_iterations)


def test_unknown_family_or_parameter_name_is_named():
    X, y = np.zeros((4, 1)), np.arange(4.0)
    with pytest.raises(DataError, match="'alfa'"):
        fit_family("ridge", {"alfa": 1.0}, X, y)
    with pytest.raises(DataError, match="'max_features'"):
        fit_family("lasso", {"max_features": "all"}, X, y)
    with pytest.raises(DataError, match="'bogus'"):
        fit_family("bogus", {}, X, y)


# parameter -> (values inside its domain, values outside it)
DOMAIN_CASES = {
    "max_depth": ([None, 1, 30], [0, -1, 2.5, 3.0, True, "x"]),
    "min_samples_split": ([2, 30], [1, 2.5, True, None, "2"]),
    "max_features": (["all", "third", "sqrt"], ["half", None, 1, ["all"]]),
    "n_estimators": ([1, 1000], [0, 1.5, True, "x"]),
    "rounds": ([0, 100], [-1, 1.5, False, "x"]),
    "learning_rate": ([1e-9, 0.5, 1, 1.0], [0, 0.0, 1.5, float("nan"), float("inf"), 10**309, True, "x", None]),
    "alpha": ([0, 0.0, 100.0, 10**308], [-1, -1e-12, float("inf"), float("nan"), 10**309, True, "x", None]),
    "l1_ratio": ([0, 0.0, 0.5, 1, 1.0], [-0.1, 1.5, float("nan"), float("-inf"), True, "x"]),
    "tol": ([1e-6, 1], [0, 0.0, -1e-6, float("inf"), float("nan"), 10**309, False, "x"]),
    "max_iter": ([1, 10000], [0, 2.5, True, "x", None]),
}


def test_every_parameter_has_one_domain():
    assert set(DOMAINS) == {name for params in DEFAULT_PARAMS.values() for name in params} == set(DOMAIN_CASES)


@pytest.mark.parametrize("name", sorted(DOMAIN_CASES))
def test_domain_accepts_and_rejects(name):
    inside, outside = DOMAIN_CASES[name]
    family = next(f for f in FAMILIES if name in DEFAULT_PARAMS[f])
    for value in inside:
        assert resolve_params(family, {name: value})[name] == value
    for value in outside:
        with pytest.raises(DataError, match=rf"^{family} parameter '{name}' must be .*, got "):
            resolve_params(family, {name: value})
    with pytest.raises(DataError, match=rf"^{family} parameter '{name}' has no candidate values, got \[\]$"):
        check_grid(family, {name: []})


def _perfbench_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_defaults_and_every_checked_in_grid_lie_in_their_domains():
    # a domain drawn too tight fails here, and not as failed benchmark runs
    # (ops_ok_ratio below 1) or failed acceptance trains
    for family, defaults in DEFAULT_PARAMS.items():
        assert resolve_params(family, defaults) == defaults
    workloads = _perfbench_workloads()
    tables = {
        "DEFAULT_GRIDS": DEFAULT_GRIDS,
        "REDUCED_GRIDS": REDUCED_GRIDS,
        "TINY_GRIDS": TINY_GRIDS,
        **{name: getattr(workloads, name) for name in ("REDUCED_TREE_GRIDS", "SCORING_GRIDS", "LINEAR_GRIDS")},
    }
    for table in tables.values():
        for family, grid in table.items():
            check_grid(family, grid)
    assert set(tables["SCORING_GRIDS"]) == set(FAMILIES)


def _forest_data(n=40, seed=12):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    return X, np.exp(X[:, 0] + 0.3 * rng.normal(size=n))


def test_forest_candidates_score_out_of_bag_on_prefixes_of_one_fit_per_group(monkeypatch):
    X, y = _forest_data()
    fit_seed = 77
    grid = {"n_estimators": [3, 8, 5], "max_depth": [2, None], "min_samples_split": [4]}
    fits = []
    original = trees.fit_random_forest

    def counting(X, y, params, n_estimators):
        fits.append((params.max_depth, n_estimators))
        return original(X, y, params, n_estimators)

    monkeypatch.setattr(trees, "fit_random_forest", counting)
    result = randomized_search("random_forest", grid, n_iter=6, folds=[], seed=3, train=(X, y, fit_seed))
    # two groups (max_depth 2 and None), each fit once at its largest size
    assert sorted(fits, key=str) == [(2, 8), (None, 8)]
    entry = result.to_dict()
    assert entry["method"] == "oob" and result.method == "oob"
    assert all(set(c) == {"params", "oob_rows", "mean_score"} for c in entry["candidates"])
    for c in result.candidates:
        # a standalone forest of the candidate's size, fit with the fit seed
        params = resolve_params("random_forest", c["params"])
        standalone = fit_family("random_forest", params, X, y, seed=fit_seed)
        ((_, prediction, scored),) = trees.forest_oob(standalone, X, fit_seed, [params["n_estimators"]])
        assert c["oob_rows"] == int(scored.sum())
        assert c["mean_score"] == tuning.score_predictions("neg_mape", y[scored], prediction[scored])
        if c is result.candidates[result.best_index]:
            assert trees.forest_to_dict(result.model) == trees.forest_to_dict(standalone)
    scores = [c["mean_score"] for c in result.candidates]
    assert result.best_index == scores.index(max(scores))


def test_forest_search_without_scored_rows_is_undefined():
    # one training row, drawn by every bootstrap: no tree leaves a row out
    X, y = np.ones((1, 2)), np.ones(1)
    with pytest.raises(UndefinedMetricError, match="no training row is out of bag at n_estimators=2"):
        randomized_search("random_forest", {"n_estimators": [2]}, n_iter=1, folds=[], seed=0, train=(X, y, 0))


def test_run_train_fits_each_forest_group_once_and_never_refits(tmp_path, monkeypatch):
    data = tmp_path / "data"
    generate(SynthConfig(n_series=8, episodes_min=4, episodes_max=6, seed=2), data)
    paths = {name: str(data / f"{name}.csv") for name in ("episodes", "credits", "genres", "platform")}
    grid = {"n_estimators": [4, 9], "min_samples_split": [10], "max_depth": [3, 6]}
    fits = []
    original = trees.fit_random_forest

    def counting(X, y, params, n_estimators):
        fits.append((params.max_depth, n_estimators, params.seed))
        return original(X, y, params, n_estimators)

    monkeypatch.setattr(trees, "fit_random_forest", counting)
    config = RunConfig(
        **paths, out_dir=str(tmp_path / "out"), seed=4, families=["ridge", "random_forest"], n_iter=4,
        cv_folds=2, grids={"random_forest": grid}, target_transform="log1p", top_k=2,
    )
    result = run_train(config)
    fit_seed = mix_seed(4, 1001)  # the member's fit seed: random_forest is family 1
    assert sorted(fits) == [(3, 9, fit_seed), (6, 9, fit_seed)]
    entry = load_json(result["report"])["cv_results"]["random_forest"]
    assert entry["method"] == "oob" and len(entry["candidates"]) == 4
    best = entry["candidates"][entry["best_index"]]["params"]
    member = next(m for m in load_json(result["bundle"])["members"] if m["family"] == "random_forest")
    assert member["params"] == resolve_params("random_forest", best)
    assert len(member["model"]["trees"]["sizes"]) == best["n_estimators"]


@pytest.mark.parametrize(
    "family, grid",
    [
        ("ridge", {"alpha": [0.001, 0.1, 10.0]}),
        # a feature draw per split, so the fit seed shows in the tree
        ("decision_tree", {"max_depth": [2, 4], "min_samples_split": [2, 10], "max_features": ["sqrt"]}),
    ],
)
def test_cv_search_returns_the_winner_fit_on_the_training_matrix(family, grid):
    # the model is the member's: the winner's params, the whole training
    # matrix and the member's fit seed, not a fold's fit or a fit at defaults
    rng = np.random.default_rng(13)
    X = rng.normal(size=(40, 3))
    y = np.exp(X @ [0.5, -0.3, 0.2] + 0.2 * rng.normal(size=40))
    fit_seed = 31
    result = randomized_search(family, grid, n_iter=4, folds=cv_folds(X, y, 3, 2), seed=3, train=(X, y, fit_seed))
    assert result.method == "cv" and result.best_index > 0  # the winner is not merely the first drawn
    to_dict = families.check_family(family).to_dict
    assert to_dict(result.model) == to_dict(fit_family(family, result.best_params, X, y, seed=fit_seed))


def test_empty_grid_trains_the_family_defaults(tmp_path):
    data = tmp_path / "data"
    generate(SynthConfig(n_series=8, episodes_min=4, episodes_max=6, seed=2), data)
    paths = {name: str(data / f"{name}.csv") for name in ("episodes", "credits", "genres", "platform")}
    config = RunConfig(
        **paths, out_dir=str(tmp_path / "out"), seed=4, families=["ridge"], n_iter=3, cv_folds=2,
        grids={"ridge": {}}, target_transform="log1p", top_k=1,
    )
    result = run_train(config)
    entry = load_json(result["report"])["cv_results"]["ridge"]
    assert [c["params"] for c in entry["candidates"]] == [{}]
    (member,) = load_json(result["bundle"])["members"]
    assert member["params"] == DEFAULT_PARAMS["ridge"]
