import inspect
import sys

import numpy as np
import pytest

from coldstart.errors import DataError
from coldstart.trees import (
    GbtModel,
    TreeParams,
    best_split,
    fit_decision_tree,
    fit_gbt,
    fit_random_forest,
    forest_from_dict,
    forest_to_dict,
    gbt_from_dict,
    gbt_to_dict,
    predict_forest,
    predict_gbt,
    predict_tree,
    tree_from_dict,
    tree_to_dict,
)
from coldstart.util import dump_json, load_json

FIXTURE_X = np.array([[1.0], [2.0], [3.0], [4.0]])
FIXTURE_Y = np.array([0.0, 0.0, 10.0, 10.0])


def brute_force_split(X, y, feature_subset=None):
    """Independent oracle: direct variance computation for every candidate."""
    n = len(y)
    cols = range(X.shape[1]) if feature_subset is None else sorted(feature_subset)
    best = None
    parent_var = np.var(y)
    for j in cols:
        values = np.unique(X[:, j])
        for lo, hi in zip(values[:-1], values[1:]):
            threshold = (lo + hi) / 2.0
            if not threshold < hi:
                threshold = lo
            mask = X[:, j] <= threshold
            delta = parent_var - (
                mask.sum() / n * np.var(y[mask]) + (~mask).sum() / n * np.var(y[~mask])
            )
            if best is None or delta > best[2]:
                best = (j, threshold, delta)
    if best is None or best[2] <= 0:
        return None
    return best


def test_best_split_fixture():
    feature, threshold, delta = best_split(FIXTURE_X, FIXTURE_Y)
    assert feature == 0
    assert threshold == 2.5
    assert delta == 25.0  # Var(y)=25, both children pure


def test_best_split_constant_target():
    assert best_split(FIXTURE_X, np.zeros(4)) is None


def test_best_split_tie_prefers_lowest_feature():
    X = np.hstack([FIXTURE_X, FIXTURE_X])  # identical columns, identical deltas
    feature, threshold, _ = best_split(X, FIXTURE_Y)
    assert feature == 0 and threshold == 2.5


def test_best_split_tie_prefers_lowest_threshold():
    # y symmetric: cutting after row 0 or after row 2 gives equal delta
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 5.0, 5.0, 10.0])
    found = best_split(X, y)
    oracle = brute_force_split(X, y)
    assert found == oracle
    assert found[1] == 0.5  # lowest of the tied thresholds


def test_best_split_brute_force_agreement():
    rng = np.random.default_rng(2024)
    for trial in range(200):
        n = int(rng.integers(2, 51))
        p = int(rng.integers(1, 6))
        X = rng.uniform(-5, 5, size=(n, p))
        if trial % 2 == 1:
            X = np.round(X)  # duplicated feature values: fewer candidates
        y = rng.normal(size=n)
        found = best_split(X, y)
        oracle = brute_force_split(X, y)
        if oracle is None:
            assert found is None
        else:
            assert found is not None
            assert found[0] == oracle[0]
            assert found[1] == oracle[1]
            assert abs(found[2] - oracle[2]) < 1e-9 * max(1.0, abs(oracle[2]))


def test_fit_constant_target_single_leaf():
    tree = fit_decision_tree(FIXTURE_X, np.full(4, 3.0), TreeParams())
    assert tree.feature.tolist() == [-1] and tree.value.tolist() == [3.0]


def test_fit_interpolates_distinct_feature():
    rng = np.random.default_rng(5)
    X = rng.permutation(20).reshape(-1, 1).astype(float)
    y = rng.normal(size=20)
    tree = fit_decision_tree(X, y, TreeParams(max_depth=None, min_samples_split=2))
    assert np.allclose(predict_tree(tree, X), y)


def test_stump_from_fixture():
    tree = fit_decision_tree(FIXTURE_X, FIXTURE_Y, TreeParams(max_depth=1))
    assert tree.feature.tolist() == [0, -1, -1]
    assert tree.left[0] == 1 and tree.right[0] == 2
    assert tree.value[1] == 0.0 and tree.value[2] == 10.0


def test_min_samples_split_respected():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(100, 3))
    y = rng.normal(size=100)
    tree = fit_decision_tree(X, y, TreeParams(min_samples_split=40))
    assert np.all(tree.n_samples[tree.feature >= 0] >= 40)


def test_leaf_predictions_are_leaf_means():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(60, 2))
    y = rng.normal(size=60)
    tree = fit_decision_tree(X, y, TreeParams(max_depth=4))
    preds = predict_tree(tree, X)
    # route each training row and compare against its leaf's stored mean
    groups = {}
    for i in range(60):
        groups.setdefault(_leaf_of(tree, X[i]), []).append(y[i])
    for node, values in groups.items():
        assert abs(tree.value[node] - np.mean(values)) < 1e-12
    assert np.all(np.isin(preds, tree.value[list(groups)]))


def test_impurity_decrease_telescopes():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(80, 3))
    y = rng.normal(size=80)
    tree = fit_decision_tree(X, y, TreeParams(max_depth=5))
    n = len(y)
    internal = tree.feature >= 0
    internal_sum = float(np.sum(tree.n_samples[internal] * tree.impurity_decrease[internal]))
    leaf_var = sum(
        tree.n_samples[node] * np.var(y[[i for i in range(n) if _leaf_of(tree, X[i]) == node]])
        for node in np.flatnonzero(~internal)
    )
    assert abs(internal_sum - (n * np.var(y) - leaf_var)) < 1e-8 * max(1.0, internal_sum)


def _leaf_of(tree, x):
    """Scalar reference walk: the id of the leaf that row ``x`` reaches."""
    node = 0
    while tree.feature[node] >= 0:
        node = tree.left[node] if x[tree.feature[node]] <= tree.threshold[node] else tree.right[node]
    return int(node)


def test_predict_tree_matches_scalar_walk():
    rng = np.random.default_rng(15)
    for trial in range(40):
        n = int(rng.integers(2, 120))
        X = rng.normal(size=(n, 3))
        if trial % 2 == 1:
            X = np.round(X, 1)  # repeated feature values
        y = rng.normal(size=n)
        params = TreeParams(max_depth=int(rng.integers(1, 9)), seed=trial)
        tree = fit_decision_tree(X, y, params)
        assert tree.feature.max() < 3
        # one row per split that sits exactly on its threshold, so it must go left
        internal = np.flatnonzero(tree.feature >= 0)
        on_split = np.repeat(X[:1], internal.size, axis=0)
        on_split[np.arange(internal.size), tree.feature[internal]] = tree.threshold[internal]
        X_new = np.vstack([X, rng.normal(size=(50, 3)), on_split])
        expected = np.array([tree.value[_leaf_of(tree, x)] for x in X_new])
        assert np.array_equal(predict_tree(tree, X_new), expected)


def test_deep_chain_tree_needs_no_recursion(tmp_path):
    # each split peels off the largest target, so the tree is a 299-level chain
    x = np.arange(300, dtype=float).reshape(-1, 1)
    y = 3.0 ** np.arange(300)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 150)
    try:
        tree = fit_decision_tree(x, y, TreeParams(max_depth=None, min_samples_split=2))
        assert len(tree.feature) == 599
        assert np.array_equal(predict_tree(tree, x), y)
        dump_json(tree_to_dict(tree), tmp_path / "tree.json")
        clone = tree_from_dict(load_json(tmp_path / "tree.json"))
    finally:
        sys.setrecursionlimit(limit)
    assert tree_to_dict(clone) == tree_to_dict(tree)
    assert np.array_equal(predict_tree(clone, x), y)


def test_forest_deterministic_and_distinct_trees():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(50, 4))
    y = rng.normal(size=50)
    params = TreeParams(max_depth=5, min_samples_split=5, max_features="third", seed=42)
    f1 = fit_random_forest(X, y, params, n_estimators=10)
    f2 = fit_random_forest(X, y, params, n_estimators=10)
    assert np.array_equal(predict_forest(f1, X), predict_forest(f2, X))
    assert forest_to_dict(f1) == forest_to_dict(f2)
    # bootstrap + feature subsets should differentiate the trees
    assert tree_to_dict(f1.trees[0]) != tree_to_dict(f1.trees[1])


def test_forest_single_tree_identity_sample_equals_tree():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    params = TreeParams(max_depth=4, max_features="all", seed=1)
    forest = fit_random_forest(X, y, params, n_estimators=1, bootstrap=False)
    single = fit_decision_tree(X, y, params)
    assert np.array_equal(predict_forest(forest, X), predict_tree(single, X))


def test_forest_prediction_is_mean_of_trees():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    forest = fit_random_forest(X, y, TreeParams(max_depth=3, seed=3), n_estimators=7)
    stacked = np.stack([predict_tree(t, X) for t in forest.trees])
    assert np.allclose(predict_forest(forest, X), stacked.mean(axis=0))


def test_forest_rejects_zero_estimators():
    with pytest.raises(DataError):
        fit_random_forest(FIXTURE_X, FIXTURE_Y, TreeParams(), n_estimators=0)


def test_gbt_zero_rounds_predicts_mean():
    model = fit_gbt(FIXTURE_X, FIXTURE_Y, rounds=0, learning_rate=0.5, tree_params=TreeParams())
    assert np.allclose(predict_gbt(model, FIXTURE_X), 5.0)


def test_gbt_one_round_full_rate_recovers_fixture():
    model = fit_gbt(
        FIXTURE_X, FIXTURE_Y, rounds=1, learning_rate=1.0, tree_params=TreeParams(max_depth=1)
    )
    assert model.base_prediction == 5.0
    assert np.allclose(predict_gbt(model, FIXTURE_X), FIXTURE_Y)


def test_gbt_half_rate_hand_arithmetic():
    stump = fit_decision_tree(FIXTURE_X, FIXTURE_Y - 5.0, TreeParams(max_depth=1))
    model = GbtModel(base_prediction=5.0, stages=[stump], learning_rate=0.5, n_features=1)
    assert np.allclose(predict_gbt(model, FIXTURE_X), [2.5, 2.5, 7.5, 7.5])


def test_gbt_training_mse_non_increasing():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(60, 3))
    y = rng.normal(size=60)
    rounds = 25
    model = fit_gbt(X, y, rounds=rounds, learning_rate=0.5, tree_params=TreeParams(max_depth=2))
    # recompute the per-round training MSE from the stages
    preds = np.full(len(y), model.base_prediction)
    last = float(np.mean((y - preds) ** 2))
    for stage in model.stages:
        preds = preds + model.learning_rate * predict_tree(stage, X)
        mse = float(np.mean((y - preds) ** 2))
        assert mse <= last + 1e-12
        last = mse


def test_gbt_determinism():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(40, 2))
    y = rng.normal(size=40)
    a = fit_gbt(X, y, rounds=10, learning_rate=0.3, tree_params=TreeParams(max_depth=2, seed=5))
    b = fit_gbt(X, y, rounds=10, learning_rate=0.3, tree_params=TreeParams(max_depth=2, seed=5))
    assert gbt_to_dict(a) == gbt_to_dict(b)


def test_predict_dispatch_and_dimension_check():
    leaf_only = fit_decision_tree(FIXTURE_X, np.full(4, 2.0), TreeParams())
    assert np.allclose(predict_tree(leaf_only, FIXTURE_X), 2.0)

    forest = fit_random_forest(FIXTURE_X, FIXTURE_Y, TreeParams(max_features="all", seed=0), 3, bootstrap=False)
    single = fit_decision_tree(FIXTURE_X, FIXTURE_Y, TreeParams(max_features="all", seed=0))
    assert np.array_equal(predict_forest(forest, FIXTURE_X), predict_tree(single, FIXTURE_X))

    with pytest.raises(DataError):
        predict_forest(forest, np.zeros((2, 5)))
    gbt = fit_gbt(FIXTURE_X, FIXTURE_Y, 2, 0.5, TreeParams(max_depth=1))
    with pytest.raises(DataError):
        predict_gbt(gbt, np.zeros((2, 3)))
    with pytest.raises(DataError):
        predict_tree(single, np.zeros((2, 0)))


def test_serialization_round_trips():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(50, 3))
    y = rng.normal(size=50)

    tree = fit_decision_tree(X, y, TreeParams(max_depth=4, seed=2))
    clone = tree_from_dict(tree_to_dict(tree))
    assert np.array_equal(predict_tree(tree, X), predict_tree(clone, X))

    forest = fit_random_forest(X, y, TreeParams(max_depth=3, seed=2), n_estimators=5)
    fclone = forest_from_dict(forest_to_dict(forest))
    assert np.array_equal(predict_forest(forest, X), predict_forest(fclone, X))

    gbt = fit_gbt(X, y, rounds=5, learning_rate=0.5, tree_params=TreeParams(max_depth=2))
    gclone = gbt_from_dict(gbt_to_dict(gbt))
    assert np.array_equal(predict_gbt(gbt, X), predict_gbt(gclone, X))


def test_params_validation():
    with pytest.raises(DataError):
        TreeParams(min_samples_split=1)
    with pytest.raises(DataError):
        TreeParams(max_depth=0)
    with pytest.raises(DataError):
        TreeParams(max_features="half")
    with pytest.raises(DataError):
        fit_gbt(FIXTURE_X, FIXTURE_Y, rounds=1, learning_rate=1.5, tree_params=TreeParams())
