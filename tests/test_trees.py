import base64
import inspect
import json
import re
import sys
import tracemalloc
import zlib

import numpy as np
import pytest

from coldstart import trees
from coldstart.errors import DataError
from coldstart.families import DEFAULT_PARAMS, FAMILY_TABLE, fit_family, resolve_params
from coldstart.trees import (
    TREE_ARRAYS,
    ForestModel,
    TreeParams,
    best_split,
    fit_decision_tree,
    fit_gbt,
    fit_random_forest,
    forest_from_dict,
    forest_to_dict,
    predict_forest,
    predict_tree,
    trees_from_block,
    trees_to_block,
)
from coldstart.util import dump_json, load_json, mix_seed
from tree_oracles import feature_dtype, planes, stack_right, unplaned

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


def float_split(X, y, feature_subset):
    """Reference search on the float values, as the grower did before rank
    coding: a stable argsort per node and column, rows in order."""
    n = len(y)
    if n < 2 or float(y.max()) == float(y.min()):
        return None
    cols = np.arange(X.shape[1]) if feature_subset is None else np.sort(np.asarray(feature_subset, dtype=int))
    if len(cols) == 0:
        return None
    Xs = X[:, cols]
    order = np.argsort(Xs, axis=0, kind="stable")
    x_sorted = np.take_along_axis(Xs, order, axis=0)
    y_sorted = (y - y.mean())[order]
    prefix = np.cumsum(y_sorted, axis=0)
    total = prefix[-1, :]
    n_left = np.arange(1, n, dtype=float)[:, None]
    n_right = n - n_left
    mean_left = prefix[:-1, :] / n_left
    mean_right = (total[None, :] - prefix[:-1, :]) / n_right
    delta = (n_left * n_right) / float(n * n) * (mean_left - mean_right) ** 2
    delta = np.where(x_sorted[1:, :] > x_sorted[:-1, :], delta, -1.0)
    flat = delta.T.reshape(-1)
    best = int(np.argmax(flat))
    if float(flat[best]) <= 0.0:
        return None
    ci, pos = divmod(best, n - 1)
    lo, hi = float(x_sorted[pos, ci]), float(x_sorted[pos + 1, ci])
    threshold = (lo + hi) / 2.0
    if not threshold < hi:
        threshold = lo
    return int(cols[ci]), threshold, float(flat[best])


def float_grow(columns, keys, y, params, rng, rows, fitted=None):
    """Reference grower with ``_grow``'s signature that ignores the rank
    keys, searches each node's float rows with ``float_split`` and fills
    ``fitted`` by walking the finished tree with ``predict_tree``. Its
    splittable nodes take their feature subsets from the grower's own
    stream, so both search the same columns at every node."""
    X, sample = columns.T, rows
    subsets = trees._subsets(X.shape[1], params.max_features, rng)
    nodes = {name: [] for name in TREE_ARRAYS}
    stack = [(rows, 0)]
    while stack:
        rows, depth = stack.pop()
        Xn, yn = X[rows], y[rows]
        found = None
        if (params.max_depth is None or depth < params.max_depth) and len(rows) >= params.min_samples_split:
            found = float_split(Xn, yn, next(subsets))
        fi, threshold, decrease = found or (-1, 0.0, 0.0)
        for name, v in zip(TREE_ARRAYS, (fi, threshold, float(yn.mean()), len(rows), decrease)):
            nodes[name].append(v)
        if found is not None:
            mask = Xn[:, fi] <= threshold
            stack += [(rows[~mask], depth + 1), (rows[mask], depth + 1)]
    tree = trees.Tree(**{k: np.array(v, dtype=int if k in trees.INT_ARRAYS else float) for k, v in nodes.items()})
    if fitted is not None:
        fitted[sample] = predict_tree(tree, X[sample])
    return tree


@pytest.mark.parametrize("n", [1, 2, 3, 32768, 32769])
def test_best_split_matches_float_split_at_every_key_width(n):
    # 32768 rows is the most that int32 keys hold; at 32769 the keys are
    # int64 and the all-distinct column's top rank needs bit 31
    rng = np.random.default_rng(n)
    X = np.column_stack([rng.permutation(n) - n // 2.0, rng.choice([-0.0, 0.0, 1.0, -2.5], size=n)])
    y = np.round(rng.normal(size=n) + (X[:, 0] > 0) + X[:, 1], 1)
    assert trees.rank_code(X).dtype == (np.int32 if n <= 32768 else np.int64)
    for subset in (None, [0], [1]):
        assert best_split(X, y, subset) == float_split(X, y, subset)


def tied_matrix(rng, n, p):
    """Columns with heavy ties, cycling through rounded normals, 0/1 one-hot
    indicators, small integers and signed zeros; a third of the rows repeat."""
    kinds = [
        lambda: np.round(rng.normal(size=n), 1),
        lambda: rng.integers(0, 2, size=n).astype(float),
        lambda: rng.integers(-3, 4, size=n).astype(float),
        lambda: rng.choice([-0.0, 0.0, 1.0, -2.5], size=n),
    ]
    X = np.column_stack([kinds[j % len(kinds)]() for j in range(p)])
    X[rng.integers(0, n, size=n // 3)] = X[rng.integers(0, n, size=n // 3)]
    return X


def assert_same_trees(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in TREE_ARRAYS:
            x, y = getattr(a, name), getattr(b, name)
            # tobytes also tells 0.0 from -0.0, which array_equal does not
            assert np.array_equal(x, y) and x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def test_rank_coded_growth_matches_float_growth(monkeypatch):
    rng = np.random.default_rng(2025)
    fits = []
    for trial in range(12):
        n = int(rng.integers(5, 90))
        X = tied_matrix(rng, n, int(rng.integers(1, 9)))
        y = rng.normal(size=n)
        if trial % 3 == 0:
            y = np.round(y)  # tied targets: many equal deltas
        mode = trees.MAX_FEATURES_MODES[trial % 3]
        params = TreeParams(
            max_depth=None if trial % 4 == 0 else int(rng.integers(1, 7)),
            min_samples_split=int(rng.integers(2, 6)),
            max_features=mode,
            seed=trial,
        )
        fits += [
            lambda X=X, y=y, params=params: [fit_decision_tree(X, y, params)],
            lambda X=X, y=y, params=params: fit_random_forest(X, y, params, n_estimators=4).trees,
            lambda X=X, y=y, params=params: fit_gbt(X, y, rounds=3, learning_rate=0.3, tree_params=params).trees,
        ]
    got = [fit() for fit in fits]
    monkeypatch.setattr(trees, "_grow", float_grow)
    for fit, trees_got in zip(fits, got):
        assert_same_trees(trees_got, fit())


@pytest.mark.parametrize("mode, m", [("third", 13), ("sqrt", 6)])
def test_subset_stream_draws_uniform_sorted_subsets(mode, m):
    subsets = trees._subsets(40, mode, np.random.default_rng(41))
    drawn = np.array([next(subsets) for _ in range(64_000)])
    assert drawn.shape == (64_000, m) and drawn.min() >= 0 and drawn.max() < 40
    assert (np.diff(drawn, axis=1) > 0).all()  # sorted, so distinct
    # each feature is in a subset with probability m / 40, independently per draw
    counts = np.bincount(drawn.ravel(), minlength=40)
    mean, sd = 64_000 * m / 40, np.sqrt(64_000 * m / 40 * (1 - m / 40))
    assert np.abs(counts - mean).max() < 5 * sd


def test_all_features_draw_nothing_from_the_tree_generator():
    rng = np.random.default_rng(12)
    X, y = rng.normal(size=(60, 5)), rng.normal(size=60)
    grower = np.random.default_rng(3)
    before = grower.bit_generator.state
    tree = trees._grow(np.ascontiguousarray(X.T), trees.rank_code(X), y, TreeParams(), grower, np.arange(60))
    assert (tree.feature >= 0).sum() > 10
    assert grower.bit_generator.state == before


@pytest.mark.parametrize("mode", ["third", "sqrt"])
def test_growth_crossing_a_subset_block_matches_float_growth(mode, monkeypatch):
    rng = np.random.default_rng(77)
    X = tied_matrix(rng, 400, 12)
    y = X[:, 0] + np.sin(3.0 * X[:, 2]) + rng.normal(size=400)
    params = TreeParams(min_samples_split=2, max_features=mode, seed=5)
    got = fit_decision_tree(X, y, params)
    # with no depth cap, every node of at least min_samples_split rows drew a subset
    assert (got.n_samples >= params.min_samples_split).sum() > 2 * trees.SUBSET_BLOCK
    monkeypatch.setattr(trees, "_grow", float_grow)
    assert_same_trees([got], [fit_decision_tree(X, y, params)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tree_inputs_must_be_finite(bad):
    X_bad, y_bad = FIXTURE_X.copy(), FIXTURE_Y.copy()
    X_bad[2, 0] = bad
    y_bad[1] = bad
    for fit in (
        lambda X, y: best_split(X, y),
        lambda X, y: fit_decision_tree(X, y, TreeParams()),
        lambda X, y: fit_random_forest(X, y, TreeParams(), n_estimators=2),
        lambda X, y: fit_gbt(X, y, rounds=2, learning_rate=0.5, tree_params=TreeParams()),
    ):
        for X, y in ((X_bad, FIXTURE_Y), (FIXTURE_X, y_bad)):
            with pytest.raises(DataError, match="finite"):
                fit(X, y)


@pytest.mark.parametrize(
    "fit",
    [
        lambda X, y: fit_decision_tree(X, y, TreeParams()),
        lambda X, y: fit_random_forest(X, y, TreeParams(), n_estimators=2),
        lambda X, y: fit_gbt(X, y, rounds=2, learning_rate=0.5, tree_params=TreeParams()),
    ],
    ids=["decision_tree", "random_forest", "gbt"],
)
def test_tree_fits_reject_zero_rows(fit):
    # one message for the three fits; a node mean over zero rows would divide by zero
    with pytest.raises(DataError, match="cannot fit a tree model on zero rows"):
        fit(np.empty((0, 3)), np.empty(0))


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
    assert stack_right(tree.feature)[0] == 2  # the left child is the next node, 1
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
    node, right = 0, stack_right(tree.feature)
    while tree.feature[node] >= 0:
        node = node + 1 if x[tree.feature[node]] <= tree.threshold[node] else right[node]
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


def levelwise_predict_tree(tree, X):
    """Reference descent: the level-wise walk with per-level left/right
    gathers and ``where`` that predict_tree's slot table replaced."""
    X = np.asarray(X, dtype=float)
    leaf = tree.feature < 0
    ids = np.arange(leaf.size)
    feature = np.where(leaf, 0, tree.feature)
    left = np.where(leaf, ids, ids + 1)
    right = np.where(leaf, ids, stack_right(tree.feature))
    flat = X.ravel()
    out = np.empty(X.shape[0])
    rows = np.arange(X.shape[0])
    start = rows * X.shape[1]
    node = np.zeros(X.shape[0], dtype=int)
    while True:
        done = leaf[node]
        if 2 * np.count_nonzero(done) >= node.size:
            out[rows[done]] = tree.value[node[done]]
            rows, start, node = rows[~done], start[~done], node[~done]
            if not rows.size:
                return out
        node = np.where(flat[start + feature[node]] <= tree.threshold[node], left[node], right[node])


def _edge_rows(tree, X, rng):
    """Rows of X with cells set to each split's threshold, its float
    neighbours, a signed zero, or NaN."""
    internal = np.flatnonzero(tree.feature >= 0)
    edges = []
    for node in internal:
        t = tree.threshold[node]
        edges += [t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)]
    edges += [0.0, -0.0, np.nan]
    rows = X[rng.integers(0, len(X), size=4 * len(edges))].copy()
    for i, row in enumerate(rows):
        row[rng.integers(0, X.shape[1], size=rng.integers(1, X.shape[1] + 1))] = edges[i % len(edges)]
    return np.vstack([X, rows])


def test_slot_descent_matches_levelwise_descent():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(150, 4))
    X[:, 1] = np.round(X[:, 1], 1)  # repeated values
    X[::7, 2] = 0.0  # zero thresholds, so that -0.0 and 0.0 meet them
    X[1::7, 2] = -1e-300
    y = X[:, 0] * 2.0 + np.sin(3.0 * X[:, 1]) + (X[:, 2] > 0) + rng.normal(scale=0.1, size=150)
    params = TreeParams(max_depth=6, min_samples_split=4, max_features="third", seed=3)
    models = [fit_decision_tree(X, y, TreeParams(max_depth=8))]
    models += fit_random_forest(X, y, params, 8).trees
    models += fit_gbt(X, y, 8, 0.3, TreeParams(max_depth=3, seed=4)).trees
    models.append(fit_decision_tree(X, np.ones(150), TreeParams()))  # a single leaf
    assert models[-1].feature.size == 1
    for tree in models:
        X_new = _edge_rows(tree, X, rng)
        assert np.array_equal(predict_tree(tree, X_new), levelwise_predict_tree(tree, X_new))


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
        dump_json(forest_to_dict(ForestModel([tree], 1)), tmp_path / "tree.json")
        (clone,) = forest_from_dict(load_json(tmp_path / "tree.json"), 1).trees
    finally:
        sys.setrecursionlimit(limit)
    assert forest_to_dict(ForestModel([clone], 1)) == forest_to_dict(ForestModel([tree], 1))
    # the sums before its nodes reach 299, so the right children come from a sort on 16-bit keys
    internal = clone.feature >= 0
    assert np.array_equal(trees._right_children(clone.feature)[internal], stack_right(tree.feature)[internal])
    assert np.array_equal(predict_tree(clone, x), y)


def test_right_children_match_a_stack_parse():
    rng = np.random.default_rng(37)
    X = tied_matrix(rng, 120, 5)
    y = X[:, 0] + np.round(rng.normal(size=120), 1)
    shapes = []
    for seed in range(6):
        params = TreeParams(
            max_depth=[None, 1, 3, 8][seed % 4],
            min_samples_split=int(rng.integers(2, 12)),
            max_features=trees.MAX_FEATURES_MODES[seed % 3],
            seed=seed,
        )
        shapes.append(fit_decision_tree(X, y, params).feature)
        shapes += [t.feature for t in fit_random_forest(X, y, params, 4).trees]
        shapes += [t.feature for t in fit_gbt(X, y, 4, 0.5, params).trees]
    shapes.append(fit_decision_tree(X, np.ones(120), TreeParams()).feature)  # one leaf
    for depth in (1, 2, 300, 70_000):  # sums before nodes past 8 and 16 bits
        shapes.append(np.array([0] * depth + [-1] * (depth + 1)))  # left chain
        shapes.append(np.array([0, -1] * depth + [-1]))  # right chain
    shapes += [complete_tree(depth, 3, rng).feature for depth in (0, 1, 5)]
    for feature in shapes:
        internal = feature >= 0
        assert np.array_equal(trees._right_children(feature)[internal], stack_right(feature)[internal])
    # trees laid end to end, as a plan lays a run: every shape above; 300
    # one-leaf stages, whose running sum falls to -300, before a deep chain;
    # and a run of complete trees past PLAN_NODES
    leaf, chain = np.array([-1]), np.array([0] * 300 + [-1] * 301)
    for run in (shapes, [leaf] * 300 + [chain], [complete_tree(9, 3, rng).feature] * 70):
        feature = np.concatenate(run)
        internal = feature >= 0
        assert np.array_equal(trees._right_children(feature)[internal], stack_right(feature)[internal])
    assert feature.size > trees.PLAN_NODES


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
    assert trees_to_block(f1.trees[:1], f1.n_features) != trees_to_block(f1.trees[1:2], f1.n_features)


def test_forest_tree_equals_grow_on_its_bootstrap_rows():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    params = TreeParams(max_depth=4, max_features="sqrt", seed=1)
    forest = fit_random_forest(X, y, params, n_estimators=5)
    columns, keys = np.ascontiguousarray(X.T), trees.rank_code(X)
    for t, tree in enumerate(forest.trees):
        tree_rng, rows = trees._bootstrap(params.seed, t, 40)
        # tree t's rows are the first draw of its own generator
        assert np.array_equal(rows, np.random.default_rng(mix_seed(params.seed, t)).integers(0, 40, size=40))
        assert_same_trees([tree], [trees._grow(columns, keys, y, params, tree_rng, rows)])


def test_forest_oob_matches_brute_force():
    # each row's OOB prediction is the in-order sum of predict_tree over the
    # trees whose bootstrap missed it, over their count; a row that every
    # tree drew is not scored
    rng = np.random.default_rng(23)
    n, seed = 12, 4
    X = rng.normal(size=(n, 3))
    y = X[:, 0] + rng.normal(size=n)
    forest = fit_random_forest(X, y, TreeParams(max_depth=3, max_features="third", seed=seed), n_estimators=9)
    per_tree = [predict_tree(tree, X) for tree in forest.trees]
    drawn = [set(np.random.default_rng(mix_seed(seed, t)).integers(0, n, size=n).tolist()) for t in range(9)]
    sizes = [1, 2, 5, 9]
    got = trees.forest_oob(forest, X, seed, sizes)
    assert len(got) == len(sizes)
    unscored = 0
    for size, (prefix, prediction, scored) in zip(sizes, got):
        assert forest_to_dict(prefix) == forest_to_dict(trees.ForestModel(forest.trees[:size], 3))
        for i in range(n):
            missed = [per_tree[t][i] for t in range(size) if i not in drawn[t]]
            assert scored[i] == bool(missed)
            assert prediction[i] == (sum(missed) / len(missed) if missed else 0.0)
            unscored += not missed
    assert 0 < unscored  # the 1-tree forest leaves most rows unscored


def complete_tree(depth, width, rng):
    """A complete binary tree of the given depth in preorder, with random
    split features, thresholds and leaf values."""
    feature, threshold, value = [], [], []

    def build(d):
        leaf = d == depth
        feature.append(-1 if leaf else int(rng.integers(width)))
        threshold.append(0.0 if leaf else float(rng.normal()))
        value.append(float(rng.normal()) if leaf else 0.0)
        if not leaf:
            build(d + 1)
            build(d + 1)

    build(0)
    return trees.Tree(np.array(feature), np.array(threshold), np.array(value))


def test_plan_memory_is_bounded_by_the_cap_not_the_forest():
    # 400 trees of 1023 nodes: 409 200 nodes, about six times the cap. A
    # plan's build peaks near 184 bytes a node: one plan over all of them
    # peaked at 52 MB for 82 rows, and one per run at 12 MB
    rng = np.random.default_rng(31)
    pool = [complete_tree(9, 40, rng) for _ in range(8)]
    forest = trees.ForestModel([pool[t % 8] for t in range(400)], n_features=40)
    assert sum(t.feature.size for t in forest.trees) > 400_000
    X = rng.normal(size=(82, 40))
    got = []
    peak = _traced_peak(lambda: got.append(predict_forest(forest, X)))
    assert peak < 200 * trees.PLAN_NODES, peak
    assert np.array_equal(got[0], forest_reference(forest.trees, X))


def forest_reference(trees, X):
    """The in-order running sum of each tree's level-wise walk, divided by the tree count."""
    acc = np.zeros(len(X))
    for tree in trees:
        acc += levelwise_predict_tree(tree, X)
    return acc / len(trees)


def gbt_reference(base, learning_rate, stages, X):
    """base + sum of learning_rate * each stage's level-wise walk, in stage order."""
    out = np.full(len(X), base)
    for stage in stages:
        out += learning_rate * levelwise_predict_tree(stage, X)
    return out


def test_forest_prediction_is_mean_of_trees():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    forest = fit_random_forest(X, y, TreeParams(max_depth=3, seed=3), n_estimators=7)
    X_new = _edge_rows(forest.trees[0], X, rng)
    assert np.array_equal(predict_forest(forest, X_new), forest_reference(forest.trees, X_new))


def test_gbt_prediction_is_base_plus_shrunken_stages():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    model = fit_gbt(X, y, rounds=9, learning_rate=0.3, tree_params=TreeParams(max_depth=3, seed=2))
    X_new = _edge_rows(model.trees[0], X, rng)
    want = gbt_reference(model.base_prediction, model.learning_rate, model.trees, X_new)
    assert np.array_equal(predict_forest(model, X_new), want)


def test_one_plan_walks_a_leaf_a_chain_and_forest_trees():
    # shallowest leaf depths 0 (a lone leaf), 1 (the 299-level chain) and
    # those of the forest's trees, in one plan
    rng = np.random.default_rng(17)
    X = rng.normal(size=(300, 3))
    X[:, 0] = np.arange(300)
    X[::5, 2] = 0.0
    chain = fit_decision_tree(X[:, :1], 3.0 ** np.arange(300), TreeParams())
    assert chain.feature.size == 599
    leaf = fit_decision_tree(X, np.ones(300), TreeParams())
    assert leaf.feature.size == 1
    forest = fit_random_forest(X, X[:, 1] + (X[:, 2] > 0), TreeParams(max_depth=6, max_features="sqrt", seed=5), 5)
    mixed = [leaf, chain, *forest.trees[:2], leaf, *forest.trees[2:]]
    X_new = np.vstack([_edge_rows(tree, X, rng) for tree in mixed])
    model = trees.ForestModel(trees=mixed, n_features=3)
    assert np.array_equal(predict_forest(model, X_new), forest_reference(mixed, X_new))
    gbt = ForestModel(mixed, 3, base_prediction=0.25, learning_rate=0.5)
    assert np.array_equal(predict_forest(gbt, X_new), gbt_reference(0.25, 0.5, mixed, X_new))


@pytest.mark.parametrize("cap", [1, 600, 650, 1000])
def test_plan_runs_keep_every_float(monkeypatch, cap):
    # caps that cut the model of the test above into runs: one tree a run,
    # runs that split before and after the 599-node chain, and runs that
    # hold several trees
    rng = np.random.default_rng(19)
    X = rng.normal(size=(300, 3))
    X[:, 0] = np.arange(300)
    chain = fit_decision_tree(X[:, :1], 3.0 ** np.arange(300), TreeParams())
    leaf = fit_decision_tree(X, np.ones(300), TreeParams())
    forest = fit_random_forest(X, X[:, 1] + (X[:, 2] > 0), TreeParams(max_depth=6, max_features="sqrt", seed=5), 6)
    mixed = [leaf, *forest.trees[:3], chain, leaf, *forest.trees[3:]]
    X_new = np.vstack([_edge_rows(tree, X, rng) for tree in mixed])
    monkeypatch.setattr(trees, "PLAN_NODES", cap)
    runs = list(trees._runs(mixed))
    assert [t for run in runs for t in run] == mixed
    assert all(len(run) == 1 or sum(t.feature.size for t in run) <= cap for run in runs)
    assert len(runs) > 1
    model = trees.ForestModel(trees=mixed, n_features=3)
    assert np.array_equal(predict_forest(model, X_new), forest_reference(mixed, X_new))
    gbt = ForestModel(mixed, 3, base_prediction=0.25, learning_rate=0.5)
    assert np.array_equal(predict_forest(gbt, X_new), gbt_reference(0.25, 0.5, mixed, X_new))


def test_forest_rejects_zero_estimators():
    with pytest.raises(DataError, match=re.escape("random_forest parameter 'n_estimators' must be an int in [1, 10000], got 0")):
        fit_family("random_forest", {"n_estimators": 0}, FIXTURE_X, FIXTURE_Y)


def test_gbt_zero_rounds_predicts_mean():
    model = fit_gbt(FIXTURE_X, FIXTURE_Y, rounds=0, learning_rate=0.5, tree_params=TreeParams())
    assert np.array_equal(predict_forest(model, FIXTURE_X), np.full(4, 5.0))
    assert predict_forest(model, FIXTURE_X[:0]).shape == (0,)


def test_gbt_one_round_full_rate_recovers_fixture():
    model = fit_gbt(
        FIXTURE_X, FIXTURE_Y, rounds=1, learning_rate=1.0, tree_params=TreeParams(max_depth=1)
    )
    assert model.base_prediction == 5.0
    assert np.allclose(predict_forest(model, FIXTURE_X), FIXTURE_Y)


def test_gbt_half_rate_hand_arithmetic():
    stump = fit_decision_tree(FIXTURE_X, FIXTURE_Y - 5.0, TreeParams(max_depth=1))
    model = ForestModel([stump], 1, base_prediction=5.0, learning_rate=0.5)
    assert np.allclose(predict_forest(model, FIXTURE_X), [2.5, 2.5, 7.5, 7.5])


def test_zero_round_boosted_record_predicts_its_base():
    model = ForestModel([], 2, base_prediction=-1.25, learning_rate=0.3)
    X = np.array([[0.0, 1.0], [5.0, -2.0], [1e300, -0.0]])
    assert predict_forest(model, X).tolist() == [-1.25] * 3
    assert predict_forest(model, X[:0]).shape == (0,)


@pytest.mark.parametrize(
    "family, params, keys",
    [
        ("decision_tree", {}, ["n_features", "trees"]),
        ("random_forest", {"n_estimators": 3}, ["n_features", "trees"]),
        ("gbt", {"rounds": 2}, ["base_prediction", "n_features", "trees"]),
    ],
)
def test_tree_families_share_one_record_and_keep_their_dict_keys(family, params, keys):
    # the key sets of bundle v10: a boosted model alone stores a base
    entry = FAMILY_TABLE[family]
    assert entry.to_dict is trees.forest_to_dict
    model = fit_family(family, params, FIXTURE_X, FIXTURE_Y)
    assert isinstance(model, ForestModel) and (model.learning_rate is None) == (family != "gbt")
    d = entry.to_dict(model)
    assert sorted(d) == keys
    clone = entry.from_dict(json.loads(json.dumps(d)), resolve_params(family, params))
    assert clone == ForestModel(clone.trees, model.n_features, model.base_prediction, model.learning_rate)
    assert entry.to_dict(clone) == d
    assert np.array_equal(entry.predict(clone, FIXTURE_X), predict_forest(model, FIXTURE_X))


def test_gbt_training_mse_non_increasing():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(60, 3))
    y = rng.normal(size=60)
    rounds = 25
    model = fit_gbt(X, y, rounds=rounds, learning_rate=0.5, tree_params=TreeParams(max_depth=2))
    # recompute the per-round training MSE from the stages
    preds = np.full(len(y), model.base_prediction)
    last = float(np.mean((y - preds) ** 2))
    for stage in model.trees:
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
    assert forest_to_dict(a) == forest_to_dict(b)


def test_predict_dispatch_and_dimension_check():
    leaf_only = fit_decision_tree(FIXTURE_X, np.full(4, 2.0), TreeParams())
    assert np.allclose(predict_tree(leaf_only, FIXTURE_X), 2.0)

    single = fit_decision_tree(FIXTURE_X, FIXTURE_Y, TreeParams(max_features="all", seed=0))
    forest = trees.ForestModel(trees=[single], n_features=1)
    assert np.array_equal(predict_forest(forest, FIXTURE_X), predict_tree(single, FIXTURE_X))

    with pytest.raises(DataError):
        predict_forest(forest, np.zeros((2, 5)))
    gbt = fit_gbt(FIXTURE_X, FIXTURE_Y, 2, 0.5, TreeParams(max_depth=1))
    with pytest.raises(DataError):
        predict_forest(gbt, np.zeros((2, 3)))
    with pytest.raises(DataError):
        predict_tree(single, np.zeros((2, 0)))


@pytest.mark.parametrize("kind", ["forest", "gbt"])
def test_decoded_split_feature_at_the_width_is_a_data_error(kind):
    # a row-major gather at column `width` would read the next row's first cell
    rng = np.random.default_rng(19)
    X = rng.normal(size=(40, 3))
    y = X[:, 0] + rng.normal(scale=0.1, size=40)
    if kind == "forest":
        model, from_dict = fit_random_forest(X, y, TreeParams(max_depth=3), 4), (lambda d: forest_from_dict(d, 4))
    else:
        model, from_dict = fit_gbt(X, y, 4, 0.5, TreeParams(max_depth=3)), (lambda d: forest_from_dict(d, 4, 0.5))
    d = forest_to_dict(model)
    feature = unpack_block(d["trees"], 3)["feature"].copy()
    k = np.flatnonzero(feature >= 0)[-1]
    feature[k] = 3
    d["trees"]["feature"] = deflated(feature.tobytes())
    # the loader rejects it, before any prediction plan is built
    with pytest.raises(DataError, match=re.escape(f"holds 3 at node {k}, neither -1 (a leaf) nor a column below 3")):
        from_dict(d)
    # the plan still checks the width, which guards a fitted model
    last = model.trees[-1].feature
    last[np.flatnonzero(last >= 0)[-1]] = 3
    with pytest.raises(DataError, match="tree references feature 3 but input has 3"):
        predict_forest(model, X)


def test_serialization_round_trips():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(50, 3))
    y = rng.normal(size=50)

    # a decision tree is a forest of one tree
    tree = ForestModel([fit_decision_tree(X, y, TreeParams(max_depth=4, seed=2))], 3)
    clone = forest_from_dict(forest_to_dict(tree), 1)
    assert np.array_equal(predict_forest(tree, X), predict_forest(clone, X))

    forest = fit_random_forest(X, y, TreeParams(max_depth=3, seed=2), n_estimators=5)
    fclone = forest_from_dict(forest_to_dict(forest), 5)
    assert np.array_equal(predict_forest(forest, X), predict_forest(fclone, X))

    gbt = fit_gbt(X, y, rounds=5, learning_rate=0.5, tree_params=TreeParams(max_depth=2))
    gclone = forest_from_dict(forest_to_dict(gbt), 5, gbt.learning_rate)
    assert gclone == ForestModel(gclone.trees, 3, gbt.base_prediction, 0.5)
    assert np.array_equal(predict_forest(gbt, X), predict_forest(gclone, X))


def unpack_block(block, n_features):
    """A block's arrays, decoded without the codec: base64, then inflate,
    then fixed little-endian dtypes, the leaf values from their planes."""
    raw = {name: zlib.decompress(base64.b64decode(block[name])) for name in ("feature", "threshold", "value")}
    return {
        "feature": np.frombuffer(raw["feature"], dtype=feature_dtype(n_features)),
        "threshold": np.frombuffer(raw["threshold"], dtype="<f8"),
        "value": unplaned(raw["value"]),
    }


def deflated(raw):
    """``raw`` bytes as a block stores them: deflated, then base64."""
    return base64.b64encode(zlib.compress(raw)).decode("ascii")


def pack_block(sizes, arrays):
    """A block holding ``arrays`` as given: each array's own dtype and bytes,
    ``value`` as its byte planes (or the bytes given in place of an array),
    deflated."""
    raw = {name: np.asarray(a).tobytes() for name, a in arrays.items() if not isinstance(a, bytes)}
    if "value" in raw:
        raw["value"] = planes(arrays["value"])
    return {"sizes": sizes, **{name: deflated(raw.get(name, a)) for name, a in arrays.items()}}


def codec_models():
    """Fitted tree models with tied values, -0.0 thresholds and leaves, and
    one-node trees, as (to_dict, from_dict, model, trees_of) where
    ``trees_of(model)`` lists a model's trees."""
    rng = np.random.default_rng(31)
    X = tied_matrix(rng, 90, 6)
    y = np.round(rng.normal(size=90), 1)
    y[::4] = -0.0
    params = TreeParams(max_depth=6, min_samples_split=3, max_features="third", seed=4)
    # a stump that splits at -0.0 into leaves of -0.0 and 1.0
    stump = trees.Tree(np.array([3, -1, -1]), np.array([-0.0, 0.0, 0.0]), np.array([0.5, -0.0, 1.0]))
    single_leaf = fit_decision_tree(X, np.full(90, 2.5), TreeParams())
    forest = fit_random_forest(X, y, params, 4)
    forest.trees += [stump, single_leaf]
    gbt = fit_gbt(X, y, 4, 0.5, TreeParams(max_depth=3, seed=2))
    # a decision tree is a forest of one tree
    tree = (forest_to_dict, lambda d: forest_from_dict(d, 1))
    return X, rng, [
        (*tree, ForestModel([fit_decision_tree(X, y, TreeParams())], 6), lambda m: m.trees),
        (*tree, ForestModel([single_leaf], 6), lambda m: m.trees),
        (*tree, ForestModel([stump], 6), lambda m: m.trees),
        (forest_to_dict, lambda d: forest_from_dict(d, 6), forest, lambda m: m.trees),
        (forest_to_dict, lambda d: forest_from_dict(d, 4, 0.5), gbt, lambda m: m.trees),
        (forest_to_dict, lambda d: forest_from_dict(d, 0, 0.5), fit_gbt(X, y, 0, 0.5, TreeParams()), lambda m: m.trees),
    ]


def test_codec_stores_only_what_prediction_reads():
    X, rng, models = codec_models()
    for to_dict, from_dict, model, trees_of in models:
        fitted = trees_of(model)
        d = to_dict(model)
        block = d["trees"]
        assert sorted(block) == ["feature", "sizes", "threshold", "value"]
        assert block["sizes"] == [t.feature.size for t in fitted]
        # the block holds what prediction reads and nothing else, in preorder
        packed = unpack_block(block, model.n_features)
        feature = np.concatenate([np.empty(0, dtype=int)] + [t.feature for t in fitted])
        internal = feature >= 0
        cat = {name: np.concatenate([np.empty(0)] + [getattr(t, name) for t in fitted]) for name in TREE_ARRAYS[:3]}
        assert np.array_equal(packed["feature"], feature)
        assert packed["threshold"].tobytes() == cat["threshold"][internal].astype("<f8").tobytes()
        assert packed["value"].tobytes() == cat["value"][~internal].astype("<f8").tobytes()

        clone = from_dict(json.loads(json.dumps(d)))
        assert to_dict(clone) == d
        decoded = trees_of(clone)
        assert len(decoded) == len(fitted)
        for tree, got in zip(fitted, decoded):
            leaf = tree.feature < 0
            # unread entries decode as 0, read ones bit for bit
            want = {
                "feature": tree.feature,
                "threshold": np.where(leaf, 0.0, tree.threshold),
                "value": np.where(leaf, tree.value, 0.0),
            }
            for name, a in want.items():
                b = getattr(got, name)
                assert b.dtype == a.dtype and b.tobytes() == a.tobytes(), name
            assert got.n_samples is None and got.impurity_decrease is None
            with pytest.raises(TypeError):  # importance needs the fitted tree's statistics
                trees.impurity_by_feature([got], X.shape[1])
            # _edge_rows holds rows exactly at each threshold, and signed zeros
            X_new = _edge_rows(tree, X, rng)
            assert predict_tree(got, X_new).tobytes() == predict_tree(tree, X_new).tobytes()


def test_empty_block_is_a_zero_round_gbt():
    model = fit_gbt(FIXTURE_X, FIXTURE_Y, rounds=0, learning_rate=0.5, tree_params=TreeParams())
    d = forest_to_dict(model)
    empty = deflated(b"")
    assert d["trees"] == {"sizes": [], "feature": empty, "threshold": empty, "value": empty}
    clone = forest_from_dict(d, 0, 0.5)
    assert clone.trees == [] and np.array_equal(predict_forest(clone, FIXTURE_X), predict_forest(model, FIXTURE_X))


@pytest.mark.parametrize("n_features", [1, 128, 129, 32_768, 32_769])
def test_feature_stream_is_the_narrowest_integer_for_the_width(n_features):
    # a stump on the last column and a leaf: -1 and n_features - 1 must both fit
    last = n_features - 1
    model = ForestModel([trees.Tree(np.array([last, -1, -1]), np.array([0.5, 0.0, 0.0]), np.array([0.0, 1.0, 2.0])),
                         trees.Tree(np.array([-1]), np.array([0.0]), np.array([3.0]))], n_features)
    d = forest_to_dict(model)
    raw = zlib.decompress(base64.b64decode(d["trees"]["feature"]))
    assert raw == np.array([last, -1, -1, -1], dtype=feature_dtype(n_features)).tobytes()
    clone = forest_from_dict(json.loads(json.dumps(d)), 2)
    assert forest_to_dict(clone) == d
    for tree, got in zip(model.trees, clone.trees):
        assert got.feature.tolist() == tree.feature.tolist()
    X = np.zeros((2, n_features))
    X[1, last] = 1.0
    assert predict_forest(clone, X).tolist() == [2.0, 2.5]


def test_leaf_values_keep_every_bit_through_the_byte_planes():
    values = np.array([-0.0, 5e-324, 1.7e308, -1.7e308, 0.1, -2.5])
    # a left chain in preorder: internal nodes 0-4, then the six leaves
    feature = np.array([0] * 5 + [-1] * 6)
    value = np.concatenate([np.zeros(5), values])
    d = forest_to_dict(ForestModel([trees.Tree(feature, np.zeros(11), value)], 1))
    assert zlib.decompress(base64.b64decode(d["trees"]["value"])) == planes(values)
    (got,) = forest_from_dict(d, 1).trees
    assert got.value.tobytes() == value.tobytes()


# the columns of the trees in _stump_block: their feature stream is <i1
STUMP_WIDTH = 3


def _stump_block():
    """Two trees: a stump (nodes 0-2) and a three-split tree (nodes 0-6), as
    per-kind arrays (feature per node, threshold per internal node, value
    per leaf)."""
    return [3, 7], {
        "feature": np.array([0, -1, -1, 1, 0, -1, -1, 2, -1, -1], dtype="<i1"),
        "threshold": np.array([0.5, 1.0, -0.0, 2.0]),
        "value": np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
    }


def _edit(edit):
    sizes, arrays = _stump_block()
    arrays = {k: v.copy() for k, v in arrays.items()}
    return edit(sizes, arrays) or pack_block(sizes, arrays)


def _stream(name, edit):
    """A block edit: ``name`` stored as base64 of ``edit(raw)``, where ``raw``
    is the array's bytes as the block stores them (the leaf values as planes)."""

    def stream(s, a):
        raw = planes(a[name]) if name == "value" else a[name].tobytes()
        return {**pack_block(s, a), name: base64.b64encode(edit(raw)).decode("ascii")}

    return stream


MALFORMED_BLOCKS = {
    "arrays of unequal length": (
        lambda s, a: a.update(threshold=a["threshold"][:-1]),
        "'threshold' inflates to 24 bytes, not the 32 of its 4 internal nodes",
    ),
    "a feature that is not an integer": (
        lambda s, a: a.update(feature=a["feature"].astype("<f8")),
        "'feature' inflates past the 10 bytes of its 10 nodes",
    ),
    "sizes not integers": (lambda s, a: s.__setitem__(0, 3.0), "positive integers"),
    "a zero size": (lambda s, a: s.insert(0, 0), "positive integers"),
    "sizes not a list": (lambda s, a: pack_block(7, a), "positive integers"),
    "a size past the 2**31 bound": (lambda s, a: s.__setitem__(0, 2**31), "positive integers below 2**31"),
    "sizes that do not sum to the node count": (
        lambda s, a: s.__setitem__(1, 8), "'feature' inflates to 10 bytes, not the 11 of its 11 nodes"
    ),
    # leaf flags that break the shape rule, each a tree a walk could not finish
    # or nodes no walk reaches; the counts stay consistent
    "a node no node points to": (  # tree 1's node 4 made a leaf closes the tree there
        lambda s, a: a.update(
            feature=np.array([0, -1, -1, 1, 0, -1, -1, -1, -1, -1], dtype="<i1"),
            threshold=a["threshold"][:-1],
            value=np.append(a["value"], 7.0),
        ),
        "tree 1 of 7 nodes breaks the shape rule: its leaf flags close it at node 4",
    ),
    "a right child past the last node": (  # node 1 made internal: its right child would be node 3
        lambda s, a: a.update(
            feature=np.array([0, 0, -1, 1, 0, -1, -1, 2, -1, -1], dtype="<i1"),
            threshold=np.insert(a["threshold"], 1, 0.5),
            value=a["value"][1:],
        ),
        "tree 0 of 3 nodes breaks the shape rule: its leaf flags leave it open at its last node",
    ),
    "a right child in the next tree": (
        lambda s, a: s.__setitem__(slice(None), [2, 8]),
        "tree 0 of 2 nodes breaks the shape rule: its leaf flags leave it open at its last node",
    ),
    "a tree closed before its size": (
        lambda s, a: s.__setitem__(slice(None), [4, 6]),
        "tree 0 of 4 nodes breaks the shape rule: its leaf flags close it at node 2",
    ),
    "a last node that is internal": (
        lambda s, a: a.update(
            feature=np.array([0, -1, 0, 1, 0, -1, -1, 2, -1, -1], dtype="<i1"),
            threshold=np.array([0.5, 0.5, 1.0, -0.0, 2.0]),
            value=a["value"][1:],
        ),
        "tree 0 of 3 nodes breaks the shape rule: its leaf flags leave it open at its last node",
    ),
    "bad base64": (lambda s, a: {**pack_block(s, a), "threshold": "AAAA!AAA"}, "'threshold' is not valid base64"),
    "base64 without padding": (
        lambda s, a: {**pack_block(s, a), "threshold": "AAAAAA"}, "'threshold' is not valid base64"
    ),
    "a non-ASCII string": (lambda s, a: {**pack_block(s, a), "value": "é"}, "'value' is not valid base64"),
    "a number in place of base64": (lambda s, a: {**pack_block(s, a), "value": 1.0}, "'value' must be a base64 string"),
    "a byte count off the item size": (
        lambda s, a: a.update(threshold=a["threshold"].tobytes() + b"\0"),
        "'threshold' inflates past the 32 bytes of its 4 internal nodes",
    ),
    "leaf value planes one byte past the leaves": (
        _stream("value", lambda raw: zlib.compress(raw + b"\0")),
        "'value' inflates past the 48 bytes of its 6 leaves",
    ),
    "a wider feature stream than the width gives": (
        lambda s, a: a.update(feature=a["feature"].astype("<i2")),
        "'feature' inflates past the 10 bytes of its 10 nodes",
    ),
    # a split feature is -1 at a leaf or a column of the model's width
    "a leaf flag below -1": (
        lambda s, a: a["feature"].__setitem__(5, -5),
        "'feature' holds -5 at node 5, neither -1 (a leaf) nor a column below 3",
    ),
    "a split feature at the width": (
        lambda s, a: a["feature"].__setitem__(7, 3),
        "'feature' holds 3 at node 7, neither -1 (a leaf) nor a column below 3",
    ),
    "the most negative int8": (
        lambda s, a: a["feature"].__setitem__(1, -128),
        "'feature' holds -128 at node 1, neither -1 (a leaf) nor a column below 3",
    ),
    "a raw array, as version 5 stored it": (_stream("feature", lambda raw: raw), "'feature' is not a zlib stream"),
    "a truncated stream": (
        _stream("threshold", lambda raw: zlib.compress(raw)[:-2]), "'threshold' is a truncated zlib stream"
    ),
    "an empty string": (_stream("value", lambda raw: b""), "'value' is a truncated zlib stream"),
    "bytes after the stream": (
        _stream("threshold", lambda raw: zlib.compress(raw) + b"\0"), "'threshold' has 1 bytes after its zlib stream"
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BLOCKS))
def test_block_rejects_malformed(case):
    edit, message = MALFORMED_BLOCKS[case]
    assert len(trees_from_block(pack_block(*_stump_block()), STUMP_WIDTH)) == 2
    with pytest.raises(DataError, match=re.escape(message)):
        trees_from_block(_edit(edit), STUMP_WIDTH)


def test_inflate_stops_one_byte_past_the_declared_entries():
    # 50 MB of zeros deflate to ~51 KB; a one-leaf tree holds one value and no threshold
    bomb = base64.b64encode(zlib.compress(bytes(50_000_000))).decode("ascii")
    block = pack_block([1], {"feature": np.array([-1], dtype="<i1"), "threshold": [], "value": [2.5]})
    (tree,) = trees_from_block(block, 1)
    assert tree.value.tolist() == [2.5]
    for name, message in [
        ("value", "'value' inflates past the 8 bytes of its 1 leaves"),
        # a zero-count array still inflates at most one byte: max_length is never 0, which means no limit
        ("threshold", "'threshold' inflates past the 0 bytes of its 0 internal nodes"),
    ]:
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=re.escape(message)):
                trees_from_block({**block, name: bomb}, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (name, peak)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_node_count_the_streams_do_not_hold_costs_only_the_feature_inflate():
    # sizes claim 2.5 million nodes and feature inflates to that many zeros,
    # all internal, but threshold is empty: the block is rejected before any
    # copy of feature wider than its entries (<i1 at 40 columns, <i4 at 40 000)
    n = 2_500_000
    for n_features in (40, 40_000):
        dtype = feature_dtype(n_features)
        feature = base64.b64encode(zlib.compress(bytes(np.dtype(dtype).itemsize * n))).decode("ascii")
        block = {**pack_block([n], {"feature": b"", "threshold": b"", "value": b""}), "feature": feature}
        inflate = _traced_peak(lambda: trees._unpack(feature, "feature", dtype, n, "nodes"))

        def decode():
            match = re.escape("'threshold' inflates to 0 bytes, not the 20000000 of its 2500000")
            with pytest.raises(DataError, match=match):
                trees_from_block(block, n_features)

        assert _traced_peak(decode) <= 1.1 * inflate, n_features


def test_tree_models_check_their_tree_count():
    # one rule: a block holds the tree count its member's params give,
    # n_estimators for a forest, rounds for gbt and 1 for a decision tree
    forest = forest_to_dict(fit_random_forest(FIXTURE_X, FIXTURE_Y, TreeParams(), n_estimators=5))
    with pytest.raises(DataError, match="tree block holds 5 trees, but its params give 3"):
        forest_from_dict(forest, 3)
    gbt = forest_to_dict(fit_gbt(FIXTURE_X, FIXTURE_Y, rounds=7, learning_rate=0.5, tree_params=TreeParams()))
    with pytest.raises(DataError, match="tree block holds 7 trees, but its params give 2"):
        forest_from_dict(gbt, 2, 0.5)
    sizes, arrays = _stump_block()
    empty = forest_to_dict(fit_gbt(FIXTURE_X, FIXTURE_Y, rounds=0, learning_rate=0.5, tree_params=TreeParams()))["trees"]
    for block, count in ((pack_block(sizes, arrays), 2), (empty, 0)):  # the stump block is 3 columns wide
        with pytest.raises(DataError, match=f"tree block holds {count} trees, but its params give 1"):
            FAMILY_TABLE["decision_tree"].from_dict({"n_features": 3, "trees": block}, DEFAULT_PARAMS["decision_tree"])


@pytest.mark.parametrize("name", ["threshold", "value"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tree_from_dict_rejects_non_finite_numbers(name, bad):
    tree = ForestModel([fit_decision_tree(FIXTURE_X, FIXTURE_Y, TreeParams(max_depth=1))], 1)
    d = forest_to_dict(tree)
    arrays = unpack_block(d["trees"], 1)
    arrays[name] = arrays[name].copy()
    arrays[name][0] = bad
    with pytest.raises(DataError, match=f"{name!r} must hold finite numbers"):
        forest_from_dict({**d, "trees": pack_block(d["trees"]["sizes"], arrays)}, 1)
    g = forest_to_dict(fit_gbt(FIXTURE_X, FIXTURE_Y, rounds=1, learning_rate=0.5, tree_params=TreeParams()))
    with pytest.raises(DataError, match="base_prediction must be a finite number"):
        forest_from_dict({**g, "base_prediction": bad}, 1, 0.5)
    # a gbt's learning_rate comes from its member's params, which resolve_params checks
    with pytest.raises(DataError, match="finite"):
        resolve_params("gbt", {"learning_rate": bad})


def test_params_validation():
    # tree parameters are checked by families.resolve_params, not by TreeParams or the fits
    with pytest.raises(DataError, match="'min_samples_split' must be an int >= 2, got 1"):
        resolve_params("decision_tree", {"min_samples_split": 1})
    with pytest.raises(DataError, match="'max_depth' must be None or an int >= 1, got 0"):
        resolve_params("decision_tree", {"max_depth": 0})
    with pytest.raises(DataError, match="'max_features' must be one of .*, got 'half'"):
        resolve_params("decision_tree", {"max_features": "half"})
    with pytest.raises(DataError, match=r"'learning_rate' must be a finite number in \(0, 1\], got 1.5"):
        fit_family("gbt", {"rounds": 1, "learning_rate": 1.5}, FIXTURE_X, FIXTURE_Y)
