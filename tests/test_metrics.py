import numpy as np
import pytest

from coldstart.errors import DataError
from coldstart.metrics import (
    IMPORTANCE_CHUNK_ROWS,
    error_buckets,
    impurity_importance,
    mape,
    metric_report,
    pearson,
    pearson_matrix,
    permutation_importance,
    r2,
    smape,
)
from coldstart.trees import TreeParams, fit_decision_tree, fit_gbt, fit_random_forest
from coldstart.util import mix_seed


# independent direct-formula references, kept deliberately naive
def ref_mape(y, yhat):
    terms = [abs(a - b) / abs(a) for a, b in zip(y, yhat) if a != 0]
    return 100.0 * sum(terms) / len(terms)


def ref_smape(y, yhat):
    terms = []
    for a, b in zip(y, yhat):
        denom = abs(a) + abs(b)
        terms.append(0.0 if denom == 0 else 2.0 * abs(a - b) / denom)
    return 100.0 * sum(terms) / len(terms)


def ref_r2(y, yhat):
    mean = sum(y) / len(y)
    ss_tot = sum((v - mean) ** 2 for v in y)
    ss_res = sum((a - b) ** 2 for a, b in zip(y, yhat))
    return 1.0 - ss_res / ss_tot


def ref_pearson(a, b):
    n = len(a)
    ma = sum(a) / n
    mb = sum(b) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    va = sum((x - ma) ** 2 for x in a)
    vb = sum((y - mb) ** 2 for y in b)
    return cov / (va**0.5 * vb**0.5)


def test_mape_examples():
    assert abs(mape([100, 200, 400], [110, 180, 440]) - 10.0) < 1e-12
    assert mape([3.0, 7.0], [3.0, 7.0]) == 0.0
    assert mape([0.0, 100.0], [5.0, 100.0]) == 0.0  # zero-target row excluded
    report = metric_report(np.array([0.0, 100.0]), np.array([5.0, 100.0]))
    assert report["n_excluded_zero_target"] == 1
    assert report["n_scored"] == 1
    with pytest.raises(DataError):
        mape([0.0, 0.0], [1.0, 1.0])


def test_smape_examples():
    assert smape([100.0], [300.0]) == 100.0
    assert smape([5.0], [5.0]) == 0.0
    assert smape([0.0], [0.0]) == 0.0


def test_smape_symmetry_and_range():
    rng = np.random.default_rng(0)
    for _ in range(50):
        y = rng.normal(size=20) * 100
        yhat = rng.normal(size=20) * 100
        assert smape(y, yhat) == smape(yhat, y)
        assert 0.0 <= smape(y, yhat) <= 200.0


def test_r2_examples():
    assert r2([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0
    assert r2([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == 0.0
    assert r2([1.0, 2.0, 3.0], [1.0, 2.0, 5.0]) == -1.0
    with pytest.raises(DataError):
        r2([2.0, 2.0], [1.0, 2.0])


def test_pearson_examples():
    assert abs(pearson([1, 2, 3], [2, 4, 6]) - 1.0) < 1e-12
    assert abs(pearson([1, 2, 3], [6, 4, 2]) + 1.0) < 1e-12
    assert abs(pearson([1, 2, 3], [1, 3, 2]) - 0.5) < 1e-12
    with pytest.raises(DataError):
        pearson([1, 1, 1], [1, 2, 3])


def test_pearson_affine_invariance_and_sign_flip():
    rng = np.random.default_rng(1)
    for _ in range(30):
        a = rng.normal(size=15)
        b = rng.normal(size=15)
        base = pearson(a, b)
        assert abs(pearson(a * 3.5 + 7.0, b) - base) < 1e-12
        assert abs(pearson(a, b * 0.2 - 4.0) - base) < 1e-12
        assert abs(pearson(-a, b) + base) < 1e-12


def test_metrics_match_references_on_random_vectors():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(2, 101))
        y = rng.uniform(1.0, 100.0, size=n)
        yhat = y + rng.normal(scale=10.0, size=n)
        assert abs(mape(y, yhat) - ref_mape(y, yhat)) < 1e-12 * max(1, ref_mape(y, yhat))
        assert abs(smape(y, yhat) - ref_smape(y, yhat)) < 1e-12 * max(1, ref_smape(y, yhat))
        assert abs(r2(y, yhat) - ref_r2(y, yhat)) < 1e-10
        assert abs(pearson(y, yhat) - ref_pearson(y, yhat)) < 1e-12


def test_error_buckets_hand_binning():
    y = np.array([100.0, 100.0, 100.0])
    yhat = np.array([105.0, 115.0, 145.0])  # errors 5%, 15%, 45%
    assert error_buckets(y, yhat).counts == [1, 1, 0, 0, 1]


def test_error_buckets_perfect_and_boundary():
    y = np.full(50, 10.0)
    assert error_buckets(y, y).counts == [50, 0, 0, 0, 0]
    # error of exactly 10% belongs to the second bucket
    assert error_buckets(np.array([100.0]), np.array([110.0])).counts == [0, 1, 0, 0, 0]
    assert error_buckets(np.array([100.0]), np.array([140.0])).counts == [0, 0, 0, 0, 1]


def test_error_buckets_sum_to_scored():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 60))
        y = rng.uniform(0.0, 50.0, size=n)
        y[rng.random(n) < 0.2] = 0.0
        if not np.any(y != 0):
            continue
        yhat = rng.uniform(0.0, 80.0, size=n)
        assert sum(error_buckets(y, yhat).counts) == int(np.sum(y != 0))


def test_pearson_matrix_diagonal_and_degenerate():
    names, matrix = pearson_matrix(
        [("a", [1.0, 2.0, 3.0]), ("b", [2.0, 4.0, 6.0]), ("const", [5.0, 5.0, 5.0])]
    )
    assert names == ["a", "b", "const"]
    assert np.allclose(np.diag(matrix), 1.0)
    assert abs(matrix[0, 1] - 1.0) < 1e-12
    assert matrix[0, 2] == 0.0  # undefined maps to 0


class _Linear:
    """Tiny stand-in model: y = 3*x0 + 0*x1."""

    def predict(self, X):
        return 3.0 * np.asarray(X)[:, 0]


def test_permutation_importance_signal_vs_noise():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(300, 2))
    y = 3.0 * X[:, 0] + 10.0
    report = permutation_importance(_Linear().predict, X, y, metric="r2", repeats=5, seed=0)
    assert report.rank_of("f0") == 1
    noise_score = [s for n, s, _ in report.features if n == "f1"][0]
    assert abs(noise_score) < 1e-9  # model never reads f1


def per_copy_importance(predict, X, y, metric, repeats, seed):
    """Reference: one predict per shuffled copy, the loop the batched
    permutation_importance replaced; returns the unranked scores."""
    score = mape if metric == "mape" else r2
    sign = 1.0 if metric == "mape" else -1.0
    baseline = score(y, predict(X))
    scores = []
    for j in range(X.shape[1]):
        deltas = []
        for rep in range(repeats):
            shuffled = X.copy()
            shuffled[:, j] = np.random.default_rng(mix_seed(seed, j * 1000 + rep)).permutation(shuffled[:, j])
            deltas.append(sign * (score(y, predict(shuffled)) - baseline))
        scores.append(float(np.mean(deltas)))
    return scores


@pytest.mark.parametrize("metric", ["mape", "r2"])
@pytest.mark.parametrize("repeats", [1, 3])
@pytest.mark.parametrize("n", [1000, IMPORTANCE_CHUNK_ROWS + 904])
def test_batched_importance_matches_per_copy_loop(n, repeats, metric):
    # n=1000 does not divide the chunk size, so chunks hold 4 copies and the
    # last one fewer; the larger n gets one copy per predict call
    rng = np.random.default_rng(n + repeats)
    X = rng.normal(size=(n, 6))

    def model(values):  # row-wise, with no reduction that could depend on the batch
        return 10.0 + 3.0 * np.abs(values[:, 0]) + values[:, 1] * values[:, 2] + np.where(values[:, 3] > 0, 1.5, 0.0)

    y = model(X) + rng.normal(scale=0.3, size=n)
    sizes = []

    def predict(values):
        sizes.append(len(values))
        return model(values)

    report = permutation_importance(predict, X, y, metric=metric, repeats=repeats, seed=7)
    want = per_copy_importance(model, X, y, metric, repeats, 7)
    assert [score for _, score, _ in report.features] == want
    assert max(sizes) <= max(n, IMPORTANCE_CHUNK_ROWS)
    assert sum(sizes) == n * (1 + 6 * repeats)


def test_permutation_importance_deterministic():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(50, 3))
    y = X[:, 0] * 2 + 5.0
    a = permutation_importance(_Linear().predict, X, y, metric="mape", repeats=3, seed=11)
    b = permutation_importance(_Linear().predict, X, y, metric="mape", repeats=3, seed=11)
    assert a.to_dict() == b.to_dict()


def test_impurity_importance_stump_and_normalization():
    X = np.array([[1.0, 9.0], [2.0, 9.0], [3.0, 9.0], [4.0, 9.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    stump = fit_decision_tree(X, y, TreeParams(max_depth=1))
    report = impurity_importance([stump], ["a", "b"])
    scores = {n: s for n, s, _ in report.features}
    assert scores == {"a": 1.0, "b": 0.0}
    assert not report.degenerate

    rng = np.random.default_rng(6)
    Xr = rng.normal(size=(80, 4))
    yr = Xr @ np.array([2.0, 1.0, 0.0, 0.0]) + rng.normal(scale=0.1, size=80)
    for model_trees in (
        [fit_decision_tree(Xr, yr, TreeParams(max_depth=4))],
        fit_random_forest(Xr, yr, TreeParams(max_depth=4, seed=0), 5).trees,
        fit_gbt(Xr, yr, 5, 0.5, TreeParams(max_depth=2)).trees,
    ):
        rep = impurity_importance(model_trees, ["a", "b", "c", "d"])
        assert abs(sum(s for _, s, _ in rep.features) - 1.0) < 1e-12


def test_impurity_importance_degenerate_no_splits():
    X = np.array([[1.0], [2.0]])
    y = np.array([5.0, 5.0])
    leaf = fit_decision_tree(X, y, TreeParams())
    report = impurity_importance([leaf], ["a"])
    assert report.degenerate
    assert all(s == 0.0 for _, s, _ in report.features)


def test_importance_ranks_are_permutation():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(100, 5))
    y = X @ np.array([3.0, 2.0, 1.0, 0.5, 0.0]) + rng.normal(scale=0.05, size=100)
    model = fit_gbt(X, y, 20, 0.5, TreeParams(max_depth=3))
    report = impurity_importance(model.trees, list("abcde"))
    ranks = sorted(r for _, _, r in report.features)
    assert ranks == [1, 2, 3, 4, 5]

