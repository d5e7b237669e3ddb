"""From-scratch CART regression tree, bagged forest, and gradient boosting.

Split search maximizes weighted variance reduction
    delta = Var(y) - (n_L/n) Var(y_L) - (n_R/n) Var(y_R)
computed, for two groups, via the equivalent between-group form
    delta = (n_L * n_R / n^2) * (mean_L - mean_R)^2
which is nonnegative by construction and avoids the cancellation of the
sum-of-squares formulation. Candidate thresholds are midpoints of
consecutive distinct sorted feature values; rows with x <= threshold go
left. Ties in delta resolve to the lowest feature index, then the lowest
threshold.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .data import FeatureMatrix
from .errors import DataError
from .util import mix_seed

MAX_FEATURES_MODES = ("all", "third", "sqrt")


@dataclass
class TreeParams:
    max_depth: int | None = None
    min_samples_split: int = 2
    max_features: str = "all"
    seed: int = 0

    def __post_init__(self):
        if self.max_depth is not None and self.max_depth < 1:
            raise DataError("max_depth must be None or >= 1")
        if self.min_samples_split < 2:
            raise DataError("min_samples_split must be >= 2")
        if self.max_features not in MAX_FEATURES_MODES:
            raise DataError(f"max_features must be one of {MAX_FEATURES_MODES}")


@dataclass
class TreeNode:
    prediction: float  # leaf mean; unused for routing on internal nodes
    n_samples: int
    feature_index: int | None = None
    threshold: float = 0.0
    impurity_decrease: float = 0.0
    left: "TreeNode | None" = field(default=None, repr=False)
    right: "TreeNode | None" = field(default=None, repr=False)

    @property
    def is_leaf(self):
        return self.feature_index is None


@dataclass
class ForestModel:
    trees: list
    params: TreeParams
    n_estimators: int
    n_features: int


@dataclass
class GbtModel:
    base_prediction: float
    stages: list
    learning_rate: float
    n_features: int


def as_matrix(X):
    if isinstance(X, FeatureMatrix):
        return X.values
    return np.asarray(X, dtype=float)


def _align(X, y):
    X = as_matrix(X)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise DataError(f"misaligned shapes X={X.shape} y={y.shape}")
    return X, y


def best_split(X, y, feature_subset=None):
    """Best (feature_index, threshold, impurity_decrease) or None.

    Evaluates every midpoint between consecutive distinct sorted values of
    each candidate feature and returns the split with the largest variance
    reduction, or None when no split strictly reduces variance.
    """
    X, y = _align(X, y)
    n = len(y)
    if n < 2 or float(y.max()) == float(y.min()):
        return None
    if feature_subset is None:
        cols = np.arange(X.shape[1])
    else:
        cols = np.sort(np.asarray(feature_subset, dtype=int))
    if len(cols) == 0:
        return None

    Xs = X[:, cols]
    order = np.argsort(Xs, axis=0, kind="stable")
    x_sorted = np.take_along_axis(Xs, order, axis=0)
    yc = y - y.mean()  # shift-invariant delta; centering tames the squares
    y_sorted = yc[order]

    prefix = np.cumsum(y_sorted, axis=0)
    total = prefix[-1, :]
    n_left = np.arange(1, n, dtype=float)[:, None]
    n_right = n - n_left
    mean_left = prefix[:-1, :] / n_left
    mean_right = (total[None, :] - prefix[:-1, :]) / n_right
    delta = (n_left * n_right) / float(n * n) * (mean_left - mean_right) ** 2
    # a boundary is a real candidate only where the feature value changes
    delta = np.where(x_sorted[1:, :] > x_sorted[:-1, :], delta, -1.0)

    # feature-major flatten: first argmax = lowest feature, then lowest threshold
    flat = delta.T.reshape(-1)
    best = int(np.argmax(flat))
    best_delta = float(flat[best])
    if best_delta <= 0.0:
        return None
    ci, pos = divmod(best, n - 1)
    lo = float(x_sorted[pos, ci])
    hi = float(x_sorted[pos + 1, ci])
    threshold = (lo + hi) / 2.0
    if not threshold < hi:  # adjacent floats: keep the right side non-empty
        threshold = lo
    return int(cols[ci]), threshold, best_delta


def _feature_subset(p, mode, rng):
    if mode == "all":
        return None
    if mode == "third":
        m = max(1, p // 3)
    else:  # sqrt
        m = max(1, int(math.sqrt(p)))
    return rng.choice(p, size=m, replace=False)


def _grow(X, y, params, depth, rng):
    n = len(y)
    if (
        (params.max_depth is not None and depth >= params.max_depth)
        or n < params.min_samples_split
    ):
        return TreeNode(prediction=float(y.mean()), n_samples=n)
    subset = _feature_subset(X.shape[1], params.max_features, rng)
    found = best_split(X, y, subset)
    if found is None:
        return TreeNode(prediction=float(y.mean()), n_samples=n)
    fi, threshold, decrease = found
    mask = X[:, fi] <= threshold
    left = _grow(X[mask], y[mask], params, depth + 1, rng)
    right = _grow(X[~mask], y[~mask], params, depth + 1, rng)
    return TreeNode(
        prediction=float(y.mean()),
        n_samples=n,
        feature_index=fi,
        threshold=threshold,
        impurity_decrease=decrease,
        left=left,
        right=right,
    )


def fit_decision_tree(X, y, params):
    """Greedy recursive CART fit; stops at max_depth, min_samples_split,
    or when no split reduces variance."""
    X, y = _align(X, y)
    if len(y) == 0:
        raise DataError("cannot fit a tree on zero rows")
    rng = np.random.default_rng(params.seed)
    return _grow(X, y, params, depth=0, rng=rng)


def fit_random_forest(X, y, params, n_estimators, bootstrap=True):
    """Bagged forest: each tree fits a bootstrap resample of size n.

    Per-tree randomness (bootstrap draw and per-node feature subsets) comes
    from a generator seeded with mix_seed(params.seed, tree_index), so the
    forest is reproducible no matter how trees are scheduled.
    ``bootstrap=False`` fits every tree on the identity sample (test hook).
    """
    X, y = _align(X, y)
    if n_estimators < 1:
        raise DataError("n_estimators must be >= 1")
    n = len(y)
    trees = []
    for t in range(n_estimators):
        rng = np.random.default_rng(mix_seed(params.seed, t))
        if bootstrap:
            idx = rng.integers(0, n, size=n)
            trees.append(_grow(X[idx], y[idx], params, depth=0, rng=rng))
        else:
            trees.append(_grow(X, y, params, depth=0, rng=rng))
    return ForestModel(trees=trees, params=params, n_estimators=n_estimators, n_features=X.shape[1])


def fit_gbt(X, y, rounds, learning_rate, tree_params):
    """Squared-error gradient boosting: base mean plus shrunken residual trees.

    rounds=0 is valid and yields the base-only model.
    """
    X, y = _align(X, y)
    if len(y) == 0:
        raise DataError("cannot fit on zero rows")
    if not 0.0 < learning_rate <= 1.0:
        raise DataError("learning rate must be in (0, 1]")
    if rounds < 0:
        raise DataError("rounds must be >= 0")
    base = float(y.mean())
    preds = np.full(len(y), base)
    stages = []
    for r in range(rounds):
        residual = y - preds
        rng = np.random.default_rng(mix_seed(tree_params.seed, r))
        stage = _grow(X, residual, tree_params, depth=0, rng=rng)
        preds = preds + learning_rate * predict_tree(stage, X)
        stages.append(stage)
    return GbtModel(
        base_prediction=base,
        stages=stages,
        learning_rate=learning_rate,
        n_features=X.shape[1],
    )


def walk_nodes(node):
    """Yield every node of a tree, parents before children."""
    stack = [node]
    while stack:
        nd = stack.pop()
        yield nd
        if not nd.is_leaf:
            stack.append(nd.right)
            stack.append(nd.left)


def _check_width(X, n_features, what):
    if X.shape[1] != n_features:
        raise DataError(f"{what} expects {n_features} features, got {X.shape[1]}")


def predict_tree(node, X):
    X = as_matrix(X)
    max_fi = max((nd.feature_index for nd in walk_nodes(node) if not nd.is_leaf), default=-1)
    if max_fi >= X.shape[1]:
        raise DataError(f"tree references feature {max_fi} but input has {X.shape[1]}")
    out = np.empty(X.shape[0])
    stack = [(node, np.arange(X.shape[0]))]
    while stack:
        nd, idx = stack.pop()
        if len(idx) == 0:
            continue
        if nd.is_leaf:
            out[idx] = nd.prediction
        else:
            mask = X[idx, nd.feature_index] <= nd.threshold
            stack.append((nd.left, idx[mask]))
            stack.append((nd.right, idx[~mask]))
    return out


def predict_forest(model, X):
    X = as_matrix(X)
    _check_width(X, model.n_features, "forest")
    acc = np.zeros(X.shape[0])
    for tree in model.trees:
        acc += predict_tree(tree, X)
    return acc / len(model.trees)


def predict_gbt(model, X):
    X = as_matrix(X)
    _check_width(X, model.n_features, "gbt")
    out = np.full(X.shape[0], model.base_prediction)
    for stage in model.stages:
        out += model.learning_rate * predict_tree(stage, X)
    return out


# --- JSON-friendly serialization -------------------------------------------

def tree_to_dict(node):
    if node.is_leaf:
        return {"prediction": node.prediction, "n": node.n_samples}
    return {
        "feature": node.feature_index,
        "threshold": node.threshold,
        "decrease": node.impurity_decrease,
        "n": node.n_samples,
        "prediction": node.prediction,
        "left": tree_to_dict(node.left),
        "right": tree_to_dict(node.right),
    }


def tree_from_dict(d):
    if "feature" not in d:
        return TreeNode(prediction=d["prediction"], n_samples=d["n"])
    return TreeNode(
        prediction=d["prediction"],
        n_samples=d["n"],
        feature_index=d["feature"],
        threshold=d["threshold"],
        impurity_decrease=d["decrease"],
        left=tree_from_dict(d["left"]),
        right=tree_from_dict(d["right"]),
    )


def forest_to_dict(model):
    return {
        "kind": "forest",
        "n_estimators": model.n_estimators,
        "n_features": model.n_features,
        "params": {
            "max_depth": model.params.max_depth,
            "min_samples_split": model.params.min_samples_split,
            "max_features": model.params.max_features,
            "seed": model.params.seed,
        },
        "trees": [tree_to_dict(t) for t in model.trees],
    }


def forest_from_dict(d):
    return ForestModel(
        trees=[tree_from_dict(t) for t in d["trees"]],
        params=TreeParams(**d["params"]),
        n_estimators=d["n_estimators"],
        n_features=d["n_features"],
    )


def gbt_to_dict(model):
    return {
        "kind": "gbt",
        "base_prediction": model.base_prediction,
        "learning_rate": model.learning_rate,
        "n_features": model.n_features,
        "stages": [tree_to_dict(t) for t in model.stages],
    }


def gbt_from_dict(d):
    return GbtModel(
        base_prediction=d["base_prediction"],
        stages=[tree_from_dict(t) for t in d["stages"]],
        learning_rate=d["learning_rate"],
        n_features=d["n_features"],
    )
