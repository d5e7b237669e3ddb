"""Registry mapping the six model family names onto fit/predict/serialize.

Families: decision_tree, random_forest, gbt (squared-error gradient
boosting), lasso, ridge, elastic_net. Forest defaults pin the documented
production configuration (1000 trees, min split 30, depth 30); gbt defaults
pin learning rate 0.5.

A family is searched by k-fold CV unless its entry has an ``oob``: the
random forest is scored out of bag, one fit per group of candidates that
differ in ``n_estimators`` alone (see tuning). Every search ranks its
candidates by one criterion, MAPE on views, as the holdout is scored.

DOMAINS holds the one rule for each parameter's values; resolve_params, the
one place that applies it, checks every fit, grid value and bundle member.
A bundle member's ``params`` are the one stored copy of its parameters: a
model dict holds fitted state alone, and from_dict takes from them the one
value prediction reads, a gbt's learning rate, and the tree count a tree
model's block must hold: ``n_estimators`` for a forest, ``rounds`` for gbt
and 1 for a decision tree, which is a forest of one. A linear model holds
no parameter, since prediction reads none. Every tree family's model is a
trees.ForestModel, a gbt's with a learning rate.
"""

import math
import sys
from collections import namedtuple

from . import linear, trees
from .errors import DataError

# fit(resolved params, X, y, seed) -> model; predict(model, X) -> predictions;
# to_dict(model) -> the model's fitted state as bundle JSON, and
# from_dict(model dict, resolved params) -> the model;
# trees(model) -> the model's list of trees.Tree, None for a non-tree family;
# oob: an Oob for a family searched out of bag, None for one searched by CV
Family = namedtuple("Family", "fit predict to_dict from_dict trees oob")

# size names the parameter whose smaller values are prefixes of one fit:
# candidates that differ in it alone share the fit at their largest value.
# prefixes(model, X, seed, sizes) -> for each of the ascending sizes, the
# model of that size and its out-of-bag (predictions, scored-row mask) on
# the training matrix X that the model was fit on with seed
Oob = namedtuple("Oob", "size prefixes")


_TREE_PARAMS = ("max_depth", "min_samples_split", "max_features")


def _tree_params(p, seed):
    return trees.TreeParams(**{name: p[name] for name in _TREE_PARAMS}, seed=seed)


# lasso, ridge and elastic net share one entry and differ in their default
# l1_ratio only
_LINEAR = Family(
    fit=lambda p, X, y, seed: linear.fit_linear(
        X, y, alpha=p["alpha"], l1_ratio=p["l1_ratio"], tol=p["tol"], max_iter=p["max_iter"]
    ),
    predict=lambda model, X: linear.predict_linear(model, X),
    to_dict=linear.linear_to_dict,
    from_dict=lambda d, p: linear.linear_from_dict(d),
    trees=None,
    oob=None,
)

# the three tree families share one entry and differ in fit and from_dict
_TREE = Family(
    fit=None,
    predict=lambda model, X: trees.predict_forest(model, X),
    to_dict=trees.forest_to_dict,
    from_dict=None,
    trees=lambda model: model.trees,
    oob=None,
)

# Entries look fit and predict functions up through their module at call
# time, so a wrapper patched onto trees or linear sees every call.
FAMILY_TABLE = {
    "decision_tree": _TREE._replace(
        fit=lambda p, X, y, seed: trees.ForestModel(
            trees=[trees.fit_decision_tree(X, y, _tree_params(p, seed))], n_features=len(X[0])
        ),
        from_dict=lambda d, p: trees.forest_from_dict(d, 1),
    ),
    "random_forest": _TREE._replace(
        fit=lambda p, X, y, seed: trees.fit_random_forest(
            X, y, _tree_params(p, seed), n_estimators=p["n_estimators"]
        ),
        from_dict=lambda d, p: trees.forest_from_dict(d, p["n_estimators"]),
        oob=Oob(
            size="n_estimators",
            prefixes=lambda model, X, seed, sizes: trees.forest_oob(model, X, seed, sizes),
        ),
    ),
    "gbt": _TREE._replace(
        fit=lambda p, X, y, seed: trees.fit_gbt(
            X, y, rounds=p["rounds"], learning_rate=p["learning_rate"], tree_params=_tree_params(p, seed)
        ),
        from_dict=lambda d, p: trees.forest_from_dict(d, p["rounds"], p["learning_rate"]),
    ),
    "lasso": _LINEAR,
    "ridge": _LINEAR,
    "elastic_net": _LINEAR,
}

FAMILIES = tuple(FAMILY_TABLE)

# the values each parameter may take, as (the rule in words, its test): one
# rule per name, since a name means the same thing in every family that has
# it. Numbers are tested by exact type, so a bool is neither an int nor a
# float; a range test is false for NaN, and its upper bound keeps out
# infinity and any int too large for a float. The sizes that set a fit's
# work are capped well above their defaults, so no fit runs without end.
DOMAINS = {
    "max_depth": ("None or an int >= 1", lambda v: v is None or type(v) is int and v >= 1),
    "min_samples_split": ("an int >= 2", lambda v: type(v) is int and v >= 2),
    "max_features": (f"one of {trees.MAX_FEATURES_MODES}", lambda v: v in trees.MAX_FEATURES_MODES),
    "n_estimators": ("an int in [1, 10000]", lambda v: type(v) is int and 1 <= v <= 10_000),
    "rounds": ("an int in [0, 10000]", lambda v: type(v) is int and 0 <= v <= 10_000),
    "learning_rate": ("a finite number in (0, 1]", lambda v: type(v) in (int, float) and 0 < v <= 1),
    "alpha": ("a finite number >= 0", lambda v: type(v) in (int, float) and 0 <= v <= sys.float_info.max),
    "l1_ratio": ("a finite number in [0, 1]", lambda v: type(v) in (int, float) and 0 <= v <= 1),
    "tol": ("a finite number > 0", lambda v: type(v) in (int, float) and 0 < v <= sys.float_info.max),
    "max_iter": ("an int in [1, 100000]", lambda v: type(v) is int and 1 <= v <= 100_000),
}

# every parameter a family's fit reads, at its default; a params dict or
# grid may name these and no others
DEFAULT_PARAMS = {
    "decision_tree": {"max_depth": None, "min_samples_split": 30, "max_features": "all"},
    "random_forest": {"n_estimators": 1000, "min_samples_split": 30, "max_depth": 30, "max_features": "third"},
    "gbt": {"rounds": 100, "max_depth": 3, "learning_rate": 0.5, "min_samples_split": 2, "max_features": "all"},
    "lasso": {"alpha": 1.0, "l1_ratio": 1.0, "tol": 1e-6, "max_iter": 10000},
    "ridge": {"alpha": 1.0, "l1_ratio": 0.0, "tol": 1e-6, "max_iter": 10000},
    "elastic_net": {"alpha": 1.0, "l1_ratio": 0.5, "tol": 1e-6, "max_iter": 10000},
}

# the most assignments a grid may have; the largest default grid has 27
MAX_GRID_ASSIGNMENTS = 10_000

_ALPHAS = [0.001, 0.01, 0.1, 1.0, 10.0, 100.0]

DEFAULT_GRIDS = {
    "gbt": {"rounds": [50, 100, 200], "max_depth": [2, 3, 4], "learning_rate": [0.1, 0.3, 0.5]},
    "random_forest": {
        "n_estimators": [200, 500, 1000],
        "min_samples_split": [2, 10, 30],
        "max_depth": [10, 30, None],
    },
    "decision_tree": {"max_depth": [3, 5, 10, None], "min_samples_split": [2, 10, 30]},
    "lasso": {"alpha": list(_ALPHAS)},
    "ridge": {"alpha": list(_ALPHAS)},
    "elastic_net": {"alpha": list(_ALPHAS)},
}

def check_family(family):
    """The family's table entry; DataError for an unknown name."""
    if family not in FAMILY_TABLE:
        raise DataError(f"unknown model family {family!r}; expected one of {FAMILIES}")
    return FAMILY_TABLE[family]


def resolve_params(family, params=None):
    """The family's defaults overridden by ``params``; DataError for an
    unknown family, a parameter name the family does not have, or a value
    outside its parameter's domain."""
    check_family(family)
    defaults = DEFAULT_PARAMS[family]
    params = params or {}
    unknown = [name for name in params if name not in defaults]
    if unknown:
        raise DataError(f"unknown {family} parameters {unknown}; expected some of {list(defaults)}")
    for name, value in params.items():
        rule, ok = DOMAINS[name]
        if not ok(value):
            raise DataError(f"{family} parameter {name!r} must be {rule}, got {value!r}")
    return {**defaults, **params}


def check_grid(family, grid):
    """DataError unless ``grid`` has at most MAX_GRID_ASSIGNMENTS assignments,
    each value list is non-empty, each value passes resolve_params (a
    parameter of the family, in its domain) and none equals an earlier one
    of its list. An empty grid is one assignment, the family's defaults."""
    check_family(family)
    count = math.prod(len(values) for values in grid.values())
    if count > MAX_GRID_ASSIGNMENTS:
        raise DataError(f"{family} grid has {count} assignments, more than the {MAX_GRID_ASSIGNMENTS} allowed")
    for name, values in grid.items():
        if not values:
            raise DataError(f"{family} parameter {name!r} has no candidate values, got {values!r}")
        seen = set()  # a value in its domain is hashable, and 1 == 1.0 share a hash
        for value in values:
            resolve_params(family, {name: value})
            if value in seen:
                raise DataError(f"{family} parameter {name!r} repeats {value!r}")
            seen.add(value)


def fit_family(family, params, X, y, seed=0):
    """Fit one model of the given family; params override family defaults."""
    return check_family(family).fit(resolve_params(family, params), X, y, seed)


def predict_family(family, model, X):
    return check_family(family).predict(model, X)
