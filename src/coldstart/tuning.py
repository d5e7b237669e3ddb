"""k-fold cross-validation and seeded randomized hyperparameter search.

Search candidates are drawn without replacement from the grid's cartesian
product; every evaluation seed derives deterministically from the search
seed, so identical inputs always reproduce the same candidate sequence,
fold scores, and winner. The search takes the matrices of fold_matrices,
which fits the preprocessor inside each fold's training complement, so no
statistics leak across folds. run_train builds them once per train, so
every candidate of every family is scored on the same folds.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import families, metrics
from .errors import DataError
from .preprocess import fit_preprocessor, transform
from .util import mix_seed


@dataclass
class FoldPlan:
    k: int
    assignments: np.ndarray  # row index -> fold id

    def test_indices(self, fold):
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold):
        return np.flatnonzero(self.assignments != fold)


@dataclass
class SearchResult:
    candidates: list  # dicts: params, fold_scores, mean_score
    best_index: int
    scoring: str
    seed: int

    @property
    def best_params(self):
        return self.candidates[self.best_index]["params"]

    def to_dict(self):
        return {
            "candidates": [
                {
                    "params": c["params"],
                    "fold_scores": list(c["fold_scores"]),
                    "mean_score": c["mean_score"],
                }
                for c in self.candidates
            ],
            "best_index": self.best_index,
            "scoring": self.scoring,
            "seed": self.seed,
        }


def kfold_indices(n, k, seed):
    """Seeded shuffle then contiguous chunking; fold sizes differ by <= 1."""
    if k < 2:
        raise DataError(f"k must be >= 2, got {k}")
    if k > n:
        raise DataError(f"k={k} exceeds row count n={n}")
    order = np.random.default_rng(seed).permutation(n)
    assignments = np.empty(n, dtype=int)
    base, extra = divmod(n, k)
    start = 0
    for fold in range(k):
        size = base + (1 if fold < extra else 0)
        assignments[order[start : start + size]] = fold
        start += size
    return FoldPlan(k=k, assignments=assignments)


def score_predictions(scoring, y, yhat):
    if scoring == "r2":
        return metrics.r2(y, yhat)
    if scoring == "neg_mape":
        return -metrics.mape(y, yhat)
    raise DataError(f"unknown scoring {scoring!r}")


def fold_matrices(table, y, plan):
    """Per-fold (X_tr, y_tr, X_te, y_te, prep) for a RawTable and fold plan.

    Each fold's preprocessor is fit on its training complement only and
    returned, so leakage checks can inspect its statistics.
    """
    y = np.asarray(y, dtype=float)
    if table.n_rows != len(y) or len(y) != len(plan.assignments):
        raise DataError("fold plan does not cover the data")
    folds = []
    for fold in range(plan.k):
        tr = plan.train_indices(fold)
        te = plan.test_indices(fold)
        if len(tr) == 0:
            raise DataError(f"fold {fold} has an empty training complement")
        train_rows = table.take_rows(tr.tolist())
        prep = fit_preprocessor(train_rows)
        X_tr = transform(prep, train_rows).values
        X_te = transform(prep, table.take_rows(te.tolist())).values
        folds.append((X_tr, y[tr], X_te, y[te], prep))
    return folds


def cross_validate(family, params, folds, scoring, seed=0):
    """Per-fold scores for one candidate over the matrices of fold_matrices."""
    scores = []
    for fold, (X_tr, y_tr, X_te, y_te, _) in enumerate(folds):
        model = families.fit_family(family, params, X_tr, y_tr, seed=mix_seed(seed, fold))
        yhat = families.predict_family(family, model, X_te)
        scores.append(score_predictions(scoring, y_te, yhat))
    return scores


def cross_validate_pipeline(family, params, table, y, plan, scoring, seed=0):
    """Scores for one candidate with preprocessing fit inside each fold.

    Returns (scores, fold_preprocessors).
    """
    folds = fold_matrices(table, y, plan)
    return cross_validate(family, params, folds, scoring, seed), [f[4] for f in folds]


def enumerate_grid(grid):
    """Cartesian product of a param grid, in deterministic order."""
    if not grid:
        raise DataError("empty parameter grid")
    names = sorted(grid)
    combos = []
    for values in itertools.product(*(grid[name] for name in names)):
        combos.append(dict(zip(names, values)))
    return combos


def randomized_search(family, grid, n_iter, folds, seed, scoring=None):
    """Sample up to n_iter distinct grid assignments and rank them by CV score.

    ``folds`` are the matrices of fold_matrices, built once per train and
    shared by every candidate. ``seed`` drives the candidate draw and the
    fit seeds. Ties in mean score go to the earliest sampled candidate.
    """
    if n_iter < 1:
        raise DataError("n_iter must be >= 1")
    families.check_grid(family, grid)
    if scoring is None:
        scoring = families.DEFAULT_SCORING[family]

    combos = enumerate_grid(grid)
    m = min(n_iter, len(combos))
    order = np.random.default_rng(seed).permutation(len(combos))[:m]

    candidates = []
    for i, combo_idx in enumerate(order):
        params = combos[int(combo_idx)]
        fold_scores = cross_validate(family, params, folds, scoring, seed=mix_seed(seed, i))
        candidates.append(
            {
                "params": params,
                "fold_scores": [float(s) for s in fold_scores],
                "mean_score": float(np.mean(fold_scores)),
            }
        )

    best_index = 0
    for i, c in enumerate(candidates):
        if c["mean_score"] > candidates[best_index]["mean_score"]:
            best_index = i
    return SearchResult(candidates=candidates, best_index=best_index, scoring=scoring, seed=seed)
