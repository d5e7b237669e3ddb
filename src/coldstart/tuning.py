"""k-fold cross-validation, out-of-bag scoring and seeded randomized
hyperparameter search.

Search candidates are drawn without replacement from the grid's cartesian
product and ranked, in every family, by -MAPE of their clamped view
predictions against the stored views, as the holdout is scored. Every seed
derives from the search seed, so identical inputs reproduce the candidates,
scores and winner. Every search returns its member's model: the winner
fitted on the whole training matrix with the member's fit seed.

A fold plan is the fold id of each training row, as kfold_indices returns
it. A family searched by CV is scored on the matrices of fold_matrices,
which fits the preprocessor inside each fold's training complement, so no
statistics leak across folds. run_train builds them once per train, so
every candidate of these families is scored on the same folds.

A family whose table entry has an ``oob`` (the random forest) is scored
out of bag instead (Breiman 2001, "Random forests", Machine Learning 45):
on the whole training matrix, with the seed of the member's fit, so every
candidate sees the same bootstrap draws. Candidates that differ only in the
entry's size parameter share one fit at their largest size; a smaller size
is scored from the running out-of-bag sums of that fit's first trees, which
are its own forest bit for bit, and the winner's prefix is the member
model, with no refit. The out-of-bag rows share the full-training
preprocessor rather than one fitted without them. Trees read only the order
within a column, so the one statistic that can leak into a score is the
median that fills a missing number; acceptance check A9 covers the fold
preprocessors, not this path.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import families, metrics
from .ensemble import fit_targets, predicted_views
from .errors import DataError, UndefinedMetricError
from .preprocess import fit_preprocessor, transform
from .util import mix_seed


@dataclass
class SearchResult:
    candidates: list  # dicts as reported: params, fold_scores (cv) or oob_rows (oob), mean_score
    best_index: int
    seed: int
    model: object  # the winner fitted on the whole training matrix: the member's model
    method: str = "cv"  # "cv" or "oob"

    @property
    def best_params(self):
        return self.candidates[self.best_index]["params"]

    def to_dict(self):
        method = {} if self.method == "cv" else {"method": self.method}
        return {
            **method,
            "candidates": [dict(c) for c in self.candidates],
            "best_index": self.best_index,
            "seed": self.seed,
        }


def kfold_indices(n, k, seed):
    """The fold plan: the fold id in 0..k-1 of each of n rows, from a seeded
    shuffle cut into k contiguous chunks, so fold sizes differ by <= 1."""
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
    return assignments


def score_predictions(y, raw, mode):
    """A search score: -MAPE in percent of raw predictions under ``mode``, as clamped views, against views y."""
    return -metrics.mape(y, predicted_views(raw, mode)[0])


def fold_matrices(table, y, plan):
    """Per-fold (X_tr, y_tr, X_te, y_te, prep) for a RawTable, its views y
    and a fold plan, the fold id of each row as kfold_indices returns it.

    Each fold's preprocessor is fit on its training complement only and
    returned, so leakage checks can inspect its statistics.
    """
    y = np.asarray(y, dtype=float)
    if table.n_rows != len(y) or len(y) != len(plan):
        raise DataError("fold plan does not cover the data")
    folds = []
    for fold in range(int(plan.max()) + 1):
        tr = np.flatnonzero(plan != fold)
        te = np.flatnonzero(plan == fold)
        if len(tr) == 0:
            raise DataError(f"fold {fold} has an empty training complement")
        train_rows = table.take_rows(tr.tolist())
        prep = fit_preprocessor(train_rows)
        X_tr = transform(prep, train_rows).values
        X_te = transform(prep, table.take_rows(te.tolist())).values
        folds.append((X_tr, y[tr], X_te, y[te], prep))
    return folds


def cross_validate(family, params, folds, mode, seed=0):
    """Per-fold scores for one candidate over the matrices of fold_matrices, each fit under ``mode``."""
    scores = []
    for fold, (X_tr, y_tr, X_te, y_te, _) in enumerate(folds):
        model = families.fit_family(family, params, X_tr, fit_targets(y_tr, mode), seed=mix_seed(seed, fold))
        scores.append(score_predictions(y_te, families.predict_family(family, model, X_te), mode))
    return scores


def cross_validate_pipeline(family, params, table, y, plan, mode, seed=0):
    """Scores for one candidate with preprocessing fit inside each fold.

    Returns (scores, fold_preprocessors).
    """
    folds = fold_matrices(table, y, plan)
    return cross_validate(family, params, folds, mode, seed), [f[4] for f in folds]


def enumerate_grid(grid):
    """Cartesian product of a param grid, in deterministic order; the empty
    grid is one empty assignment, the family's defaults."""
    names = sorted(grid)
    return [dict(zip(names, values)) for values in itertools.product(*(grid[name] for name in names))]


def _rank(score, index):
    """A candidate's place in the search: the highest score first, ties to
    the earliest sampled candidate."""
    return -score, index


def randomized_search(family, grid, n_iter, folds, seed, train):
    """Sample up to n_iter distinct grid assignments, rank them by score and
    fit the winner as the member's model.

    ``train`` is the tuple (X, y, mode, fit_seed) of the member's fit: the
    full training matrix, its views, the target transform and the seed. A
    family whose table entry has no ``oob`` is scored by CV on ``folds``,
    the matrices of fold_matrices, built once per train and shared by every
    candidate, and its winner is then fit on ``train``. A family with one is
    scored out of bag on ``train``, and the winner's model is a prefix of a
    fit made there. ``seed`` drives the candidate draw and the CV fit seeds.
    Candidates are scored by score_predictions under ``mode``; ties in score
    go to the earliest sampled candidate.
    """
    if n_iter < 1:
        raise DataError("n_iter must be >= 1")
    entry = families.check_family(family)
    families.check_grid(family, grid)

    combos = enumerate_grid(grid)
    m = min(n_iter, len(combos))
    drawn = [combos[int(c)] for c in np.random.default_rng(seed).permutation(len(combos))[:m]]
    if entry.oob is not None:
        candidates, best_index, model = _oob_search(family, entry.oob, drawn, train)
        return SearchResult(candidates, best_index, seed, model, method="oob")

    X, y, mode, fit_seed = train
    candidates = []
    for i, params in enumerate(drawn):
        fold_scores = [float(s) for s in cross_validate(family, params, folds, mode, seed=mix_seed(seed, i))]
        candidates.append({"params": params, "fold_scores": fold_scores, "mean_score": float(np.mean(fold_scores))})
    best_index = min(range(m), key=lambda i: _rank(candidates[i]["mean_score"], i))
    model = families.fit_family(family, drawn[best_index], X, fit_targets(y, mode), seed=fit_seed)
    return SearchResult(candidates, best_index, seed, model)


def _oob_search(family, oob, drawn, train):
    """Score the drawn candidates out of bag on ``train`` = (X, y, mode, fit_seed).

    Candidates that differ only in ``oob.size`` form a group, fit once with
    fit_seed at the group's largest size; each candidate is scored on the
    out-of-bag predictions of its size's prefix of that fit, over the rows
    that prefix scores. Every candidate therefore sees the same bootstrap
    draws, and the winner's prefix is the model the member would be refit
    as. Returns (candidates, best_index, winner's model).
    """
    X, y, mode, fit_seed = train
    sizes = [families.resolve_params(family, params)[oob.size] for params in drawn]
    groups = {}
    for i, params in enumerate(drawn):
        rest = tuple(sorted((name, v) for name, v in params.items() if name != oob.size))
        groups.setdefault(rest, []).append(i)
    candidates = [None] * len(drawn)
    best, model = None, None
    for rest, members in groups.items():
        group_sizes = sorted({sizes[i] for i in members})
        fitted = families.fit_family(family, {**dict(rest), oob.size: group_sizes[-1]}, X, fit_targets(y, mode), seed=fit_seed)
        for size, (prefix, prediction, scored) in zip(group_sizes, oob.prefixes(fitted, X, fit_seed, group_sizes)):
            if not scored.any():
                raise UndefinedMetricError(f"no training row is out of bag at {oob.size}={size}")
            score = float(score_predictions(y[scored], prediction[scored], mode))
            for i in members:
                if sizes[i] == size:
                    candidates[i] = {"params": drawn[i], "oob_rows": int(np.count_nonzero(scored)), "mean_score": score}
                    if best is None or _rank(score, i) < best:
                        best, model = _rank(score, i), prefix
        del fitted, prefix  # free this group's fit before the next one; the best prefix stays in model
    return candidates, best[1], model
