"""Forecast error metrics, error buckets, and feature importance.

``metric_report`` gives a report's metrics for one set of views as the JSON
object they are written as; the pipeline's score_bundle is its one caller.
MAPE follows the exclude-and-count policy for zero targets: cold-start data
can legitimately contain zero-view rows, so those rows are dropped from the
mean and reported in ``n_excluded_zero_target`` instead of raising. When
every target is zero, ``mape`` raises, ``metric_report`` gives a null MAPE
and ``error_buckets`` five zero counts.
SMAPE uses the factor-2 numerator with |y| + |yhat| in the denominator
(range 0..200) and defines the both-zero term as 0.
"""

from dataclasses import dataclass

import numpy as np

from .data import FeatureMatrix
from .errors import DataError, UndefinedMetricError
from .trees import impurity_by_feature
from .util import mix_seed

BUCKET_EDGES = (10.0, 20.0, 30.0, 40.0)

# permutation_importance stacks shuffled copies of the matrix and predicts
# them together in chunks of at most this many rows (one copy per chunk when
# a copy alone is longer); the bound keeps a chunk's memory small
IMPORTANCE_CHUNK_ROWS = 4096

# feature j's repeat r shuffles with seed mix_seed(seed, j * 1000 + r); the
# bound keeps those seeds distinct, as a repeat 1000 would reuse feature j+1's
IMPORTANCE_MAX_REPEATS = 1000


@dataclass
class ErrorBuckets:
    edges: tuple
    counts: list  # 5 ints: <10, 10-20, 20-30, 30-40, >40 percent


@dataclass
class ImportanceReport:
    features: list  # list of (name, score, rank), rank 1 = most important
    degenerate: bool = False

    def rank_of(self, name):
        for fname, _, rank in self.features:
            if fname == name:
                return rank
        raise KeyError(name)

    def to_dict(self):
        return {
            "features": [
                {"name": n, "score": s, "rank": r} for n, s, r in self.features
            ],
            "degenerate": self.degenerate,
        }


def _aligned(y, yhat):
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.shape != yhat.shape or y.ndim != 1:
        raise DataError("metric inputs must be aligned 1-D vectors")
    return y, yhat


def mape(y, yhat):
    """Mean absolute percentage error over rows with nonzero target."""
    y, yhat = _aligned(y, yhat)
    mask = y != 0
    if not np.any(mask):
        raise UndefinedMetricError("MAPE undefined: all targets are zero")
    return 100.0 * float(np.mean(np.abs(y[mask] - yhat[mask]) / np.abs(y[mask])))


def mape_excluded_count(y):
    y = np.asarray(y, dtype=float)
    return int(np.sum(y == 0))


def smape(y, yhat):
    """Symmetric MAPE in [0, 200]; a term with both values zero counts as 0."""
    y, yhat = _aligned(y, yhat)
    denom = np.abs(y) + np.abs(yhat)
    terms = np.zeros_like(denom)
    nz = denom != 0
    terms[nz] = 2.0 * np.abs(y[nz] - yhat[nz]) / denom[nz]
    return 100.0 * float(np.mean(terms))


def r2(y, yhat):
    """Coefficient of determination, 1 - SS_res / SS_tot."""
    y, yhat = _aligned(y, yhat)
    if len(y) < 2:
        raise UndefinedMetricError("r2 needs at least 2 rows")
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0:
        raise UndefinedMetricError("r2 undefined for constant targets")
    ss_res = float(np.sum((y - yhat) ** 2))
    return 1.0 - ss_res / ss_tot


def pearson(a, b):
    """Sample Pearson correlation coefficient."""
    a, b = _aligned(a, b)
    if len(a) < 2:
        raise DataError("pearson needs at least 2 rows")
    ac = a - np.mean(a)
    bc = b - np.mean(b)
    va = float(np.sum(ac * ac))
    vb = float(np.sum(bc * bc))
    if va == 0 or vb == 0:
        raise DataError("pearson undefined: zero variance input")
    return float(np.sum(ac * bc)) / np.sqrt(va * vb)


def pearson_matrix(named_vectors):
    """Pairwise Pearson correlations for (name, vector) pairs.

    Pairs with a zero-variance side map to 0.0 (undefined) so heatmaps stay
    total; the diagonal is always exactly 1.0.
    """
    names = [n for n, _ in named_vectors]
    vectors = [np.asarray(v, dtype=float) for _, v in named_vectors]
    n = len(names)
    matrix = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            try:
                corr = pearson(vectors[i], vectors[j])
            except DataError:
                corr = 0.0
            matrix[i, j] = matrix[j, i] = corr
    return names, matrix


def metric_report(y, yhat):
    """MAPE, SMAPE and R2 with the zero-target bookkeeping, as a JSON object.

    ``mape`` is None where every target is zero, and ``r2`` where R2 is
    undefined (fewer than 2 rows, or constant targets), so that any
    non-empty set of episodes still gets a report.
    """
    y, yhat = _aligned(y, yhat)
    try:
        r2_value = r2(y, yhat)
    except DataError:
        r2_value = None
    return {
        "mape": mape(y, yhat) if np.any(y != 0) else None,
        "smape": smape(y, yhat),
        "r2": r2_value,
        "n_scored": int(np.sum(y != 0)),
        "n_excluded_zero_target": mape_excluded_count(y),
    }


def error_buckets(y, yhat):
    """Bin per-row absolute percentage errors at 10/20/30/40 percent.

    Bins are lower-inclusive: an error of exactly 10% lands in the 10-20
    bucket. Zero-target rows are excluded (they have no percentage error),
    so all-zero targets give five zero counts.
    """
    y, yhat = _aligned(y, yhat)
    mask = y != 0
    pct = 100.0 * np.abs(y[mask] - yhat[mask]) / np.abs(y[mask])
    bins = np.searchsorted(BUCKET_EDGES, pct, side="right")
    counts = np.bincount(bins, minlength=len(BUCKET_EDGES) + 1).tolist()
    return ErrorBuckets(edges=BUCKET_EDGES, counts=counts)


def _ranked(names, scores, degenerate=False):
    order = sorted(range(len(names)), key=lambda j: (-scores[j], j))
    ranks = [0] * len(names)
    for rank, j in enumerate(order, start=1):
        ranks[j] = rank
    feats = [(names[j], float(scores[j]), ranks[j]) for j in range(len(names))]
    return ImportanceReport(features=feats, degenerate=degenerate)


def permutation_importance(predict, X, y, metric="mape", repeats=5, seed=0, baseline=None):
    """Score each feature by the metric degradation when it is shuffled.

    ``predict`` maps a value matrix to predictions, row by row: the shuffled
    copies are stacked and predicted together, up to IMPORTANCE_CHUNK_ROWS
    rows per call. ``baseline`` is ``predict``'s output on X itself when the
    caller already has it; otherwise it is predicted here. Scores are
    oriented so that larger means more important regardless of whether the
    metric is an error (mape) or a score (r2).
    """
    if not 1 <= repeats <= IMPORTANCE_MAX_REPEATS:
        raise DataError(f"repeats must be in 1..{IMPORTANCE_MAX_REPEATS}, got {repeats}")
    if isinstance(X, FeatureMatrix):
        values, names = X.values, list(X.feature_names)
    else:
        values = np.asarray(X, dtype=float)
        names = [f"f{j}" for j in range(values.shape[1])]
    y = np.asarray(y, dtype=float)

    if metric == "mape":
        def score(yy, pp):
            return mape(yy, pp)
        sign = 1.0  # error metric: degradation = increase
    elif metric == "r2":
        def score(yy, pp):
            return r2(yy, pp)
        sign = -1.0  # score metric: degradation = decrease
    else:
        raise DataError(f"unsupported importance metric {metric!r}")

    base_score = score(y, predict(values) if baseline is None else baseline)
    n, p = values.shape
    # one shuffle per (feature, repeat), each from its own seeded generator
    draws = [(j, rep) for j in range(p) for rep in range(repeats)]
    per_chunk = max(1, IMPORTANCE_CHUNK_ROWS // n)
    deltas = np.empty(len(draws))
    for start in range(0, len(draws), per_chunk):
        chunk = draws[start : start + per_chunk]
        stacked = np.empty((len(chunk), n, p))
        stacked[:] = values
        for copy, (j, rep) in zip(stacked, chunk):
            rng = np.random.default_rng(mix_seed(seed, j * 1000 + rep))
            copy[:, j] = rng.permutation(values[:, j])
        preds = predict(stacked.reshape(-1, p)).reshape(len(chunk), n)
        for i, pred in enumerate(preds):
            deltas[start + i] = sign * (score(y, pred) - base_score)
    scores = [float(np.mean(d)) for d in deltas.reshape(p, repeats)]
    return _ranked(names, scores)


def impurity_importance(trees, feature_names):
    """Variance-reduction importance summed over every split, normalized to 1.

    Regression analog of Gini importance: each internal node of the fitted
    ``trees`` of one model contributes n_samples * impurity_decrease to the
    feature it splits on; forests and boosted models sum across their trees.
    """
    scores = impurity_by_feature(trees, len(feature_names))
    total = float(scores.sum())
    if total <= 0:
        return _ranked(list(feature_names), scores, degenerate=True)
    return _ranked(list(feature_names), scores / total)
