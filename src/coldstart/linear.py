"""Regularized linear regression via cyclic coordinate descent.

One solver covers OLS, ridge, lasso, and elastic net through the objective

    (1/2n) ||y - b0 - X b||^2  +  alpha * l1_ratio * ||b||_1
                              +  (alpha * (1 - l1_ratio) / 2) * ||b||_2^2

with the intercept never regularized. The 1/(2n) scaling makes the lasso
shutdown threshold exactly max_j |X_j^T (y - ybar)| / n.

The sweep uses covariance updates (Friedman, Hastie & Tibshirani 2010, JSS
33(1)): the Gram matrix X^T X / n and the column means are computed once, and
the solver tracks X^T r / n and mean(r) instead of the n-vector residual r, so
a coordinate step costs O(p) rather than O(n). The stopping rule is relative:
a fit has converged once no sweep moves the intercept or any coefficient by
more than tol times the largest of |intercept| and |beta_j|, so the same tol
serves targets near 1 and raw view counts near 10^6.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .trees import as_matrix
from .util import finite_number


@dataclass
class LinearModel:
    coefficients: np.ndarray
    intercept: float
    alpha: float
    l1_ratio: float
    converged: bool
    n_iterations: int

    @property
    def n_features(self):
        return len(self.coefficients)


def soft_threshold(z, gamma):
    """sign(z) * max(|z| - gamma, 0)."""
    if gamma < 0:
        raise DataError("soft threshold needs gamma >= 0")
    if z > gamma:
        return z - gamma
    if z < -gamma:
        return z + gamma
    return 0.0


def objective(X, y, beta, intercept, alpha, l1_ratio):
    """The penalized least-squares objective minimized by fit_linear."""
    X = as_matrix(X)
    r = y - intercept - X @ beta
    return (
        float(r @ r) / (2 * len(y))
        + alpha * l1_ratio * float(np.sum(np.abs(beta)))
        + alpha * (1.0 - l1_ratio) / 2.0 * float(beta @ beta)
    )


def fit_linear(X, y, alpha, l1_ratio, tol=1e-6, max_iter=10000):
    """Cyclic coordinate descent fit with covariance (Gram) updates.

    Each sweep updates the intercept to the mean residual, then exactly
    minimizes the objective one coordinate at a time. The residual r is
    never formed: the sweep keeps xr = X^T r / n and mean(r), and a step of
    size d on coordinate j subtracts gram[j] * d and x_mean[j] * d from them.

    Converged when the largest change in a sweep, over the intercept shift
    and every coefficient, is at most ``tol * max(|intercept|, max_j |beta_j|)``
    (an all-zero fit therefore stops at once). Hitting ``max_iter`` flags
    converged=False and emits a warning instead of raising. The fit is
    deterministic, so ``max_iter=k`` gives the state after k sweeps.
    The parameters are taken as given: families.resolve_params checks them.
    """
    X = as_matrix(X)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != len(y):
        raise DataError(f"misaligned shapes X={X.shape} y={y.shape}")
    if len(y) < 1:
        raise DataError("need at least one row")

    n, p = X.shape
    gram = X.T @ X / n
    x_mean = X.mean(axis=0)
    # per-coordinate scalars as Python floats: the same doubles, without numpy's cost per scalar call
    col_sq, means = gram.diagonal().tolist(), x_mean.tolist()
    signal = [j for j in range(p) if col_sq[j] != 0.0]  # a constant-zero column carries none
    l1 = alpha * l1_ratio
    l2 = alpha * (1.0 - l1_ratio)

    beta = [0.0] * p
    intercept = 0.0
    # X^T r / n and mean(r) for r = y - intercept - X @ beta, kept incrementally
    xr = X.T @ y / n
    r_mean = float(y.mean())

    converged = False
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        shift = r_mean
        intercept += shift
        xr -= shift * x_mean
        r_mean = 0.0
        max_change = abs(shift)

        for j in signal:
            old = beta[j]
            new = soft_threshold(xr.item(j) + col_sq[j] * old, l1) / (col_sq[j] + l2)
            if new != old:
                delta = new - old
                xr -= gram[j] * delta
                r_mean -= means[j] * delta
                beta[j] = new
                max_change = max(max_change, abs(delta))

        if max_change <= tol * max(abs(intercept), max(map(abs, beta), default=0.0)):
            converged = True
            break

    if not converged:
        warnings.warn(
            f"linear fit (alpha={alpha}, l1_ratio={l1_ratio}) did not converge "
            f"in {sweeps} sweeps"
        )

    return LinearModel(
        coefficients=np.array(beta),
        intercept=intercept,
        alpha=float(alpha),
        l1_ratio=float(l1_ratio),
        converged=converged,
        n_iterations=sweeps,
    )


def predict_linear(model, X):
    X = as_matrix(X)
    if X.shape[1] != model.n_features:
        raise DataError(
            f"linear model expects {model.n_features} features, got {X.shape[1]}"
        )
    return model.intercept + X @ model.coefficients


def kkt_residuals(model, X, y):
    """Stationarity residuals of a fitted model.

    Returns (zero_excess, active_residual):
      zero_excess    = max over beta_j == 0 of |g_j| - alpha*l1_ratio (or 0)
      active_residual = max over beta_j != 0 of |g_j + alpha*l1_ratio*sign(beta_j)|
    where g_j = -X_j^T (y - yhat)/n + alpha*(1-l1_ratio)*beta_j. Both are ~0
    at an exact optimum.
    """
    X = as_matrix(X)
    y = np.asarray(y, dtype=float)
    n = len(y)
    r = y - predict_linear(model, X)
    g = -(X.T @ r) / n + model.alpha * (1.0 - model.l1_ratio) * model.coefficients
    l1 = model.alpha * model.l1_ratio

    zero = model.coefficients == 0.0
    zero_excess = np.max(np.abs(g[zero]) - l1, initial=0.0)
    active_residual = np.max(np.abs(g[~zero] + l1 * np.sign(model.coefficients[~zero])), initial=0.0)
    return float(zero_excess), float(active_residual)


def linear_to_dict(model):
    return {
        "coefficients": [float(c) for c in model.coefficients],
        "intercept": model.intercept,
        "converged": model.converged,
        "n_iterations": model.n_iterations,
    }


def linear_from_dict(d, alpha, l1_ratio):
    """Decode a linear model's fitted state; a non-finite coefficient or
    intercept is a DataError. ``alpha`` and ``l1_ratio`` come from the
    member's params, which families.resolve_params has checked."""
    coefficients = np.asarray(d["coefficients"], dtype=float)
    if not np.isfinite(coefficients).all():
        raise DataError("linear coefficients must be finite numbers")
    return LinearModel(
        coefficients=coefficients,
        intercept=finite_number(d["intercept"], "linear intercept"),
        alpha=alpha,
        l1_ratio=l1_ratio,
        converged=d["converged"],
        n_iterations=d["n_iterations"],
    )
