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

A LinearModel holds fitted state alone: the alpha and l1_ratio it was fit
with are its bundle member's params, which prediction does not read.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .util import finite_number, whole_number


@dataclass
class LinearModel:
    coefficients: np.ndarray
    intercept: float
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


def fit_linear(X, y, alpha, l1_ratio, tol, max_iter):
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
    The parameters are taken as given: families.resolve_params checks them
    and supplies their defaults.
    """
    X = np.asarray(X, dtype=float)
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
        converged=converged,
        n_iterations=sweeps,
    )


def predict_linear(model, X):
    X = np.asarray(X, dtype=float)
    if X.shape[1] != model.n_features:
        raise DataError(
            f"linear model expects {model.n_features} features, got {X.shape[1]}"
        )
    return model.intercept + X @ model.coefficients


def linear_to_dict(model):
    return {
        "coefficients": [float(c) for c in model.coefficients],
        "intercept": model.intercept,
        "converged": model.converged,
        "n_iterations": model.n_iterations,
    }


def linear_from_dict(d):
    """Decode a linear model's fitted state; coefficients that are not one
    list of finite numbers, a non-finite intercept, a ``converged`` that is
    not a bool or an ``n_iterations`` that is not an int >= 1 is a DataError."""
    coefficients = np.asarray(d["coefficients"], dtype=float)
    if coefficients.ndim != 1 or not np.isfinite(coefficients).all():
        raise DataError("linear coefficients must be a list of finite numbers")
    intercept = finite_number(d["intercept"], "linear intercept")
    if type(d["converged"]) is not bool:
        raise DataError(f"linear converged must be true or false, got {d['converged']!r}")
    n_iterations = whole_number(d["n_iterations"], "linear n_iterations", 1)
    return LinearModel(coefficients, intercept, d["converged"], n_iterations)
