"""Optimality oracles for coldstart.linear.fit_linear, shared by the tests."""

import numpy as np

from coldstart.linear import predict_linear


def objective(X, y, beta, intercept, alpha, l1_ratio):
    """The penalized least-squares objective minimized by fit_linear."""
    X = np.asarray(X, dtype=float)
    r = y - intercept - X @ beta
    return (
        float(r @ r) / (2 * len(y))
        + alpha * l1_ratio * float(np.sum(np.abs(beta)))
        + alpha * (1.0 - l1_ratio) / 2.0 * float(beta @ beta)
    )


def kkt_residuals(model, X, y, alpha, l1_ratio):
    """Stationarity residuals of a model fitted with ``alpha`` and ``l1_ratio``.

    Returns (zero_excess, active_residual):
      zero_excess    = max over beta_j == 0 of |g_j| - alpha*l1_ratio (or 0)
      active_residual = max over beta_j != 0 of |g_j + alpha*l1_ratio*sign(beta_j)|
    where g_j = -X_j^T (y - yhat)/n + alpha*(1-l1_ratio)*beta_j. Both are ~0
    at an exact optimum.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    r = y - predict_linear(model, X)
    g = -(X.T @ r) / n + alpha * (1.0 - l1_ratio) * model.coefficients
    l1 = alpha * l1_ratio

    zero = model.coefficients == 0.0
    zero_excess = np.max(np.abs(g[zero]) - l1, initial=0.0)
    active_residual = np.max(np.abs(g[~zero] + l1 * np.sign(model.coefficients[~zero])), initial=0.0)
    return float(zero_excess), float(active_residual)
