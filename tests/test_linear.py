import warnings

import numpy as np
import pytest

from coldstart.errors import DataError
from coldstart.families import DEFAULT_GRIDS, DEFAULT_PARAMS, fit_family
from coldstart.linear import (
    fit_linear,
    kkt_residuals,
    linear_from_dict,
    linear_to_dict,
    objective,
    predict_linear,
    soft_threshold,
)


def standardize(X):
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd == 0] = 1.0
    return (X - mu) / sd


def ridge_closed_form(X, y, alpha):
    """Independent oracle on standardized X: solve (X'X/n + aI) b = X'(y-ybar)/n."""
    n, p = X.shape
    beta = np.linalg.solve(X.T @ X / n + alpha * np.eye(p), X.T @ (y - y.mean()) / n)
    return beta, float(y.mean())


def test_soft_threshold_cases():
    assert soft_threshold(3.0, 1.0) == 2.0
    assert soft_threshold(-0.5, 1.0) == 0.0
    assert soft_threshold(-3.0, 1.0) == -2.0
    for z in np.linspace(-4, 4, 17):
        assert soft_threshold(z, 0.0) == z
    with pytest.raises(DataError):
        soft_threshold(1.0, -0.1)


def test_noiseless_ols():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = 2.0 * X[:, 0] + 1.0
    model = fit_linear(X, y, alpha=0.0, l1_ratio=1.0, tol=1e-10)
    assert model.converged
    assert abs(model.coefficients[0] - 2.0) < 1e-8
    assert abs(model.intercept - 1.0) < 1e-8


def test_lasso_shutdown_threshold():
    rng = np.random.default_rng(0)
    X = standardize(rng.normal(size=(40, 5)))
    y = rng.normal(size=40) * 3.0 + 10.0
    threshold = float(np.max(np.abs(X.T @ (y - y.mean()))) / len(y))
    model = fit_linear(X, y, alpha=threshold * 1.000001, l1_ratio=1.0)
    assert np.all(model.coefficients == 0.0)
    assert abs(model.intercept - y.mean()) < 1e-12
    # just below the threshold at least one coefficient activates
    model2 = fit_linear(X, y, alpha=threshold * 0.99, l1_ratio=1.0)
    assert np.any(model2.coefficients != 0.0)


def test_ridge_matches_closed_form():
    rng = np.random.default_rng(1)
    X = standardize(rng.normal(size=(6, 3)))
    y = rng.normal(size=6)
    for alpha in (0.01, 0.5, 3.0):
        model = fit_linear(X, y, alpha=alpha, l1_ratio=0.0, tol=1e-12, max_iter=100000)
        beta, intercept = ridge_closed_form(X, y, alpha)
        assert np.max(np.abs(model.coefficients - beta)) < 1e-6
        assert abs(model.intercept - intercept) < 1e-6


def test_ols_matches_normal_equations_any_l1_ratio():
    rng = np.random.default_rng(2)
    X = standardize(rng.normal(size=(30, 4)))
    y = X @ np.array([1.5, -2.0, 0.0, 0.7]) + rng.normal(scale=0.1, size=30)
    oracle, intercept = ridge_closed_form(X, y, 0.0)
    for l1_ratio in (0.0, 0.5, 1.0):
        model = fit_linear(X, y, alpha=0.0, l1_ratio=l1_ratio, tol=1e-12, max_iter=100000)
        assert np.max(np.abs(model.coefficients - oracle)) < 1e-6
        assert abs(model.intercept - intercept) < 1e-6


def test_kkt_conditions_on_lasso_and_enet():
    rng = np.random.default_rng(3)
    tol = 1e-8
    for trial in range(20):
        n, p = 30, 6
        X = standardize(rng.normal(size=(n, p)))
        beta_true = rng.normal(size=p) * (rng.random(p) < 0.5)
        y = X @ beta_true + rng.normal(scale=0.5, size=n)
        alpha = float(rng.choice([0.01, 0.1, 1.0]))
        l1_ratio = float(rng.choice([0.5, 1.0]))
        model = fit_linear(X, y, alpha=alpha, l1_ratio=l1_ratio, tol=tol, max_iter=50000)
        assert model.converged
        zero_excess, active_residual = kkt_residuals(model, X, y)
        assert zero_excess <= 10 * tol
        assert active_residual <= 10 * tol


def test_objective_non_increasing_per_sweep():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(50, 5))
    X[:, 1] = X[:, 0] + 0.1 * X[:, 1]  # two correlated columns: the solver takes many sweeps
    X = standardize(X)
    y = X @ np.array([1.0, 1.0, 0.5, 0.0, -0.5]) + rng.normal(size=50)
    full = fit_linear(X, y, alpha=0.3, l1_ratio=0.7, tol=1e-10)
    assert full.converged and full.n_iterations > 100
    # the fit is deterministic, so a fit capped at k sweeps is the state after sweep k
    seen = []
    for k in range(1, full.n_iterations + 1):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="linear fit .* did not converge")
            model = fit_linear(X, y, alpha=0.3, l1_ratio=0.7, tol=1e-10, max_iter=k)
        seen.append(objective(X, y, model.coefficients, model.intercept, 0.3, 0.7))
    assert model.coefficients.tobytes() == full.coefficients.tobytes()
    for a, b in zip(seen, seen[1:]):
        assert b <= a + 1e-12


def test_ridge_norm_shrinks_with_alpha():
    rng = np.random.default_rng(5)
    X = standardize(rng.normal(size=(40, 4)))
    y = X @ np.array([2.0, -1.0, 0.5, 1.0]) + rng.normal(scale=0.2, size=40)
    norms = []
    for alpha in (0.0, 0.1, 1.0, 10.0, 100.0):
        model = fit_linear(X, y, alpha=alpha, l1_ratio=0.0, tol=1e-10)
        norms.append(float(np.linalg.norm(model.coefficients)))
    for a, b in zip(norms, norms[1:]):
        assert b <= a + 1e-9


def test_max_iter_flags_not_raises():
    rng = np.random.default_rng(6)
    X = standardize(rng.normal(size=(30, 3)))
    y = rng.normal(size=30)
    with pytest.warns(UserWarning, match=r"alpha=0\.0, l1_ratio=0\.0.*2 sweeps"):
        model = fit_linear(X, y, alpha=0.0, l1_ratio=0.0, tol=1e-14, max_iter=2)
    assert model.converged is False
    assert model.n_iterations == 2


def test_fit_is_scale_invariant():
    # correlated columns make coordinate descent slow enough that an absolute
    # stopping rule stops the two scales at different distances from the optimum
    rng = np.random.default_rng(9)
    base = rng.normal(size=(80, 4))
    X = standardize(np.column_stack([base, base + 0.1 * rng.normal(size=(80, 4))]))
    y = X @ np.array([1.5, 0.0, -2.0, 0.5, 0.0, 1.0, 0.0, 0.3]) + rng.normal(scale=0.5, size=80) + 3.0
    scale = 1e6
    for alpha, l1_ratio in ((0.01, 1.0), (0.01, 0.5)):
        small = fit_linear(X, y, alpha=alpha, l1_ratio=l1_ratio)
        # y -> scale*y maps the optimum to scale*beta when the L1 weight grows
        # by scale and the L2 weight stays: solve for that (alpha, l1_ratio)
        big_alpha = scale * alpha * l1_ratio + alpha * (1.0 - l1_ratio)
        big = fit_linear(X, scale * y, alpha=big_alpha, l1_ratio=scale * alpha * l1_ratio / big_alpha)
        assert small.converged and big.converged
        want = scale * small.coefficients
        assert np.max(np.abs(big.coefficients - want)) <= 1e-5 * np.max(np.abs(want))
        assert abs(big.intercept - scale * small.intercept) <= 1e-5 * abs(scale * small.intercept)


def test_lasso_converges_on_singular_design():
    # a full one-hot block sums to the intercept column, as in the
    # preprocessor's output, so X with an intercept is exactly singular
    rng = np.random.default_rng(10)
    n = 400
    numeric = standardize(rng.normal(size=(n, 4)))
    level = rng.integers(0, 5, size=n)
    X = np.column_stack([numeric, (level[:, None] == np.arange(5)).astype(float)])
    y = np.exp(11.0 + 0.6 * numeric[:, 0] - 0.4 * numeric[:, 1] + 0.3 * level + rng.normal(scale=0.3, size=n))
    model = fit_linear(X, y, alpha=0.01, l1_ratio=1.0)
    assert model.converged
    assert model.n_iterations < 1000
    zero_excess, active_residual = kkt_residuals(model, X, y)
    # the A4 bounds, in units of the target scale
    assert zero_excess <= 1e-5 * np.max(np.abs(y))
    assert active_residual <= 1e-4 * np.max(np.abs(y))


def test_predict_cases():
    model = fit_linear(np.array([[1.0], [2.0]]), np.array([3.0, 3.0]), alpha=0.0, l1_ratio=0.0)
    assert np.allclose(predict_linear(model, np.array([[5.0]])), 3.0)

    hand = linear_from_dict(
        {"coefficients": [1.0, 1.0], "intercept": 0.0, "converged": True, "n_iterations": 1}, alpha=0.0, l1_ratio=0.0
    )
    assert predict_linear(hand, np.array([[2.0, 3.0]]))[0] == 5.0
    with pytest.raises(DataError):
        predict_linear(hand, np.array([[1.0]]))


def test_noiseless_fit_reproduces_training_targets():
    rng = np.random.default_rng(7)
    X = standardize(rng.normal(size=(25, 3)))
    y = X @ np.array([1.0, -2.0, 0.5]) + 4.0
    model = fit_linear(X, y, alpha=0.0, l1_ratio=1.0, tol=1e-12, max_iter=100000)
    assert np.max(np.abs(predict_linear(model, X) - y)) < 1e-6


def test_validation_errors():
    X = np.ones((3, 1))
    with pytest.raises(DataError):
        fit_linear(X, np.ones(2), alpha=0.0, l1_ratio=0.0)
    # parameter values are checked by families.resolve_params, which every
    # fit_family call runs before the solver
    with pytest.raises(DataError, match="parameter 'tol' must be a finite number > 0, got 0.0"):
        fit_family("ridge", {"alpha": 0.0, "l1_ratio": 0.0, "tol": 0.0}, X, np.ones(3))
    with pytest.raises(DataError, match="parameter 'alpha' must be a finite number >= 0, got -1.0"):
        fit_family("ridge", {"alpha": -1.0, "l1_ratio": 0.0}, X, np.ones(3))
    with pytest.raises(DataError, match=r"parameter 'l1_ratio' must be a finite number in \[0, 1\], got 1.5"):
        fit_family("ridge", {"alpha": 1.0, "l1_ratio": 1.5}, X, np.ones(3))


def test_serialization_round_trip():
    rng = np.random.default_rng(8)
    X = standardize(rng.normal(size=(20, 4)))
    y = rng.normal(size=20)
    model = fit_linear(X, y, alpha=0.1, l1_ratio=0.5)
    clone = linear_from_dict(linear_to_dict(model), model.alpha, model.l1_ratio)
    assert np.array_equal(predict_linear(model, X), predict_linear(clone, X))
    assert clone.alpha == model.alpha and clone.l1_ratio == model.l1_ratio


@pytest.mark.parametrize("name", ["alpha", "l1_ratio", "tol"])
@pytest.mark.parametrize("bad", ["x", None, True, float("nan"), float("inf")])
def test_non_numeric_parameters_are_data_errors_naming_the_parameter(name, bad):
    # resolve_params checks the type before any comparison, so a string is not a TypeError
    X, y = np.array([[0.0], [1.0], [2.0]]), np.array([1.0, 2.0, 4.0])
    params = {"alpha": 0.1, "l1_ratio": 0.5, "tol": 1e-6, name: bad}
    with pytest.raises(DataError, match=rf"^elastic_net parameter '{name}' must be a finite number .*, got {bad!r}$"):
        fit_family("elastic_net", params, X, y)


def reference_fit(X, y, alpha, l1_ratio, tol, max_iter):
    """The coordinate-descent loop as it ran on numpy scalars, kept as the
    reference that fit_linear's Python-float loop must match bit for bit."""
    n, p = X.shape
    gram = X.T @ X / n
    col_sq = np.diag(gram)
    x_mean = X.mean(axis=0)
    l1 = alpha * l1_ratio
    l2 = alpha * (1.0 - l1_ratio)
    beta = np.zeros(p)
    intercept = 0.0
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
        for j in range(p):
            if col_sq[j] == 0.0:
                continue
            old = beta[j]
            new = soft_threshold(xr[j] + col_sq[j] * old, l1) / (col_sq[j] + l2)
            if new != old:
                delta = new - old
                xr -= gram[j] * delta
                r_mean -= x_mean[j] * delta
                beta[j] = new
                max_change = max(max_change, abs(delta))
        if max_change <= tol * max(abs(intercept), float(np.max(np.abs(beta), initial=0.0))):
            converged = True
            break
    return beta, float(intercept), converged, sweeps


def raw_scale_design(seed, n=120):
    """Columns on the pipeline's raw scales, before standardizing: a full
    one-hot block (which, with the intercept, makes the design singular),
    ratings, award counts, lengths in minutes, a platform metric in the
    tens of thousands and an all-zero column; views as the target."""
    rng = np.random.default_rng(seed)
    level = rng.integers(0, 3, size=n)
    X = np.column_stack(
        [
            level == 0,
            level == 1,
            level == 2,
            np.round(rng.uniform(2.5, 9.0, size=n), 1),
            rng.poisson(3.0, size=n),
            rng.integers(20, 75, size=n),
            np.round(rng.lognormal(10.5, 0.6, size=n), 2),
            np.zeros(n),
        ]
    ).astype(float)
    y = 5e4 * np.exp(0.45 * X[:, 3] + 0.3 * X[:, 1]) * rng.lognormal(0.0, 0.3, size=n)
    return X, y


def assert_fit_matches_reference(model, want):
    beta, intercept, converged, sweeps = want
    assert model.coefficients.tobytes() == beta.tobytes()
    assert float(model.intercept).hex() == intercept.hex()
    assert (model.converged, model.n_iterations) == (converged, sweeps)


@pytest.mark.parametrize("family", ["lasso", "ridge", "elastic_net"])
def test_fit_matches_numpy_scalar_reference_over_the_default_alpha_grid(family):
    X, y = raw_scale_design(11)
    l1_ratio = DEFAULT_PARAMS[family]["l1_ratio"]
    for alpha in DEFAULT_GRIDS[family]["alpha"]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # some grid points stop at the cap
            model = fit_linear(X, y, alpha=alpha, l1_ratio=l1_ratio, tol=1e-6, max_iter=2000)
        assert_fit_matches_reference(model, reference_fit(X, y, alpha, l1_ratio, 1e-6, 2000))


def test_capped_fit_matches_reference_and_still_warns():
    X, y = raw_scale_design(12)
    with pytest.warns(UserWarning, match="did not converge in 5 sweeps"):
        model = fit_linear(X, y, alpha=0.01, l1_ratio=1.0, tol=1e-6, max_iter=5)
    want = reference_fit(X, y, 0.01, 1.0, 1e-6, 5)
    assert want[2] is False
    assert_fit_matches_reference(model, want)
