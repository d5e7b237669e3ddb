import numpy as np

from coldstart.plots import (
    buckets_svg,
    heatmap_svg,
    importance_svg,
    least_squares_line,
    scatter_svg,
)


def test_least_squares_line_slope_one_on_perfect_predictions():
    rng = np.random.default_rng(0)
    actual = rng.uniform(10.0, 500.0, size=80)
    slope, intercept = least_squares_line(actual, actual)
    assert abs(slope - 1.0) <= 1e-9
    assert abs(intercept) <= 1e-6 * actual.mean()


def test_least_squares_line_recovers_known_slope():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    y = 2.0 * x + 1.0
    slope, intercept = least_squares_line(x, y)
    assert abs(slope - 2.0) < 1e-9
    assert abs(intercept - 1.0) < 1e-9
    # a constant x has no slope to fit: the flat line through the mean of y
    assert least_squares_line([3.0, 3.0, 3.0], [1.0, 2.0, 6.0]) == (0.0, 3.0)


def test_svgs_are_deterministic_and_self_contained():
    rng = np.random.default_rng(1)
    actual = rng.uniform(1.0, 100.0, size=30)
    predicted = actual * rng.uniform(0.8, 1.2, size=30)
    a = scatter_svg(actual, predicted)
    b = scatter_svg(actual, predicted)
    assert a == b
    assert a.startswith("<svg") and a.rstrip().endswith("</svg>")
    assert "http://www.w3.org/2000/svg" in a

    names = ["alpha", "beta", "gamma"]
    matrix = np.array([[1.0, 0.5, -0.3], [0.5, 1.0, 0.1], [-0.3, 0.1, 1.0]])
    h = heatmap_svg(names, matrix)
    assert h == heatmap_svg(names, matrix)
    for name in names:
        assert name in h

    imp = importance_svg(["f1", "f2"], [0.8, 0.1])
    assert imp == importance_svg(["f1", "f2"], [0.8, 0.1])

    bk = buckets_svg([3, 2, 1, 0, 4], [5, 3, 1, 1, 0])
    assert bk == buckets_svg([3, 2, 1, 0, 4], [5, 3, 1, 1, 0])
    assert "&lt;10%" in bk or "<10%" in bk
