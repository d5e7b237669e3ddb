import itertools
import json

import numpy as np
import pytest

from coldstart.ensemble import (
    EnsembleBundle,
    EnsembleMember,
    build_bundle,
    bundle_from_dict,
    bundle_to_dict,
    compute_weights,
    select_top_models,
)
from coldstart.errors import DataError
from coldstart.families import DEFAULT_PARAMS, DOMAINS, FAMILIES, fit_family, resolve_params
from coldstart.linear import LinearModel
from coldstart.pipeline import member_views, predict_views
from coldstart.preprocess import fit_preprocessor
from table_cells import make_table

# every bundle carries a fitted preprocessor; the members here read one column
PREP = fit_preprocessor(make_table([("x", "numeric", [0.0, 1.0])]))


def constant_member(value, validation_mape=1.0, weight=0.0, n_features=1):
    """A ridge member that predicts ``value`` for every row."""
    return EnsembleMember(
        family="ridge",
        params=resolve_params("ridge", {"alpha": 0.0}),
        model=LinearModel(
            coefficients=np.zeros(n_features),
            intercept=float(value),
            alpha=0.0,
            l1_ratio=0.0,
            converged=True,
            n_iterations=1,
        ),
        validation_mape=validation_mape,
        weight=weight,
    )


def named(pairs):
    """Members with no model, labelled by family, for the selection rule."""
    return [EnsembleMember(family, {}, None, mape) for family, mape in pairs]


def test_select_top_three_by_documented_mapes():
    # the reported single-model errors: gbt-like 15, forest 18, lasso 20...
    candidates = named([
        ("gbt", 15.0),
        ("random_forest", 18.0),
        ("lasso", 20.0),
        ("ridge", 22.0),
        ("elastic_net", 23.0),
        ("decision_tree", 25.0),
    ])
    selected = select_top_models(candidates, k=3)
    assert [m.family for m in selected] == ["gbt", "random_forest", "lasso"]


def test_select_clamps_to_available():
    selected = select_top_models(named([("a", 5.0), ("b", 3.0)]), k=3)
    assert [m.family for m in selected] == ["b", "a"]


def test_select_ties_keep_submission_order():
    selected = select_top_models(named([("a", 5.0), ("b", 5.0), ("c", 5.0)]), k=2)
    assert [m.family for m in selected] == ["a", "b"]


def test_inverse_error_weights():
    weights = compute_weights([10.0, 20.0, 40.0])
    assert np.allclose(weights, [4 / 7, 2 / 7, 1 / 7])


def test_equal_error_weights():
    assert np.allclose(compute_weights([5.0, 5.0, 5.0]), [1 / 3, 1 / 3, 1 / 3])
    assert compute_weights([7.0]) == [1.0]
    assert np.allclose(compute_weights([1.0, 9.0], scheme="equal"), [0.5, 0.5])


def test_zero_error_rejected_then_fallback():
    assert compute_weights([0.0, 1.0]) == [1.0, 0.0]
    with pytest.raises(DataError, match="nonnegative"):
        compute_weights([-1.0, 1.0])
    bundle = build_bundle(
        [constant_member(1.0, 0.0), constant_member(2.0, 1.0), constant_member(3.0, 0.0)],
        PREP,
        scheme="inverse_error",
    )
    weights = [m.weight for m in bundle.members]
    assert weights == [0.5, 0.5, 0.0]  # zero-error members split the weight


def test_weights_sum_to_one_and_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(50):
        errors = rng.uniform(0.1, 50.0, size=int(rng.integers(1, 6)))
        for scheme in ("inverse_error", "equal"):
            weights = compute_weights(list(errors), scheme)
            assert abs(sum(weights) - 1.0) <= 1e-12
            assert all(w >= 0 for w in weights)


def test_weight_monotonicity():
    base = compute_weights([10.0, 20.0, 30.0])
    better = compute_weights([5.0, 20.0, 30.0])
    assert better[0] > base[0]


def test_ensemble_predict_hand_arithmetic():
    members = [
        constant_member(10.0, validation_mape=1.0, weight=0.5),
        constant_member(20.0, validation_mape=2.0, weight=0.3),
        constant_member(30.0, validation_mape=3.0, weight=0.2),
    ]
    bundle = EnsembleBundle(members=members, preprocessor=PREP, scheme="inverse_error")
    pred, _ = predict_views(bundle, np.zeros((1, 1)))
    assert abs(pred[0] - 17.0) < 1e-12


def test_identical_members_identity_and_degenerate_weights():
    members = [
        constant_member(7.0, 1.0, weight=1.0),
        constant_member(9.0, 2.0, weight=0.0),
    ]
    bundle = EnsembleBundle(members, PREP, "inverse_error")
    assert predict_views(bundle, np.zeros((3, 1)))[0][0] == 7.0

    same = [constant_member(4.0, 1.0, 0.5), constant_member(4.0, 1.0, 0.5)]
    bundle = EnsembleBundle(same, PREP, "equal")
    assert np.allclose(predict_views(bundle, np.zeros((2, 1)))[0], 4.0)


def test_prediction_within_member_envelope():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 2))
    models = []
    for error in [5.0, 7.0, 11.0]:
        coef = rng.normal(size=2)
        models.append(
            EnsembleMember("ridge", {}, LinearModel(coef, float(rng.normal()), 0.0, 0.0, True, 1), error)
        )
    bundle = build_bundle(models, PREP)
    # members are combined after clamping negative views to zero
    preds = [member_views(m, X, "none")[0] for m in models]
    combined, _ = predict_views(bundle, X)
    lo = np.min(preds, axis=0)
    hi = np.max(preds, axis=0)
    assert np.all(combined >= lo - 1e-12) and np.all(combined <= hi + 1e-12)


def test_selection_invariant_under_submission_order():
    errors = {"a": 4.0, "b": 9.0, "c": 2.0, "d": 7.0}
    models = {name: constant_member(i, errors[name]) for i, name in enumerate("abcd")}
    baseline = None
    for perm in itertools.permutations("abcd"):
        candidates = [models[n] for n in perm]
        bundle = build_bundle(candidates, PREP, scheme="inverse_error", k=3)
        got = [(m.validation_mape, m.weight) for m in bundle.members]
        if baseline is None:
            baseline = got
        assert got == baseline


def test_members_sorted_ascending_enforced():
    members = [
        constant_member(1.0, validation_mape=5.0, weight=0.5),
        constant_member(2.0, validation_mape=3.0, weight=0.5),
    ]
    with pytest.raises(DataError):
        EnsembleBundle(members, PREP, "inverse_error")


def test_weight_sum_enforced():
    members = [constant_member(1.0, 5.0, 0.4)]
    with pytest.raises(DataError):
        EnsembleBundle(members, PREP, "inverse_error")
    with pytest.raises(DataError):
        EnsembleBundle([], PREP, "inverse_error")
    with pytest.raises(DataError):
        EnsembleBundle([constant_member(1.0, 5.0, 1.0)], PREP, "median_pick")


def test_bundle_serialization_round_trip():
    bundle = build_bundle(
        [constant_member(10.0, 4.0), constant_member(12.0, 8.0)],
        PREP,
        scheme="inverse_error",
        meta={"seed": 7, "target_transform": "none"},
    )
    clone = bundle_from_dict(bundle_to_dict(bundle))
    X = np.zeros((5, 1))
    assert np.array_equal(predict_views(bundle, X)[0], predict_views(clone, X)[0])
    assert clone.meta["seed"] == 7
    assert [m.weight for m in clone.members] == [m.weight for m in bundle.members]


def test_bundle_stores_each_parameter_once_for_every_family():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(60, 3))
    y = X[:, 0] + np.abs(X[:, 1]) + rng.normal(scale=0.1, size=60) + 5.0
    small = {"random_forest": {"n_estimators": 5, "max_depth": 4}, "gbt": {"rounds": 5, "learning_rate": 0.3}}
    members = []
    for i, family in enumerate(FAMILIES):
        params = resolve_params(family, small.get(family))
        members.append(EnsembleMember(family, params, fit_family(family, params, X, y, seed=i), float(i + 1)))
    bundle = build_bundle(members, PREP, k=len(members))
    d = bundle_to_dict(bundle)
    assert [m["family"] for m in d["members"]] == list(FAMILIES)
    for m in d["members"]:
        # the member's params hold every parameter, and its model none of them
        assert sorted(m["params"]) == sorted(DEFAULT_PARAMS[m["family"]])
        assert not set(m["model"]) & set(DOMAINS), m["family"]
    assert not [key for key in d["preprocessor"] if key.startswith("strategy_")]
    clone = bundle_from_dict(json.loads(json.dumps(d)))
    X_new = rng.normal(size=(40, 3))
    for a, b in zip(bundle.members, clone.members):
        assert member_views(a, X_new, "none")[0].tobytes() == member_views(b, X_new, "none")[0].tobytes(), a.family
    assert predict_views(bundle, X_new)[0].tobytes() == predict_views(clone, X_new)[0].tobytes()


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: m.update(weight=float("nan")),
        lambda m: m.update(weight="1.0"),
        lambda m: m.update(weight=True),
        lambda m: m.update(validation_mape=float("inf")),
        lambda m: m.update(validation_mape=None),
        lambda m: m["model"]["coefficients"].__setitem__(0, -float("inf")),
        lambda m: m["model"]["coefficients"].__setitem__(0, None),
        lambda m: m["model"].update(intercept=float("nan")),
    ],
)
def test_bundle_rejects_non_finite_member_numbers(edit):
    payload = bundle_to_dict(build_bundle([constant_member(1.0, 2.0)], PREP))
    edit(payload["members"][0])
    with pytest.raises(DataError):
        bundle_from_dict(payload)


def test_nan_weight_fails_the_weight_sum():
    with pytest.raises(DataError, match="sum"):
        EnsembleBundle([constant_member(1.0, 5.0, float("nan"))], PREP, "inverse_error")


def test_bundle_rejects_unknown_schema_version():
    bundle = build_bundle([constant_member(1.0, 2.0)], PREP)
    payload = bundle_to_dict(bundle)
    payload["schema_version"] = 99
    with pytest.raises(DataError):
        bundle_from_dict(payload)
