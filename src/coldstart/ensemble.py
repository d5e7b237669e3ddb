"""Top-k model selection and weighted-average prediction combining.

The default weighting is inverse validation error, normalized to sum to 1:
a member with half the error of another carries twice the weight. Equal
weighting is available for ablation. A zero validation error makes the
inverse scheme degenerate; the zero-error members then share the weight
equally.
"""

from dataclasses import dataclass, field, replace

from .errors import DataError
from .families import check_family, resolve_params
from .preprocess import preprocessor_from_dict, preprocessor_to_dict
from .util import finite_number

SCHEMES = ("inverse_error", "equal")

# the target scales a model may be fit on; its predictions are inverted to views
TARGET_TRANSFORMS = ("none", "log1p")

BUNDLE_SCHEMA_VERSION = 10


@dataclass
class EnsembleMember:
    """A fitted model of one family, with the parameters it was fit with:
    every parameter the family's fit reads, defaults filled in."""

    family: str
    params: dict
    model: object
    validation_mape: float
    weight: float = 0.0


@dataclass
class EnsembleBundle:
    members: list
    preprocessor: object  # fitted Preprocessor
    scheme: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise DataError(f"unknown weighting scheme {self.scheme!r}")
        if not self.members:
            raise DataError("ensemble needs at least one member")
        total = sum(m.weight for m in self.members)
        if not abs(total - 1.0) <= 1e-12:  # written so that a NaN total fails
            raise DataError(f"member weights sum to {total!r}, expected 1")
        mapes = [m.validation_mape for m in self.members]
        if any(b < a for a, b in zip(mapes, mapes[1:])):
            raise DataError("members must be sorted by ascending validation MAPE")
        families = [m.family for m in self.members]
        repeated = [f for i, f in enumerate(families) if f in families[:i]]
        if repeated:  # a report keys weights and validation by family
            raise DataError(f"bundle members repeat the family {repeated[0]!r}")


def select_top_models(candidates, k=3):
    """The k candidate members with smallest validation error, stable under
    ties; k clamps to the number available."""
    if not candidates:
        raise DataError("no candidates to select from")
    order = sorted(range(len(candidates)), key=lambda i: (candidates[i].validation_mape, i))
    return [candidates[i] for i in order[: max(1, min(k, len(candidates)))]]


def compute_weights(validation_errors, scheme="inverse_error"):
    """Normalized member weights from validation errors.

    Under inverse_error, zero-error members share the weight equally, as
    their inverse is unbounded; a negative error is a DataError.
    """
    if scheme not in SCHEMES:
        raise DataError(f"unknown weighting scheme {scheme!r}")
    errors = [float(e) for e in validation_errors]
    if not errors:
        raise DataError("no errors to weight")
    if scheme == "equal":
        return [1.0 / len(errors)] * len(errors)
    if any(e < 0 for e in errors):
        raise DataError("inverse_error weighting needs nonnegative errors")
    if 0 in errors:  # the inverse is unbounded; the zero-error members share the weight
        inv = [1.0 if e == 0 else 0.0 for e in errors]
    else:
        inv = [1.0 / e for e in errors]
    total = sum(inv)
    return [v / total for v in inv]


def build_bundle(candidates, preprocessor, scheme="inverse_error", k=3, meta=None):
    """Select the top-k candidate members, weight them, and assemble the bundle."""
    selected = select_top_models(candidates, k=k)
    weights = compute_weights([m.validation_mape for m in selected], scheme)
    return EnsembleBundle(
        members=[replace(m, weight=w) for m, w in zip(selected, weights)],
        preprocessor=preprocessor,
        scheme=scheme,
        meta=dict(meta or {}),
    )


def bundle_to_dict(bundle):
    return {
        "schema_version": BUNDLE_SCHEMA_VERSION,
        "scheme": bundle.scheme,
        "meta": dict(bundle.meta),
        "preprocessor": preprocessor_to_dict(bundle.preprocessor),
        "members": [
            {
                "family": m.family,
                "params": dict(m.params),
                "model": check_family(m.family).to_dict(m.model),
                "validation_mape": m.validation_mape,
                "weight": m.weight,
            }
            for m in bundle.members
        ],
    }


def _member_from_dict(i, m):
    """Decode member ``i``; a fault in its model or numbers names it. Its
    weight lies in [0, 1] and its validation MAPE is >= 0, as training writes them."""
    family, params, entry = m["family"], dict(m["params"]), check_family(m["family"])
    member = f"bundle member {i} ({family})"
    # resolve_params checks each name and value; the params must also name every parameter
    missing = [name for name in resolve_params(family, params) if name not in params]
    if missing:
        raise DataError(f"{member} params lack {missing}")
    try:
        model = entry.from_dict(m["model"], params)
    except DataError as exc:
        raise DataError(f"{member}: {exc}") from None
    validation_mape = finite_number(m["validation_mape"], f"{member} validation_mape")
    weight = finite_number(m["weight"], f"{member} weight")
    if validation_mape < 0:
        raise DataError(f"{member} validation_mape must be >= 0, got {validation_mape!r}")
    if not 0 <= weight <= 1:
        raise DataError(f"{member} weight must be in [0, 1], got {weight!r}")
    return EnsembleMember(family, params, model, validation_mape, weight)


def bundle_from_dict(d):
    """Decode a bundle; a missing or ill-typed key is a DataError."""
    if not isinstance(d, dict):
        raise DataError("bundle must be a JSON object")
    version = d.get("schema_version")
    if version != BUNDLE_SCHEMA_VERSION:
        raise DataError(f"bundle schema version {version!r} is not {BUNDLE_SCHEMA_VERSION}; retrain the bundle")
    # of meta, prediction reads target_transform, checked here, and reference_date,
    # checked when scoring; the other fields record where the bundle came from
    meta = d.get("meta")
    if not isinstance(meta, dict) or meta.get("target_transform") not in TARGET_TRANSFORMS:
        raise DataError(f"bundle meta must be an object whose target_transform is one of {TARGET_TRANSFORMS}")
    try:
        return EnsembleBundle(
            members=[_member_from_dict(i, m) for i, m in enumerate(d["members"])],
            preprocessor=preprocessor_from_dict(d["preprocessor"]),
            scheme=d["scheme"],
            meta=dict(meta),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"malformed bundle: {type(exc).__name__}: {exc}") from exc
