"""End-to-end runs behind the CLI: train, predict, evaluate, verify.

run_train wires the full path — ingest, consolidation, holdout split,
leak-free randomized search per family, top-3 selection, inverse-error
weighting — and emits bundle.json, training_report.json, the holdout
episodes CSV, and the SVG plots. Everything derives from the run seed, so
two runs with the same config produce byte-identical artifacts.
"""

import csv
import datetime
import os
import warnings
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import plots
from .data import build_dataset, split_indices
from .ensemble import build_bundle, bundle_from_dict, bundle_to_dict, weights_for_errors
from .errors import DataError
from .families import DEFAULT_GRIDS, FAMILIES, FAMILY_TABLE, FittedModel, fit_family
from .ingest import (
    apply_genre_aliases,
    build_model_table,
    read_credits,
    read_episodes,
    read_genre_aliases,
    read_genres,
    read_platform,
)
from .metrics import (
    error_buckets,
    impurity_importance,
    mape,
    metric_report,
    pearson_matrix,
    permutation_importance,
)
from .preprocess import fit_preprocessor, transform
from .tuning import randomized_search
from .util import config_digest, dump_json, load_json, mix_seed

REPORT_SCHEMA_VERSION = 1

TARGET_TRANSFORMS = ("none", "log1p")


@dataclass
class RunConfig:
    episodes: str
    credits: str
    genres: str
    platform: str
    out_dir: str
    genre_alias: str | None = None
    reference_date: str | None = None  # ISO date; default: max release in input
    test_fraction: float = 0.2
    seed: int = 42
    families: list = field(default_factory=lambda: list(FAMILIES))
    n_iter: int = 20
    cv_folds: int = 5
    top_k: int = 3
    scheme: str = "inverse_error"
    target_transform: str = "none"
    grids: dict = field(default_factory=dict)
    importance_repeats: int = 5
    numeric_strategy: str = "median"
    categorical_strategy: str = "mode"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            allowed = (int, float) if f.type is float else f.type
            if isinstance(value, bool) or not isinstance(value, allowed):
                kind = getattr(f.type, "__name__", f.type)
                raise DataError(f"config {f.name!r} must be {kind}, got {value!r}")
        for family, grid in self.grids.items():
            if not isinstance(grid, dict) or not all(isinstance(v, list) for v in grid.values()):
                raise DataError(f"config grids[{family!r}] must map parameter names to lists of values")
        if self.reference_date is not None:
            try:
                datetime.date.fromisoformat(self.reference_date)
            except ValueError:
                raise DataError(f"reference_date {self.reference_date!r} is not an ISO date") from None
        paths = [self.episodes, self.credits, self.genres, self.platform]
        if self.genre_alias:
            paths.append(self.genre_alias)
        if len(set(paths)) != len(paths):
            raise DataError("input paths must be distinct")
        if self.target_transform not in TARGET_TRANSFORMS:
            raise DataError(f"target_transform must be one of {TARGET_TRANSFORMS}")
        unknown = [f for f in self.families if f not in FAMILIES]
        if unknown:
            raise DataError(f"unknown families {unknown}; choose from {FAMILIES}")
        if len(set(self.families)) != len(self.families):
            raise DataError("families list contains duplicates")
        if not self.families:
            raise DataError("at least one model family is required")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(d) - known
        if unknown:
            raise DataError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


def transform_target(y, mode):
    return np.log1p(y) if mode == "log1p" else np.asarray(y, dtype=float)


def invert_target(pred, mode):
    return np.expm1(pred) if mode == "log1p" else np.asarray(pred, dtype=float)


def member_views(fitted, X, mode):
    """One model's view-scale predictions plus its clamped-row mask."""
    raw = np.asarray(fitted.predict(X), dtype=float)
    views = invert_target(raw, mode)
    clamped = views < 0
    return np.where(clamped, 0.0, views), clamped


def predict_views(bundle, X):
    """Ensemble view predictions: weighted average of clamped member views."""
    mode = bundle.meta.get("target_transform", "none")
    total = None
    clamped = None
    for m in bundle.members:
        views, neg = member_views(m.model, X, mode)
        total = m.weight * views if total is None else total + m.weight * views
        clamped = neg if clamped is None else clamped | neg
    return total, clamped


class BundlePredictor:
    """Adapter exposing ensemble view prediction as a plain predict()."""

    def __init__(self, bundle):
        self.bundle = bundle

    def predict(self, X):
        return predict_views(self.bundle, X)[0]


def load_inputs(episodes_path, credits_path, genres_path, platform_path, alias_path=None):
    episodes = read_episodes(episodes_path)
    credits = read_credits(credits_path)
    genres = read_genres(genres_path)
    if alias_path:
        genres = apply_genre_aliases(genres, read_genre_aliases(alias_path))
    platform = read_platform(platform_path)
    return episodes, credits, genres, platform


def _length_string(minutes):
    total = int(round(minutes))  # grammar guarantees integral minutes
    hours, mins = divmod(total, 60)
    if hours and mins:
        return f"{hours}h {mins}m"
    if hours:
        return f"{hours}h"
    return f"{mins}m"


def _write_holdout_episodes(path, episodes, indices):
    rows = episodes.take_rows(indices)
    names = ("series_id", "episode_id", "release_date", "length_minutes", "views")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["series_id", "episode_id", "release_date", "length", "views"])
        for sid, eid, release, minutes, views in zip(*(rows.column(n) for n in names)):
            writer.writerow([sid, eid, release.isoformat(), _length_string(minutes), repr(views)])


def per_series_table(series_ids, y, yhat):
    """Per-series episode counts and accuracy (100 - series MAPE).

    Accuracy is null for a series whose scored targets are all zero.
    """
    groups = {}
    for sid, yy, pp in zip(series_ids, y, yhat):
        groups.setdefault(sid, []).append((yy, pp))
    rows = []
    for sid in sorted(groups):
        pairs = groups[sid]
        scored = [(yy, pp) for yy, pp in pairs if yy != 0]
        if scored:
            series_mape = 100.0 * float(
                np.mean([abs(yy - pp) / abs(yy) for yy, pp in scored])
            )
            accuracy = 100.0 - series_mape
        else:
            accuracy = None
        rows.append({"series_id": sid, "n_episodes": len(pairs), "accuracy": accuracy})
    return rows


def _emit_plots(out_dir, hold_y, ensemble_pred, numeric_named, importance, buckets_before, buckets_after):
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def _put(name, text):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        written.append(path)

    _put("actual_vs_predicted.svg", plots.scatter_svg(hold_y, ensemble_pred))
    names, matrix = pearson_matrix(numeric_named)
    _put("correlation_heatmap.svg", plots.heatmap_svg(names, matrix))
    if importance is not None:
        ranked = sorted(importance.features, key=lambda t: t[2])
        _put(
            "importance.svg",
            plots.importance_svg([n for n, _, _ in ranked], [s for _, s, _ in ranked]),
        )
    _put("error_buckets.svg", plots.buckets_svg(buckets_before.counts, buckets_after.counts))
    return written


def run_train(config):
    """Execute the full training pipeline; returns a summary dict with paths."""
    episodes, credits, genres, platform = load_inputs(
        config.episodes, config.credits, config.genres, config.platform, config.genre_alias
    )
    reference = (
        datetime.date.fromisoformat(config.reference_date) if config.reference_date else None
    )
    table, reference_date = build_model_table(episodes, credits, genres, platform, reference)
    features_all, y_all = build_dataset(table, table.schemas)

    train_idx, hold_idx = split_indices(features_all.n_rows, config.test_fraction, config.seed)
    train_table = features_all.take_rows(train_idx.tolist())
    hold_table = features_all.take_rows(hold_idx.tolist())
    y_train, y_hold = y_all[train_idx], y_all[hold_idx]
    y_fit = transform_target(y_train, config.target_transform)

    prep = fit_preprocessor(
        train_table,
        strategy_numeric=config.numeric_strategy,
        strategy_categorical=config.categorical_strategy,
    )
    X_train = transform(prep, train_table)
    X_hold = transform(prep, hold_table)

    cv_results = {}
    validation = {}
    candidates = []
    clamp_counts = {}
    failed = {}
    for fi, family in enumerate(config.families):
        grid = config.grids.get(family) or DEFAULT_GRIDS[family]
        try:
            search = randomized_search(
                family,
                grid,
                config.n_iter,
                train_table,
                y_fit,
                k=config.cv_folds,
                seed=mix_seed(config.seed, fi),
                numeric_strategy=config.numeric_strategy,
                categorical_strategy=config.categorical_strategy,
            )
            model = fit_family(
                family, search.best_params, X_train.values, y_fit, seed=mix_seed(config.seed, 1000 + fi)
            )
        except DataError as exc:
            # one family failing is survivable; the run errors only when
            # nothing fits
            warnings.warn(f"{family}: fit failed ({exc})")
            failed[family] = str(exc)
            continue
        cv_results[family] = search.to_dict()
        fitted = FittedModel(family=family, params=search.best_params, model=model)
        views, clamped = member_views(fitted, X_hold.values, config.target_transform)
        report = metric_report(y_hold, views)
        validation[family] = report.to_dict()
        clamp_counts[family] = int(clamped.sum())
        candidates.append((fitted, report.mape))

    if not candidates:
        details = "; ".join(f"{k}: {v}" for k, v in failed.items())
        raise DataError(f"no model family fit successfully ({details})")

    digest = config_digest(config.to_dict())
    bundle = build_bundle(
        candidates,
        preprocessor=prep,
        scheme=config.scheme,
        k=config.top_k,
        meta={
            "seed": config.seed,
            "reference_date": reference_date.isoformat(),
            "target_transform": config.target_transform,
            "feature_names": X_train.feature_names,
            "config_digest": digest,
        },
    )

    ens_views, ens_clamped = predict_views(bundle, X_hold.values)
    ens_report = metric_report(y_hold, ens_views)
    best_member_views, _ = member_views(bundle.members[0].model, X_hold.values, config.target_transform)
    buckets_before = error_buckets(y_hold, best_member_views)
    buckets_after = error_buckets(y_hold, ens_views)

    perm = permutation_importance(
        BundlePredictor(bundle),
        X_hold,
        y_hold,
        metric="mape",
        repeats=config.importance_repeats,
        seed=mix_seed(config.seed, 777),
    )
    impurity = None
    for member in bundle.members:
        if FAMILY_TABLE[member.model.family].trees is not None:
            impurity = impurity_importance(member.model.family, member.model.model, X_train.feature_names)
            break

    series_ids = table.column("series_id")
    hold_series = [series_ids[i] for i in hold_idx.tolist()]
    per_series = per_series_table(hold_series, y_hold, ens_views)

    os.makedirs(config.out_dir, exist_ok=True)
    bundle_path = os.path.join(config.out_dir, "bundle.json")
    report_path = os.path.join(config.out_dir, "training_report.json")
    holdout_path = os.path.join(config.out_dir, "holdout_episodes.csv")

    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "seed": config.seed,
        "config": config.to_dict(),
        "config_digest": digest,
        "reference_date": reference_date.isoformat(),
        "n_rows": features_all.n_rows,
        "n_train": len(train_idx),
        "n_holdout": len(hold_idx),
        "feature_names": X_train.feature_names,
        "cv_results": cv_results,
        "validation": validation,
        "validation_clamped": clamp_counts,
        "failed_families": failed,
        "selected": [m.model.family for m in bundle.members],
        "weights": {m.model.family: m.weight for m in bundle.members},
        "scheme": config.scheme,
        "ensemble_validation": ens_report.to_dict(),
        "ensemble_clamped": int(ens_clamped.sum()),
        "error_buckets": {
            "edges": list(buckets_before.edges),
            "before": list(buckets_before.counts),
            "after": list(buckets_after.counts),
        },
        "per_series": per_series,
        "importance": {
            "permutation": perm.to_dict(),
            "impurity": None if impurity is None else impurity.to_dict(),
        },
    }

    dump_json(bundle_to_dict(bundle), bundle_path, compact=True)
    dump_json(report, report_path)
    _write_holdout_episodes(holdout_path, episodes, hold_idx.tolist())

    numeric_named = [
        (c.name, X_hold.values[:, X_hold.feature_names.index(c.name)]) for c in prep.numeric
    ] + [("views", y_hold)]
    plot_paths = _emit_plots(
        os.path.join(config.out_dir, "plots"),
        y_hold,
        ens_views,
        numeric_named,
        perm,
        buckets_before,
        buckets_after,
    )

    return {
        "bundle": bundle_path,
        "report": report_path,
        "holdout_episodes": holdout_path,
        "plots": plot_paths,
        "selected": report["selected"],
        "ensemble_validation": report["ensemble_validation"],
    }


def load_bundle(path):
    return bundle_from_dict(load_json(path))


def _load_for_scoring(bundle_path, episodes_path, credits_path, genres_path, platform_path, alias_path):
    """Load a bundle and scoring inputs and build their features.

    Returns (bundle, episodes, table, X) with X transformed by the bundle's
    own preprocessor.
    """
    bundle = load_bundle(bundle_path)
    try:
        reference = datetime.date.fromisoformat(bundle.meta["reference_date"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{bundle_path}: bundle meta needs an ISO reference_date ({exc!r})") from exc
    if bundle.preprocessor is None:
        raise DataError(f"{bundle_path}: bundle has no preprocessor")
    episodes, credits, genres, platform = load_inputs(
        episodes_path, credits_path, genres_path, platform_path, alias_path
    )
    # scoring a subset of episodes against the full metadata catalog is
    # normal here; the unknown-series warnings only matter at train time
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*for unknown series.*")
        table, _ = build_model_table(episodes, credits, genres, platform, reference)
    drop = [s.name for s in table.schemas if s.role in ("id", "target")]
    X = transform(bundle.preprocessor, table.drop_columns(drop))
    return bundle, episodes, table, X


def run_predict(bundle_path, episodes_path, credits_path, genres_path, platform_path, out_path, alias_path=None):
    """Write predictions.csv for new episodes; returns a summary dict."""
    bundle, _, table, X = _load_for_scoring(
        bundle_path, episodes_path, credits_path, genres_path, platform_path, alias_path
    )
    views, clamped = predict_views(bundle, X.values)

    out_dir = os.path.dirname(os.path.abspath(out_path))
    os.makedirs(out_dir, exist_ok=True)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["series_id", "episode_id", "predicted_views", "clamped"])
        sids = table.column("series_id")
        eids = table.column("episode_id")
        for i in range(len(views)):
            writer.writerow([sids[i], eids[i], repr(float(views[i])), int(clamped[i])])
    return {"out": out_path, "n_rows": int(len(views)), "n_clamped": int(clamped.sum())}


def _require_views(episodes):
    views = episodes.columns.get("views") or [None] * episodes.n_rows
    missing = [i for i, v in enumerate(views) if v is None]
    if missing:
        raise DataError(
            f"episodes are missing views values (first at data row {missing[0] + 2})"
        )
    return np.asarray(views, dtype=float)


def run_evaluate(bundle_path, episodes_path, credits_path, genres_path, platform_path, out_dir, alias_path=None):
    """Score a bundle against episodes with known views; writes report + plots."""
    bundle, episodes, table, X = _load_for_scoring(
        bundle_path, episodes_path, credits_path, genres_path, platform_path, alias_path
    )
    y = _require_views(episodes)

    views, clamped = predict_views(bundle, X.values)
    report = metric_report(y, views)
    best_views, _ = member_views(
        bundle.members[0].model, X.values, bundle.meta.get("target_transform", "none")
    )
    buckets_before = error_buckets(y, best_views)
    buckets_after = error_buckets(y, views)
    per_series = per_series_table(table.column("series_id"), y, views)

    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "metrics": report.to_dict(),
        "n_clamped": int(clamped.sum()),
        "error_buckets": {
            "edges": list(buckets_before.edges),
            "before": list(buckets_before.counts),
            "after": list(buckets_after.counts),
        },
        "per_series": per_series,
        "members": [
            {"family": m.model.family, "weight": m.weight, "validation_mape": m.validation_mape}
            for m in bundle.members
        ],
    }
    report_path = os.path.join(out_dir, "evaluation_report.json")
    dump_json(payload, report_path)

    numeric_named = [
        (c.name, X.values[:, X.feature_names.index(c.name)]) for c in bundle.preprocessor.numeric
    ] + [("views", y)]
    plot_paths = _emit_plots(
        os.path.join(out_dir, "plots"), y, views, numeric_named, None, buckets_before, buckets_after
    )
    return {"report": report_path, "plots": plot_paths, "metrics": payload["metrics"]}


def run_verify(bundle_path, report_path, episodes_path, credits_path, genres_path, platform_path, alias_path=None):
    """Recompute the training report's validation numbers from the bundle.

    Returns (ok, mismatches). Exact equality is expected: the bundle stores
    full-precision floats and every computation is deterministic.
    """
    bundle, episodes, _, X = _load_for_scoring(
        bundle_path, episodes_path, credits_path, genres_path, platform_path, alias_path
    )
    report = load_json(report_path)

    def reported(*keys):
        value = report
        for key in keys:
            if not isinstance(value, dict) or key not in value:
                raise DataError(f"{report_path}: training report lacks {'.'.join(keys)}")
            value = value[key]
        return value

    y = _require_views(episodes)
    mode = bundle.meta.get("target_transform", "none")

    mismatches = []

    def check(label, got, want):
        if isinstance(want, float) or isinstance(got, float):
            if not isinstance(want, (int, float)):
                raise DataError(f"{label}: {want!r} is not a number")
            equal = float(got) == float(want)
        else:
            equal = got == want
        if not equal:
            mismatches.append(f"{label}: recomputed {got!r} != reported {want!r}")

    ens_views, _ = predict_views(bundle, X.values)
    ens = metric_report(y, ens_views)
    check("ensemble_validation.mape", ens.mape, reported("ensemble_validation", "mape"))
    check("ensemble_validation.smape", ens.smape, reported("ensemble_validation", "smape"))
    check("ensemble_validation.r2", ens.r2, reported("ensemble_validation", "r2"))

    recomputed_mapes = []
    for member in bundle.members:
        family = member.model.family
        views, _ = member_views(member.model, X.values, mode)
        recomputed = mape(y, views)
        recomputed_mapes.append(recomputed)
        check(f"validation.{family}.mape", recomputed, reported("validation", family, "mape"))
        check(f"bundle member {family} validation_mape", recomputed, member.validation_mape)

    rederived_weights = weights_for_errors(recomputed_mapes, bundle.scheme)
    for member, weight in zip(bundle.members, rederived_weights):
        family = member.model.family
        check(f"weights.{family}", weight, reported("weights", family))
        check(f"bundle member {family} weight", weight, member.weight)

    best_views, _ = member_views(bundle.members[0].model, X.values, mode)
    check(
        "error_buckets.before",
        error_buckets(y, best_views).counts,
        reported("error_buckets", "before"),
    )
    check(
        "error_buckets.after",
        error_buckets(y, ens_views).counts,
        reported("error_buckets", "after"),
    )
    return not mismatches, mismatches
