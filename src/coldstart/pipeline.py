"""End-to-end runs behind the CLI: train, predict, evaluate, verify.

run_train wires the full path — ingest, consolidation, holdout split,
one leak-free fold plan, randomized search per family on it (out of bag on
the training matrix for the random forest) by MAPE on views, each search
returning its member's model, top-3 selection, inverse-error weighting —
and emits bundle.json, training_report.json, the holdout episodes CSV and
the SVG plots.
Everything derives from the run seed, so two runs with the same config
produce byte-identical artifacts.

score_bundle is the one code path from views to report numbers: it
computes a report's scoring section (selection, weights, candidate and
ensemble metrics, clamp counts, error buckets, per-series accuracy) from
views keyed by family on rows with known views, and returns the
ensemble's views with it for the scatter plot. All three scoring commands
use it: train writes it into the training report, from the holdout views
of every candidate that its family loop already computed, evaluate writes
it as the evaluation report, and verify recomputes it from the holdout
episodes and compares it with the training report exactly. Scored views
pass build_dataset's target rule, as training targets do.
"""

import datetime
import os
import warnings
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import plots
from .data import ColumnSchema, build_dataset, feature_table, split_indices
from .ensemble import (
    SCHEMES,
    TARGET_TRANSFORMS,
    EnsembleMember,
    build_bundle,
    bundle_from_dict,
    bundle_to_dict,
    compute_weights,
    predicted_views,
)
from .errors import DataError, UndefinedMetricError
from .families import DEFAULT_GRIDS, FAMILIES, FAMILY_TABLE, check_grid, predict_family, resolve_params
from .ingest import (
    EPISODE_CSV_COLUMNS,
    VIEWS_COLUMN,
    apply_genre_aliases,
    build_model_table,
    format_length,
    read_credits,
    read_episodes,
    read_genre_aliases,
    read_genres,
    read_platform,
    write_csv,
)
from .metrics import (
    IMPORTANCE_MAX_REPEATS,
    error_buckets,
    impurity_importance,
    mape,
    metric_report,
    pearson_matrix,
    permutation_importance,
)
from .preprocess import fit_preprocessor, transform
from .tuning import fold_matrices, kfold_indices, randomized_search
from .util import config_digest, dump_json, load_json, mix_seed

REPORT_SCHEMA_VERSION = 1

# the columns of predictions.csv; clamped is 1 where a negative prediction became 0
PREDICTION_COLUMNS = (
    ColumnSchema("series_id", "id"),
    ColumnSchema("episode_id", "id"),
    ColumnSchema("predicted_views", "numeric"),
    ColumnSchema("clamped", "numeric"),
)


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
            check_grid(family, grid)  # an unknown name, an empty list or a value outside its domain fails here
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if self.n_iter < 1:
            raise DataError(f"n_iter must be >= 1, got {self.n_iter}")
        if self.cv_folds < 2:  # a count above the training rows is known only once they are read
            raise DataError(f"cv_folds must be >= 2, got {self.cv_folds}")
        if not 0 < self.test_fraction < 1:
            raise DataError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if not 1 <= self.importance_repeats <= IMPORTANCE_MAX_REPEATS:
            raise DataError(f"importance_repeats must be in 1..{IMPORTANCE_MAX_REPEATS}, got {self.importance_repeats}")
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
        if self.scheme not in SCHEMES:
            raise DataError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.top_k < 1:
            raise DataError(f"top_k must be at least 1, got {self.top_k}")
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


def member_views(member, X, mode):
    """One member's view-scale predictions plus its clamped-row mask."""
    return predicted_views(predict_family(member.family, member.model, X), mode)


def _fold_views(members, results):
    """Weighted sum of member views, in member order, and the union of their clamp masks.

    ``results`` maps each member's family to its (views, clamped) pair, and
    may hold other families too. Views that overflow to inf or NaN (from
    finite but huge bundle numbers) are a DataError.
    """
    total = None
    clamped = None
    for m in members:
        views, neg = results[m.family]
        total = m.weight * views if total is None else total + m.weight * views
        clamped = neg if clamped is None else clamped | neg
    bad = np.flatnonzero(~np.isfinite(total))
    if len(bad):
        raise DataError(f"ensemble views are not finite for {len(bad)} of {len(total)} rows (first at row {bad[0]})")
    return total, clamped


def bundle_member_views(bundle, X):
    """{family: member_views} of each bundle member on X, in member order; a
    DataError, such as a width fault, names its member."""
    results = {}
    for i, m in enumerate(bundle.members):
        try:
            results[m.family] = member_views(m, X, bundle.meta["target_transform"])
        except DataError as exc:
            raise DataError(f"bundle member {i} ({m.family}): {exc}") from None
    return results


def predict_views(bundle, X):
    """Ensemble view predictions: weighted average of clamped member views."""
    return _fold_views(bundle.members, bundle_member_views(bundle, X))


def load_inputs(episodes_path, credits_path, genres_path, platform_path, alias_path=None):
    episodes = read_episodes(episodes_path)
    credits = read_credits(credits_path)
    genres = read_genres(genres_path)
    if alias_path:
        genres = apply_genre_aliases(genres, read_genre_aliases(alias_path))
    platform = read_platform(platform_path)
    return episodes, credits, genres, platform


def _write_holdout_episodes(path, episodes, indices):
    rows = episodes.take_rows(indices)
    ids = (rows.column(n) for n in ("series_id", "episode_id", "release_date"))
    # tolist gives Python floats, which write_csv writes by repr
    numbers = (rows.column(n).tolist() for n in ("length_minutes", "views"))
    write_csv(
        path,
        EPISODE_CSV_COLUMNS + (VIEWS_COLUMN,),
        (
            (sid, eid, release.isoformat(), format_length(minutes), views)
            for sid, eid, release, minutes, views in zip(*ids, *numbers)
        ),
    )


def per_series_table(series_ids, y, yhat):
    """Per-series episode counts and accuracy (100 - series MAPE).

    Accuracy is null for a series whose scored targets are all zero.
    """
    y, yhat = np.asarray(y, dtype=float), np.asarray(yhat, dtype=float)
    groups = {}
    for i, sid in enumerate(series_ids):
        groups.setdefault(sid, []).append(i)
    rows = []
    for sid in sorted(groups):
        ys, ps = y.take(groups[sid]), yhat.take(groups[sid])
        accuracy = 100.0 - mape(ys, ps) if ys.any() else None
        rows.append({"series_id": sid, "n_episodes": len(ys), "accuracy": accuracy})
    return rows


def score_bundle(bundle, results, y, series_ids):
    """A report's scoring section for the bundle on rows with known views
    y, and the ensemble's views.

    ``results`` maps a family to its (views, clamped) pair on those rows:
    the members', as bundle_member_views returns them, or every training
    candidate's. The section is plain JSON: the members (``selected``,
    ``weights``), each family's metrics and clamp count (``validation`` and
    ``validation_clamped``, every family of ``results``), the ensemble's,
    the error buckets of the best member (before) and of the ensemble
    (after), and per-series accuracy. The ensemble is folded from the
    members' views alone, as predict_views folds them, so every float
    equals a prediction there.
    """
    ensemble, ensemble_clamped = _fold_views(bundle.members, results)
    before = error_buckets(y, results[bundle.members[0].family][0])
    section = {
        "selected": [m.family for m in bundle.members],
        "weights": {m.family: m.weight for m in bundle.members},
        "validation": {f: metric_report(y, views) for f, (views, _) in results.items()},
        "validation_clamped": {f: int(neg.sum()) for f, (_, neg) in results.items()},
        "ensemble_validation": metric_report(y, ensemble),
        "ensemble_clamped": int(ensemble_clamped.sum()),
        "error_buckets": {
            "edges": list(before.edges),
            "before": before.counts,
            "after": error_buckets(y, ensemble).counts,
        },
        "per_series": per_series_table(series_ids, y, ensemble),
    }
    return section, ensemble


def _emit_plots(out_dir, bundle, X, y, views, section, importance):
    """Write the scatter of y against the ensemble's ``views``, and the
    correlation, importance (when given) and error-bucket SVGs."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def _put(name, text):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        written.append(path)

    _put("actual_vs_predicted.svg", plots.scatter_svg(y, views))
    numeric_named = [
        (c.name, X.values[:, X.feature_names.index(c.name)]) for c in bundle.preprocessor.numeric
    ] + [("views", y)]
    names, matrix = pearson_matrix(numeric_named)
    _put("correlation_heatmap.svg", plots.heatmap_svg(names, matrix))
    if importance is not None:
        ranked = sorted(importance.features, key=lambda t: t[2])
        _put(
            "importance.svg",
            plots.importance_svg([n for n, _, _ in ranked], [s for _, s, _ in ranked]),
        )
    buckets = section["error_buckets"]
    _put("error_buckets.svg", plots.buckets_svg(buckets["before"], buckets["after"]))
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
    features_all, y_all = build_dataset(table)

    train_idx, hold_idx = split_indices(features_all.n_rows, config.test_fraction, config.seed)
    train_table = features_all.take_rows(train_idx.tolist())
    hold_table = features_all.take_rows(hold_idx.tolist())
    y_train, y_hold = y_all[train_idx], y_all[hold_idx]
    if not np.any(y_hold != 0):
        raise DataError(
            "every holdout episode has zero views, so holdout MAPE is undefined "
            "and the ensemble weights cannot be derived from it"
        )

    prep = fit_preprocessor(train_table)
    X_train = transform(prep, train_table)
    X_hold = transform(prep, hold_table)
    # one fold plan for every family's search, so families compete on the same folds
    plan = kfold_indices(len(y_train), config.cv_folds, mix_seed(config.seed, 2000))
    folds = fold_matrices(train_table, y_train, plan)

    cv_results = {}
    candidates = []
    hold_results = {}  # family -> (views, clamped) on the holdout
    for fi, family in enumerate(config.families):
        grid = config.grids.get(family, DEFAULT_GRIDS[family])
        train = (X_train.values, y_train, config.target_transform, mix_seed(config.seed, 1000 + fi))  # the member's fit
        try:
            search = randomized_search(family, grid, config.n_iter, folds, seed=mix_seed(config.seed, fi), train=train)
        except UndefinedMetricError as exc:
            # a search's MAPE is undefined on a fold whose views are all zero,
            # and out of bag where no training row is out of bag
            warnings.warn(f"{family}: dropped, its search score is undefined ({exc})")
            continue
        cv_results[family] = search.to_dict()
        member = EnsembleMember(family, resolve_params(family, search.best_params), search.model, validation_mape=None)
        views, _ = hold_results[family] = member_views(member, X_hold.values, config.target_transform)
        member.validation_mape = mape(y_hold, views)  # y_hold has a nonzero view, checked above
        candidates.append(member)

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
            "config_digest": digest,
        },
    )

    series_ids = table.column("series_id")
    # every candidate predicted the holdout in the family loop; score those views
    section, hold_views = score_bundle(bundle, hold_results, y_hold, [series_ids[i] for i in hold_idx.tolist()])
    perm = permutation_importance(
        lambda values: predict_views(bundle, values)[0],
        X_hold,
        y_hold,
        metric="mape",
        repeats=config.importance_repeats,
        seed=mix_seed(config.seed, 777),
        baseline=hold_views,
    )
    impurity = None
    for member in bundle.members:
        trees_of = FAMILY_TABLE[member.family].trees
        if trees_of is not None:
            impurity = impurity_importance(trees_of(member.model), X_train.feature_names)
            break

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
        "scheme": config.scheme,
        **section,
        "importance": {
            "permutation": perm.to_dict(),
            "impurity": None if impurity is None else impurity.to_dict(),
        },
    }

    dump_json(bundle_to_dict(bundle), bundle_path, compact=True)
    dump_json(report, report_path)
    _write_holdout_episodes(holdout_path, episodes, hold_idx.tolist())

    plot_paths = _emit_plots(os.path.join(config.out_dir, "plots"), bundle, X_hold, y_hold, hold_views, section, perm)

    return {
        "bundle": bundle_path,
        "report": report_path,
        "holdout_episodes": holdout_path,
        "plots": plot_paths,
        "selected": section["selected"],
        "ensemble_validation": section["ensemble_validation"],
    }


def load_bundle(path):
    return bundle_from_dict(load_json(path))


def _load_for_scoring(bundle_path, episodes_path, credits_path, genres_path, platform_path, alias_path):
    """Load a bundle and scoring inputs and build their features.

    Returns (bundle, table, X) with X transformed by the bundle's own
    preprocessor.
    """
    bundle = load_bundle(bundle_path)
    try:
        reference = datetime.date.fromisoformat(bundle.meta["reference_date"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{bundle_path}: bundle meta needs an ISO reference_date ({exc!r})") from exc
    episodes, credits, genres, platform = load_inputs(
        episodes_path, credits_path, genres_path, platform_path, alias_path
    )
    # scoring a subset of episodes against the full metadata catalog is
    # normal here; the unknown-series warnings only matter at train time
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*for unknown series.*")
        table, _ = build_model_table(episodes, credits, genres, platform, reference)
    X = transform(bundle.preprocessor, feature_table(table))
    return bundle, table, X


def run_predict(bundle_path, episodes_path, credits_path, genres_path, platform_path, out_path, alias_path=None):
    """Write predictions.csv for new episodes; returns a summary dict."""
    bundle, table, X = _load_for_scoring(
        bundle_path, episodes_path, credits_path, genres_path, platform_path, alias_path
    )
    views, clamped = predict_views(bundle, X.values)

    out_dir = os.path.dirname(os.path.abspath(out_path))
    os.makedirs(out_dir, exist_ok=True)
    # tolist gives Python floats, which write_csv writes by repr
    write_csv(
        out_path,
        PREDICTION_COLUMNS,
        zip(table.column("series_id"), table.column("episode_id"), views.tolist(), clamped.astype(int).tolist()),
    )
    return {"out": out_path, "n_rows": int(len(views)), "n_clamped": int(clamped.sum())}


def run_evaluate(bundle_path, episodes_path, credits_path, genres_path, platform_path, out_dir, alias_path=None):
    """Score a bundle against episodes with known views; writes report + plots.

    The report is the scoring section of score_bundle plus a schema version.
    The views must pass the training target rule: present, finite and >= 0.
    """
    bundle, table, X = _load_for_scoring(
        bundle_path, episodes_path, credits_path, genres_path, platform_path, alias_path
    )
    _, y = build_dataset(table)
    section, views = score_bundle(bundle, bundle_member_views(bundle, X.values), y, table.column("series_id"))

    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, "evaluation_report.json")
    dump_json({"schema_version": REPORT_SCHEMA_VERSION, **section}, report_path)
    plot_paths = _emit_plots(os.path.join(out_dir, "plots"), bundle, X, y, views, section, None)
    return {"report": report_path, "plots": plot_paths, "metrics": section["ensemble_validation"]}


def _json_kind(value):
    """A value's JSON kind for verify; null is a number, as a null accuracy stands for one."""
    if value is None or (isinstance(value, (int, float)) and not isinstance(value, bool)):
        return "number"
    return type(value).__name__


def run_verify(bundle_path, report_path, episodes_path, credits_path, genres_path, platform_path, alias_path=None):
    """Recompute the training report's scoring section from the bundle.

    score_bundle on the holdout episodes must reproduce the report's section
    exactly, leaf for leaf; the report's ``validation`` and
    ``validation_clamped`` are compared for the selected families only, as
    the other candidates are not in the bundle. Each member's bundle MAPE,
    and the bundle weights rederived from the recomputed MAPEs, are checked
    too. Returns (ok, mismatches), each mismatch naming its key path. A
    missing key, or a value of another JSON kind than the recomputed one,
    is a DataError: the report is malformed, not unreproduced.
    """
    bundle, table, X = _load_for_scoring(
        bundle_path, episodes_path, credits_path, genres_path, platform_path, alias_path
    )
    report = load_json(report_path)
    if not isinstance(report, dict):
        raise DataError(f"{report_path}: training report must be a JSON object")
    _, y = build_dataset(table)
    section, _ = score_bundle(bundle, bundle_member_views(bundle, X.values), y, table.column("series_id"))

    stored = {key: report[key] for key in section if key in report}
    for key in ("validation", "validation_clamped"):
        if isinstance(stored.get(key), dict):
            stored[key] = {f: v for f, v in stored[key].items() if f in section[key]}

    mismatches = []

    def compare(got, want, path):
        if _json_kind(got) != _json_kind(want):
            raise DataError(f"{report_path}: {path} is a {_json_kind(want)}, expected a {_json_kind(got)}")
        if isinstance(got, dict):
            for key, value in got.items():
                at = f"{path}.{key}" if path else key
                if key not in want:
                    raise DataError(f"{report_path}: training report lacks {at}")
                compare(value, want[key], at)
            extra = sorted(want.keys() - got.keys())
            mismatches.extend(f"{path}.{key}: not in the recomputed section" for key in extra)
        elif isinstance(got, list) and len(got) != len(want):
            mismatches.append(f"{path}: recomputed {len(got)} entries != reported {len(want)}")
        elif isinstance(got, list):
            for i, (g, w) in enumerate(zip(got, want)):
                compare(g, w, f"{path}[{i}]")
        elif got != want:
            mismatches.append(f"{path}: recomputed {got!r} != reported {want!r}")

    compare(section, stored, "")

    mapes = [section["validation"][m.family]["mape"] for m in bundle.members]
    # all-zero views have no MAPE (the section check names it), so no weights either
    weights = [None] * len(mapes) if None in mapes else compute_weights(mapes, bundle.scheme)
    for member, member_mape, weight in zip(bundle.members, mapes, weights):
        family = member.family
        if member_mape != member.validation_mape:
            mismatches.append(f"bundle member {family} validation_mape: recomputed {member_mape!r} != {member.validation_mape!r}")
        if weight != member.weight:
            mismatches.append(f"bundle member {family} weight: recomputed {weight!r} != {member.weight!r}")
    return not mismatches, mismatches
