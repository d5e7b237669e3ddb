import base64
import csv
import io
import json
import warnings
import zlib

import numpy as np
import pytest

from coldstart.cli import main
from coldstart.ensemble import bundle_from_dict, bundle_to_dict
from coldstart.errors import DataError
from coldstart.families import DEFAULT_PARAMS
from coldstart.pipeline import RunConfig, _json_kind, load_bundle, run_evaluate, run_predict, run_train, run_verify
from coldstart.synth import SynthConfig, generate
from coldstart.trees import trees_from_block, trees_to_block
from coldstart.util import load_json
from tree_oracles import stack_right


def run_cli(*args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(list(args))


# --- synth -------------------------------------------------------------------

def test_synth_writes_five_files(tmp_path, capsys):
    code = run_cli("synth", "--out", str(tmp_path), "--seed", "42", "--series", "6")
    assert code == 0
    for name in ["episodes.csv", "credits.csv", "genres.csv", "platform.csv", "ground_truth.json"]:
        assert (tmp_path / name).exists()


def test_synth_rerun_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("synth", "--out", str(a), "--seed", "3", "--series", "5") == 0
    assert run_cli("synth", "--out", str(b), "--seed", "3", "--series", "5") == 0
    for name in ["episodes.csv", "credits.csv", "genres.csv", "platform.csv", "ground_truth.json"]:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_invalid_noise_sigma_names_flag(tmp_path, capsys):
    code = run_cli("synth", "--out", str(tmp_path), "--noise-sigma", "-0.1")
    assert code == 3
    assert "noise_sigma" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        (["--noise-sigma", "nan"], "noise_sigma must be a finite number >= 0, got nan"),
        (["--noise-sigma", "inf"], "noise_sigma must be a finite number >= 0, got inf"),
        # checked before any draw: generating would take ~400k episodes before the dates overflow
        (["--episodes-max", "1000000000000"], "episodes_max 1000000000000 puts release dates past 9999-12-31"),
        # exp of a normal draw at this sigma overflows
        (["--noise-sigma", "1000"], "noise_sigma must be at most 10.0, got 1000.0"),
    ],
)
def test_synth_bad_config_exits_3_before_writing(flags, message, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("synth", "--out", str(out), "--series", "2", *flags) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and message in err
    assert not out.exists()


def test_usage_errors_exit_2(tmp_path):
    assert run_cli() == 2
    assert run_cli("train") == 2  # no inputs given
    assert run_cli("no-such-command") == 2


def test_missing_file_is_data_error(tmp_path):
    code = run_cli(
        "train",
        "--episodes", str(tmp_path / "nope.csv"),
        "--credits", str(tmp_path / "nope2.csv"),
        "--genres", str(tmp_path / "nope3.csv"),
        "--platform", str(tmp_path / "nope4.csv"),
        "--out", str(tmp_path / "out"),
    )
    assert code == 3


# --- train -------------------------------------------------------------------

def test_train_bundle_contract(tiny_run):
    bundle_doc = load_json(tiny_run.result["bundle"])
    members = bundle_doc["members"]
    assert len(members) == 3
    assert abs(sum(m["weight"] for m in members) - 1.0) < 1e-12
    mapes = [m["validation_mape"] for m in members]
    assert mapes == sorted(mapes)
    assert bundle_doc["preprocessor"] is not None
    assert bundle_doc["meta"]["seed"] == 5


def test_train_report_contents(tiny_run):
    report = tiny_run.report
    assert set(report["selected"]) <= {"gbt", "lasso", "ridge"}
    assert report["n_train"] + report["n_holdout"] == report["n_rows"]
    assert sum(report["error_buckets"]["before"]) == sum(report["error_buckets"]["after"])
    assert len(report["error_buckets"]["after"]) == 5  # the five-bucket table shape
    assert report["error_buckets"]["edges"] == [10.0, 20.0, 30.0, 40.0]
    per_series = report["per_series"]
    assert sum(r["n_episodes"] for r in per_series) == report["n_holdout"]
    perm = report["importance"]["permutation"]["features"]
    assert len(perm) == len(report["feature_names"])


def test_train_emits_plots_and_holdout(tiny_run):
    assert (tiny_run.out_dir / "plots" / "actual_vs_predicted.svg").exists()
    assert (tiny_run.out_dir / "plots" / "correlation_heatmap.svg").exists()
    assert (tiny_run.out_dir / "plots" / "importance.svg").exists()
    assert (tiny_run.out_dir / "plots" / "error_buckets.svg").exists()
    with open(tiny_run.out_dir / "holdout_episodes.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == tiny_run.report["n_holdout"]


def test_train_cli_flags_override_config(tmp_path, tiny_run):
    config_path = tmp_path / "cfg.json"
    cfg = dict(tiny_run.config.to_dict())
    cfg["out_dir"] = str(tmp_path / "out_a")
    config_path.write_text(json.dumps(cfg))
    code = run_cli("train", "--config", str(config_path), "--out", str(tmp_path / "out_b"))
    assert code == 0
    assert (tmp_path / "out_b" / "bundle.json").exists()
    assert not (tmp_path / "out_a").exists()


def test_train_drops_the_families_whose_cv_score_is_undefined(tmp_path):
    # the linear families are scored by r2, undefined on a fold of one row
    # where the MAPE that scores gbt is not: 7 training rows in 5 folds
    data = tmp_path / "data"
    generate(SynthConfig(n_series=3, episodes_min=2, episodes_max=3, seed=1), data)
    paths = {name: str(data / f"{name}.csv") for name in ("episodes", "credits", "genres", "platform")}
    config = RunConfig(**paths, out_dir=str(tmp_path / "out"), families=["gbt", "lasso"], n_iter=1, cv_folds=5)
    with pytest.warns(UserWarning, match=r"lasso: dropped, its search score is undefined \(r2 needs at least 2 rows\)"):
        result = run_train(config)
    report = load_json(result["report"])
    assert report["n_train"] == 7
    assert report["selected"] == ["gbt"] and list(report["cv_results"]) == ["gbt"]


@pytest.mark.parametrize("field, value", [("scheme", "median"), ("top_k", 0), ("top_k", -4)])
def test_run_config_rejects_unknown_scheme_and_top_k_below_one(field, value):
    # rejected before any input is read or model fit
    paths = {name: f"{name}.csv" for name in ("episodes", "credits", "genres", "platform")}
    with pytest.raises(DataError, match=field):
        RunConfig(**paths, out_dir="out", **{field: value})


# --- predict -----------------------------------------------------------------

def test_predict_on_holdout_matches_evaluate(tiny_run, tmp_path):
    out_csv = tmp_path / "preds.csv"
    summary = run_predict(
        tiny_run.result["bundle"],
        tiny_run.result["holdout_episodes"],
        str(tiny_run.data_dir / "credits.csv"),
        str(tiny_run.data_dir / "genres.csv"),
        str(tiny_run.data_dir / "platform.csv"),
        str(out_csv),
    )
    assert summary["n_rows"] == tiny_run.report["n_holdout"]
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    preds = np.array([float(r["predicted_views"]) for r in rows])
    actual = np.array(
        [float(r["views"]) for r in csv.DictReader(open(tiny_run.result["holdout_episodes"]))]
    )
    from coldstart.metrics import mape

    assert abs(mape(actual, preds) - tiny_run.report["ensemble_validation"]["mape"]) < 1e-9
    assert np.all(preds >= 0)


def test_predict_rerun_identical(tiny_run, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        run_predict(
            tiny_run.result["bundle"],
            tiny_run.result["holdout_episodes"],
            str(tiny_run.data_dir / "credits.csv"),
            str(tiny_run.data_dir / "genres.csv"),
            str(tiny_run.data_dir / "platform.csv"),
            str(out),
        )
    assert a.read_bytes() == b.read_bytes()


def test_predict_handles_unseen_genre(tiny_run, tmp_path):
    genres = tmp_path / "genres.csv"
    original = open(tiny_run.data_dir / "genres.csv").read()
    genres.write_text(original + "S001,weird-new-genre,imdb\n")
    out_csv = tmp_path / "preds.csv"
    summary = run_predict(
        tiny_run.result["bundle"],
        tiny_run.result["holdout_episodes"],
        str(tiny_run.data_dir / "credits.csv"),
        str(genres),
        str(tiny_run.data_dir / "platform.csv"),
        str(out_csv),
    )
    assert summary["n_rows"] > 0  # cold-start path succeeds


def test_predict_clamps_negative_linear_extrapolation(tiny_run, tmp_path):
    # splice a wildly negative linear member into a copy of the bundle
    doc = load_json(tiny_run.result["bundle"])
    member = None
    for m in doc["members"]:
        if m["family"] in ("lasso", "ridge"):
            member = dict(m)
            break
    assert member is not None
    member["model"] = dict(member["model"])
    member["model"]["intercept"] = -1e9
    member["weight"] = 1.0
    member["validation_mape"] = doc["members"][0]["validation_mape"]
    doc["members"] = [member]
    doc["meta"] = dict(doc["meta"], target_transform="none")
    tampered = tmp_path / "bundle.json"
    tampered.write_text(json.dumps(doc))

    out_csv = tmp_path / "preds.csv"
    summary = run_predict(
        str(tampered),
        tiny_run.result["holdout_episodes"],
        str(tiny_run.data_dir / "credits.csv"),
        str(tiny_run.data_dir / "genres.csv"),
        str(tiny_run.data_dir / "platform.csv"),
        str(out_csv),
    )
    assert summary["n_clamped"] == summary["n_rows"]
    rows = list(csv.DictReader(open(out_csv)))
    assert all(float(r["predicted_views"]) == 0.0 for r in rows)
    assert all(r["clamped"] == "1" for r in rows)


# --- evaluate ----------------------------------------------------------------

def test_evaluate_reproduces_training_validation(tiny_run, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_evaluate(
            tiny_run.result["bundle"],
            tiny_run.result["holdout_episodes"],
            str(tiny_run.data_dir / "credits.csv"),
            str(tiny_run.data_dir / "genres.csv"),
            str(tiny_run.data_dir / "platform.csv"),
            str(tmp_path / "eval"),
        )
    got = result["metrics"]
    want = tiny_run.report["ensemble_validation"]
    for key in ("mape", "smape", "r2"):
        assert abs(got[key] - want[key]) < 1e-9
    doc = load_json(result["report"])
    assert sum(r["n_episodes"] for r in doc["per_series"]) == tiny_run.report["n_holdout"]
    assert len(doc["error_buckets"]["before"]) == 5
    assert len(doc["error_buckets"]["after"]) == 5


SECTION_KEYS = (
    "selected",
    "weights",
    "validation",
    "validation_clamped",
    "ensemble_validation",
    "ensemble_clamped",
    "error_buckets",
    "per_series",
)


def test_evaluate_on_holdout_reproduces_training_section(tiny_run, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_evaluate(
            tiny_run.result["bundle"],
            tiny_run.result["holdout_episodes"],
            str(tiny_run.data_dir / "credits.csv"),
            str(tiny_run.data_dir / "genres.csv"),
            str(tiny_run.data_dir / "platform.csv"),
            str(tmp_path / "eval"),
        )
    doc = load_json(result["report"])
    assert doc.pop("schema_version") == 1
    want = {key: tiny_run.report[key] for key in SECTION_KEYS}
    for key in ("validation", "validation_clamped"):
        want[key] = {family: want[key][family] for family in tiny_run.report["selected"]}
    assert doc == want


def test_evaluate_rejects_missing_views(tiny_run, tmp_path, capsys):
    lines = open(tiny_run.result["holdout_episodes"]).read().splitlines()
    header = lines[0].split(",")
    views_pos = header.index("views")
    cells = lines[1].split(",")
    cells[views_pos] = ""
    lines[1] = ",".join(cells)
    broken = tmp_path / "episodes.csv"
    broken.write_text("\n".join(lines) + "\n")
    code = run_cli(
        "evaluate",
        "--bundle", tiny_run.result["bundle"],
        "--episodes", str(broken),
        "--credits", str(tiny_run.data_dir / "credits.csv"),
        "--genres", str(tiny_run.data_dir / "genres.csv"),
        "--platform", str(tiny_run.data_dir / "platform.csv"),
        "--out", str(tmp_path / "eval"),
    )
    assert code == 3
    assert "first at data row 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "verify"])
def test_scoring_rejects_a_negative_view_as_training_does(command, tiny_run, tmp_path, capsys):
    rows = list(csv.reader(open(tiny_run.result["holdout_episodes"], newline="")))
    rows[2][rows[0].index("views")] = "-500"
    bad = tmp_path / "episodes.csv"
    with open(bad, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    inputs = [
        "--episodes", str(bad),
        "--credits", str(tiny_run.data_dir / "credits.csv"),
        "--genres", str(tiny_run.data_dir / "genres.csv"),
        "--platform", str(tiny_run.data_dir / "platform.csv"),
    ]
    if command == "evaluate":
        argv = ["evaluate", "--bundle", tiny_run.result["bundle"], *inputs, "--out", str(tmp_path / "eval")]
    else:
        argv = ["verify", "--bundle", tiny_run.result["bundle"], "--report", tiny_run.result["report"], *inputs]
    assert run_cli(*argv) == 3
    assert "target contains negative values" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


def test_train_names_the_data_row_of_a_missing_view(tiny_run, tmp_path, capsys):
    rows = list(csv.reader(open(tiny_run.data_dir / "episodes.csv", newline="")))
    rows[4][rows[0].index("views")] = ""
    gap = tmp_path / "episodes.csv"
    with open(gap, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**tiny_run.config.to_dict(), "episodes": str(gap)}))
    code = run_cli("train", "--config", str(config), "--out", str(tmp_path / "out"))
    assert code == 3
    assert "target column 'views' is missing values (first at data row 5)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_conflicting_genre_alias_exits_3_naming_both_rows(tiny_run, tmp_path, capsys):
    aliases = tmp_path / "aliases.csv"
    aliases.write_text("alias,canonical\nSci-Fi,scifi\nSci-Fi,drama\n", encoding="utf-8")
    code = run_cli(
        "predict",
        "--bundle", tiny_run.result["bundle"],
        "--episodes", str(tiny_run.data_dir / "episodes.csv"),
        "--credits", str(tiny_run.data_dir / "credits.csv"),
        "--genres", str(tiny_run.data_dir / "genres.csv"),
        "--platform", str(tiny_run.data_dir / "platform.csv"),
        "--genre-alias", str(aliases),
        "--out", str(tmp_path / "predictions.csv"),
    )
    assert code == 3
    assert "row 3 maps alias 'Sci-Fi' to 'drama', but row 2 maps it to 'scifi'" in capsys.readouterr().err


def test_evaluate_one_episode_reports_null_r2(tiny_run, tmp_path, capsys):
    lines = open(tiny_run.result["holdout_episodes"]).read().splitlines()
    one = tmp_path / "episodes.csv"
    one.write_text("\n".join(lines[:2]) + "\n")
    code = run_cli(
        "evaluate",
        "--bundle", tiny_run.result["bundle"],
        "--episodes", str(one),
        "--credits", str(tiny_run.data_dir / "credits.csv"),
        "--genres", str(tiny_run.data_dir / "genres.csv"),
        "--platform", str(tiny_run.data_dir / "platform.csv"),
        "--out", str(tmp_path / "eval"),
    )
    assert code == 0
    assert "R2 undefined" in capsys.readouterr().out
    doc = load_json(tmp_path / "eval" / "evaluation_report.json")
    assert doc.pop("schema_version") == 1
    assert sorted(doc) == sorted(SECTION_KEYS)
    assert doc["ensemble_validation"]["r2"] is None
    assert doc["ensemble_validation"]["n_scored"] == 1
    # every leaf has the JSON kind verify expects at that path of a full report
    for keys in _leaves(doc, ()):
        assert _json_kind(_at(doc, keys)) == _json_kind(_at(tiny_run.report, keys)), _key_path(keys)


def test_evaluate_all_zero_views_reports_null_mape(tiny_run, tmp_path, capsys):
    rows = list(csv.reader(open(tiny_run.result["holdout_episodes"], newline="")))
    rows[1][rows[0].index("views")] = "0"
    one = tmp_path / "episodes.csv"
    with open(one, "w", newline="") as fh:
        csv.writer(fh).writerows(rows[:2])
    code = run_cli(
        "evaluate",
        "--bundle", tiny_run.result["bundle"],
        "--episodes", str(one),
        "--credits", str(tiny_run.data_dir / "credits.csv"),
        "--genres", str(tiny_run.data_dir / "genres.csv"),
        "--platform", str(tiny_run.data_dir / "platform.csv"),
        "--out", str(tmp_path / "eval"),
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "MAPE undefined" in out and "R2 undefined" in out
    doc = load_json(tmp_path / "eval" / "evaluation_report.json")
    assert doc.pop("schema_version") == 1
    assert sorted(doc) == sorted(SECTION_KEYS)
    assert doc["ensemble_validation"]["mape"] is None
    assert doc["ensemble_validation"]["n_scored"] == 0
    assert doc["ensemble_validation"]["n_excluded_zero_target"] == 1
    assert all(report["mape"] is None for report in doc["validation"].values())
    assert doc["error_buckets"]["before"] == doc["error_buckets"]["after"] == [0] * 5
    assert doc["per_series"][0]["accuracy"] is None
    for keys in _leaves(doc, ()):
        assert _json_kind(_at(doc, keys)) == _json_kind(_at(tiny_run.report, keys)), _key_path(keys)


def test_train_on_all_zero_holdout_names_the_cause(tiny_run, tmp_path, capsys):
    rows = list(csv.reader(open(tiny_run.data_dir / "episodes.csv", newline="")))
    views = rows[0].index("views")
    for row in rows[1:]:
        row[views] = "0"
    zero = tmp_path / "episodes.csv"
    with open(zero, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**tiny_run.config.to_dict(), "episodes": str(zero)}))
    code = run_cli("train", "--config", str(config), "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 3
    assert "every holdout episode has zero views" in err and "MAPE is undefined" in err


# --- verify ------------------------------------------------------------------

def _verify(tiny_run, report_path):
    return run_verify(
        tiny_run.result["bundle"],
        str(report_path),
        tiny_run.result["holdout_episodes"],
        str(tiny_run.data_dir / "credits.csv"),
        str(tiny_run.data_dir / "genres.csv"),
        str(tiny_run.data_dir / "platform.csv"),
    )


def test_verify_passes_on_intact_artifacts(tiny_run):
    ok, mismatches = _verify(tiny_run, tiny_run.result["report"])
    assert ok, mismatches


def _leaves(value, keys):
    """Key tuples of every leaf under ``value``, which sits at ``keys``."""
    if isinstance(value, dict):
        return [leaf for k, v in value.items() for leaf in _leaves(v, keys + (k,))]
    if isinstance(value, list):
        return [leaf for i, v in enumerate(value) for leaf in _leaves(v, keys + (i,))]
    return [keys]


def _key_path(keys):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")


def _at(doc, keys):
    for k in keys:
        doc = doc[k]
    return doc


def test_verify_names_every_tampered_scoring_leaf(tiny_run, tmp_path):
    report = tiny_run.report
    selected = report["selected"]
    roots = [("ensemble_validation",), ("ensemble_clamped",), ("error_buckets",), ("per_series", 0)]
    roots += [(key, family) for key in ("validation", "validation_clamped") for family in selected]
    # (keys of the edited value, its new value or None to perturb it, path verify must name)
    cases = [(keys, None, _key_path(keys)) for root in roots for keys in _leaves(_at(report, root), root)]
    cases += [
        (("selected",), selected[::-1], "selected[0]"),
        (("weights", selected[0]), None, f"weights.{selected[0]}"),
    ]

    tampered = tmp_path / "report.json"
    for keys, new, path in cases:
        doc = json.loads(json.dumps(report))
        old = _at(doc, keys)
        if new is None:
            new = old + "x" if isinstance(old, str) else 1.0 if old is None else old + 1
        _at(doc, keys[:-1])[keys[-1]] = new
        tampered.write_text(json.dumps(doc))
        ok, mismatches = _verify(tiny_run, tampered)
        assert not ok, path
        assert any(m.split(": ")[0] == path for m in mismatches), (path, mismatches)


def test_verify_catches_tampered_report(tiny_run, tmp_path):
    doc = load_json(tiny_run.result["report"])
    doc["ensemble_validation"]["mape"] += 0.5
    tampered = tmp_path / "report.json"
    tampered.write_text(json.dumps(doc))
    code = run_cli(
        "verify",
        "--bundle", tiny_run.result["bundle"],
        "--report", str(tampered),
        "--episodes", tiny_run.result["holdout_episodes"],
        "--credits", str(tiny_run.data_dir / "credits.csv"),
        "--genres", str(tiny_run.data_dir / "genres.csv"),
        "--platform", str(tiny_run.data_dir / "platform.csv"),
    )
    assert code == 4


def test_bundle_file_is_compact_json(tiny_run):
    raw = open(tiny_run.result["bundle"], "rb").read()
    assert b"\n" not in raw[:-1]
    assert json.loads(raw) == bundle_to_dict(load_bundle(tiny_run.result["bundle"]))


def test_bundle_stores_the_feature_layout_once(tiny_run):
    # the preprocessor's column states fix the feature names, order and width
    doc = load_json(tiny_run.result["bundle"])
    assert sorted(doc["meta"]) == ["config_digest", "reference_date", "seed", "target_transform"]
    assert sorted(doc["preprocessor"]) == ["categorical", "numeric"]


def test_bundle_encoding_is_deterministic(tiny_run):
    bundle = load_bundle(tiny_run.result["bundle"])
    first, second = bundle_to_dict(bundle), bundle_to_dict(bundle)
    assert any("trees" in m["model"] for m in first["members"])  # a deflated tree block among them
    assert first == second


def test_bundle_round_trip_predicts_identically(tiny_run):
    bundle = load_bundle(tiny_run.result["bundle"])
    clone = bundle_from_dict(bundle_to_dict(bundle))
    rng = np.random.default_rng(0)
    prep = bundle.preprocessor
    X = rng.normal(size=(100, len(prep.numeric) + sum(len(c.categories) for c in prep.categorical)))
    from coldstart.pipeline import predict_views

    a, _ = predict_views(bundle, X)
    b, _ = predict_views(clone, X)
    assert np.array_equal(a, b)


def test_gbt_base_prediction_as_a_json_int_predicts_as_the_float(tiny_run, tmp_path):
    data = tiny_run.data_dir
    written = []
    for literal in ("3", "3.0"):
        bundle = tmp_path / f"bundle_{literal}.json"
        bundle.write_bytes(_bundle_number(lambda d: (_member(d, "gbt")["model"], "base_prediction"), literal)(tiny_run))
        out = tmp_path / f"predictions_{literal}.csv"
        code = run_cli(
            "predict", "--bundle", str(bundle), "--episodes", str(data / "episodes.csv"),
            "--credits", str(data / "credits.csv"), "--genres", str(data / "genres.csv"),
            "--platform", str(data / "platform.csv"), "--out", str(out),
        )
        assert code == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


# --- bad inputs ----------------------------------------------------------------

def _edited(kind, edit):
    """Content maker: the tiny run's bundle or report JSON after ``edit(doc)``."""

    def content(tiny_run):
        doc = load_json(tiny_run.result[kind])
        edit(doc)
        return json.dumps(doc).encode("utf-8")

    return content


def _member(doc, family):
    """The first member of ``family`` in a bundle document."""
    return next(m for m in doc["members"] if m["family"] == family)


BLOCK_DTYPES = {"feature": "<i4", "threshold": "<f8", "value": "<f8"}


def _inflated(text, dtype):
    """A packed block array decoded without the codec: base64, inflate, dtype."""
    return np.frombuffer(zlib.decompress(base64.b64decode(text)), dtype=dtype).copy()


def _deflated(raw):
    return base64.b64encode(zlib.compress(raw)).decode("ascii")


def _gbt_block(edit):
    """Content maker: the tiny run's bundle after ``edit(sizes, arrays)`` on
    the gbt member's packed tree block. ``arrays`` holds the block's arrays
    decoded (feature per node, threshold per internal node, value per leaf),
    and each is deflated back from its own dtype and bytes (or from the
    bytes the edit puts in its place)."""

    def edit_bundle(doc):
        model = _member(doc, "gbt")["model"]
        block = model["trees"]
        sizes = block["sizes"]
        arrays = {k: _inflated(block[k], t) for k, t in BLOCK_DTYPES.items()}
        edit(sizes, arrays)
        packed = {k: a if isinstance(a, bytes) else a.tobytes() for k, a in arrays.items()}
        model["trees"] = {"sizes": sizes, **{k: _deflated(raw) for k, raw in packed.items()}}

    return _edited("bundle", edit_bundle)


def _last_node_internal(sizes, arrays):
    """Make the block's last node (a leaf) internal, keeping every count
    consistent: one more threshold, one value fewer."""
    arrays["feature"][-1] = 0
    arrays["threshold"] = np.append(arrays["threshold"], 0.0)
    arrays["value"] = arrays["value"][:-1]


def _first_tree_cut_short(sizes, arrays):
    """Move the first tree's last node (a leaf) into the second tree: the
    first tree's flags then leave a right child past its last node."""
    sizes[0] -= 1
    sizes[1] += 1


def _split_feature_at_width(doc):
    """Point the gbt member's first split at column ``n_features``, one past
    the last column of the matrix it scores."""
    model = _member(doc, "gbt")["model"]
    feature = _inflated(model["trees"]["feature"], "<i4")
    feature[np.flatnonzero(feature >= 0)[0]] = model["n_features"]
    model["trees"]["feature"] = _deflated(feature.tobytes())


# each family's model "kind" up to version 6, and where version 3 kept a
# tree model's per-tree lists
V6_KINDS = {
    "decision_tree": "tree", "random_forest": "forest", "gbt": "gbt",
    "lasso": "linear", "ridge": "linear", "elastic_net": "linear",
}
V3_TREE_KEYS = {"decision_tree": "root", "random_forest": "trees", "gbt": "stages"}


def _right(tree):
    """Each node's tree-local right child, 0 at a leaf, as versions 3 to 7 stored it."""
    return np.where(tree.feature >= 0, stack_right(tree.feature), 0)


def _as_v9(doc):
    """A bundle in the version-9 layout: a decision tree's model holds no
    ``n_features``."""
    doc["schema_version"] = 9
    for member in doc["members"]:
        if member["family"] == "decision_tree":
            member["model"].pop("n_features")


def _as_v8(doc):
    """A bundle in the version-8 layout: the version-9 one, with ``meta``
    also listing the feature names, and the preprocessor its fit-time
    [name, role] pairs."""
    _as_v9(doc)
    doc["schema_version"] = 8
    prep = doc["preprocessor"]
    doc["meta"]["feature_names"] = [c["name"] for c in prep["numeric"]] + [
        f"{c['name']}={cat}" for c in prep["categorical"] for cat in c["categories"]
    ]
    prep["schema"] = [[c["name"], role] for role in ("numeric", "categorical") for c in prep[role]]


def _as_v7(doc):
    """A bundle in the version-7 layout: the version-8 one, with each tree
    block also storing a ``right`` array, the tree-local id of each
    internal node's right child."""
    _as_v8(doc)
    doc["schema_version"] = 7
    for member in doc["members"]:
        if member["family"] in V3_TREE_KEYS:
            block = member["model"]["trees"]
            right = [_right(t)[t.feature >= 0] for t in trees_from_block(block)]
            block["right"] = _deflated(np.concatenate([np.empty(0, dtype="<i4"), *right]).astype("<i4").tobytes())


def _as_v6(doc):
    """A bundle in the version-6 layout: the version-7 one, with each model
    dict naming its kind and repeating parameter values of its member's
    params, and the preprocessor naming its two imputation strategies."""
    _as_v7(doc)
    doc["schema_version"] = 6
    doc["preprocessor"].update(strategy_numeric="median", strategy_categorical="mode")
    for member in doc["members"]:
        params, model = member["params"], member["model"]
        kind = model["kind"] = V6_KINDS[member["family"]]
        if kind == "forest":
            tree_params = {name: params[name] for name in ("max_depth", "min_samples_split", "max_features")}
            model.update(n_estimators=params["n_estimators"], params={**tree_params, "seed": 0})
        elif kind == "gbt":
            model["learning_rate"] = params["learning_rate"]
        elif kind == "linear":
            model.update(alpha=params["alpha"], l1_ratio=params["l1_ratio"])


def _as_v5(doc):
    """A bundle in the version-5 layout: the version-6 one with each packed
    tree array stored raw, not deflated."""
    _as_v6(doc)
    doc["schema_version"] = 5
    for member in doc["members"]:
        if member["family"] in V3_TREE_KEYS:
            block = member["model"]["trees"]
            for k in (*BLOCK_DTYPES, "right"):
                block[k] = base64.b64encode(zlib.decompress(base64.b64decode(block[k]))).decode("ascii")


def _as_v4(doc):
    """A bundle in the version-4 layout: raw tree arrays, as in version 5,
    and a preprocessor that also lists its passthrough columns."""
    _as_v5(doc)
    doc["schema_version"] = 4
    doc["preprocessor"]["passthrough"] = []


def _as_v3(doc):
    """A bundle in the version-3 layout: one dict of four per-node lists per
    tree, 0 at the entries prediction does not read, and the version-8
    feature names and preprocessor schema."""
    _as_v8(doc)
    doc["schema_version"] = 3
    for member in doc["members"]:
        model = member["model"]
        key = V3_TREE_KEYS.get(member["family"])
        if key is not None:
            decoded = [
                {"feature": t.feature.tolist(), "threshold": t.threshold.tolist(), "right": _right(t).tolist(),
                 "value": t.value.tolist()}
                for t in trees_from_block(model.pop("trees"))
            ]
            model[key] = decoded[0] if key == "root" else decoded


def _bundle_number(place, literal):
    """Content maker: the tiny run's bundle with the number that ``place(doc)``
    returns as (container, key) written as the raw JSON text ``literal``."""

    def content(tiny_run):
        doc = load_json(tiny_run.result["bundle"])
        container, key = place(doc)
        container[key] = "@number@"
        return json.dumps(doc).replace('"@number@"', literal).encode("utf-8")

    return content


def _csv_source(tiny_run, name):
    if name == "holdout":
        return tiny_run.result["holdout_episodes"]
    return tiny_run.data_dir / name


def _csv_cell(name, column, value):
    """Content maker: a tiny-run CSV with ``column`` of its first data row set to ``value``."""

    def content(tiny_run):
        with open(_csv_source(tiny_run, name), newline="") as fh:
            rows = list(csv.reader(fh))
        rows[1][rows[0].index(column)] = value
        out = io.StringIO()
        csv.writer(out).writerows(rows)
        return out.getvalue().encode("utf-8")

    return content


def _config(**fields):
    """Content maker: a config file holding ``fields``."""
    return lambda run: json.dumps(fields).encode("utf-8")


def _duplicated_platform_row(tiny_run):
    """platform.csv with its first data row written twice."""
    lines = (tiny_run.data_dir / "platform.csv").read_text().splitlines(keepends=True)
    return "".join(lines[:2] + lines[1:]).encode("utf-8")


def _truncated_episodes(tiny_run):
    """episodes.csv cut off two characters into the fourth row's episode id."""
    lines = (tiny_run.data_dir / "episodes.csv").read_text().splitlines(keepends=True)
    return ("".join(lines[:3]) + lines[3][: lines[3].index(",") + 3]).encode("utf-8")


def _forest_member(doc):
    """The bundle's gbt member, turned into a random forest of the same trees."""
    member = _member(doc, "gbt")
    n_trees = len(member["model"]["trees"]["sizes"])
    member.update(family="random_forest", params={**DEFAULT_PARAMS["random_forest"], "n_estimators": n_trees})
    member["model"].pop("base_prediction")
    return member


def _first_trees(model, n):
    """Cut a tree model dict's block to its first ``n`` trees."""
    model["trees"] = trees_to_block(trees_from_block(model["trees"])[:n])


def _forest_of_5_said_3(doc):
    """A forest member whose block holds 5 trees and whose params say 3."""
    member = _forest_member(doc)
    _first_trees(member["model"], 5)
    member["params"]["n_estimators"] = 3


def _second_weight_negative(doc):
    """Give the first member the second's weight and 0.1 more, and the second
    a weight of -0.1: the weights still sum to 1, in MAPE order."""
    first, second = doc["members"][:2]
    first["weight"] += second["weight"] + 0.1
    second["weight"] = -0.1


def _decision_tree_one_column_wider(doc):
    """The bundle with one member, a decision tree (the gbt's first stage),
    and a preprocessor whose first categorical column gains a category, so
    that the matrix it scores is one column wider than the tree's."""
    member = _member(doc, "gbt")
    member["model"].pop("base_prediction")
    _first_trees(member["model"], 1)
    member.update(family="decision_tree", params=dict(DEFAULT_PARAMS["decision_tree"]), weight=1.0)
    doc["members"] = [member]
    doc["preprocessor"]["categorical"][0]["categories"].append("zz-unseen")


def _model_field(family, name, value):
    """Content maker: the tiny run's bundle with field ``name`` of the first
    ``family`` member's model set to ``value(its old value)``."""

    def edit(doc):
        member = _forest_member(doc) if family == "random_forest" else _member(doc, family)
        member["model"][name] = value(member["model"][name])

    return _edited("bundle", edit)


# fitted state the decoders check: case -> (family, field, new value from
# the old one); each is a DataError that names the field, so a forest row
# does not pass on an error in the turned member itself
BAD_MODEL_FIELDS = {
    "bundle_forest_n_features_string": ("random_forest", "n_features", str),
    "bundle_forest_n_features_float": ("random_forest", "n_features", float),
    "bundle_gbt_n_features_string": ("gbt", "n_features", str),
    "bundle_gbt_n_features_float": ("gbt", "n_features", float),
    "bundle_gbt_n_features_negative": ("gbt", "n_features", lambda v: -1),
    "bundle_linear_converged_int": ("lasso", "converged", int),
    "bundle_linear_converged_string": ("lasso", "converged", lambda v: str(v).lower()),
    "bundle_linear_n_iterations_float": ("lasso", "n_iterations", float),
    "bundle_linear_n_iterations_zero": ("lasso", "n_iterations", lambda v: 0),
    "bundle_linear_n_iterations_bool": ("lasso", "n_iterations", lambda v: True),
    # a column of coefficients would predict one row of views per episode
    "bundle_linear_coefficients_nested": ("lasso", "coefficients", lambda v: [[c] for c in v]),
}


# case -> (key path verify names, edit): a well-formed report that the bundle
# does not reproduce, so verify exits 4; "{member}" is the first selected family
TAMPERED_REPORTS = {
    "report_per_series_tampered": (
        "per_series[0].accuracy", lambda d: d["per_series"][0].update(accuracy=-1.0)
    ),
    "report_ensemble_clamped_tampered": (
        "ensemble_clamped", lambda d: d.update(ensemble_clamped=d["ensemble_clamped"] + 1)
    ),
    "report_member_r2_tampered": (
        "validation.{member}.r2", lambda d: d["validation"][d["selected"][0]].update(r2=-1.0)
    ),
}

# grid lists outside their parameter's domain: case -> (family, parameter,
# grid list); each config also selects lasso, which the grid leaves valid
BAD_GRID_LISTS = {
    "config_grid_ridge_max_iter_string": ("ridge", "max_iter", ["x"]),
    "config_grid_ridge_max_iter_float": ("ridge", "max_iter", [2.5]),
    "config_grid_ridge_max_iter_zero": ("ridge", "max_iter", [0]),
    "config_grid_ridge_alpha_string": ("ridge", "alpha", ["x"]),
    "config_grid_ridge_alpha_negative": ("ridge", "alpha", [-1]),
    "config_grid_ridge_alpha_empty": ("ridge", "alpha", []),
    "config_grid_gbt_rounds_float": ("gbt", "rounds", [1.5]),
    "config_grid_gbt_rounds_negative": ("gbt", "rounds", [-1]),
    "config_grid_gbt_learning_rate_string": ("gbt", "learning_rate", ["x"]),
    "config_grid_gbt_max_features_half": ("gbt", "max_features", ["half"]),
    "config_grid_random_forest_n_estimators_string": ("random_forest", "n_estimators", ["x"]),
    "config_grid_decision_tree_max_depth_string": ("decision_tree", "max_depth", ["x"]),
    "config_grid_decision_tree_max_depth_float": ("decision_tree", "max_depth", [2.5]),
    "config_grid_decision_tree_min_samples_split_bool": ("decision_tree", "min_samples_split", [True]),
    # sizes that set a fit's work: uncapped, 2**63 trees grew past 7 GB before they were stopped
    "config_grid_random_forest_n_estimators_2_63": ("random_forest", "n_estimators", [2**63]),
    "config_grid_gbt_rounds_2_63": ("gbt", "rounds", [2**63]),
    "config_grid_ridge_max_iter_2_63": ("ridge", "max_iter", [2**63]),
    # a repeat would draw and cross-validate the same candidate twice; values compare by ==
    "config_grid_ridge_alpha_repeats": ("ridge", "alpha", [1.0, 1.0, 1.0]),
    "config_grid_ridge_alpha_int_repeats_as_float": ("ridge", "alpha", [1, 0.5, 1.0]),
}


def _bad_grid_config(family, name, values):
    return _config(families=[family, "lasso"], grids={family: {name: values}})


@pytest.mark.parametrize("case", sorted(BAD_GRID_LISTS))
def test_bad_grid_value_exits_3_before_any_input_is_read(case, tmp_path, capsys):
    # the inputs do not exist, so a check after reading them would name a missing file
    family, name, values = BAD_GRID_LISTS[case]
    config = tmp_path / "cfg.json"
    config.write_bytes(_bad_grid_config(family, name, values)(None))
    inputs = [arg for n in ("episodes", "credits", "genres", "platform") for arg in (f"--{n}", str(tmp_path / n))]
    assert run_cli("train", "--config", str(config), *inputs, "--out", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and "No such file" not in err
    assert family in err and repr(name) in err and repr(values[0] if values else values) in err


# run settings outside their range: case -> (config fields, what the message names)
BAD_RUN_SETTINGS = {
    "n_iter_zero": ({"n_iter": 0}, "n_iter must be >= 1, got 0"),
    "n_iter_negative": ({"n_iter": -2}, "n_iter must be >= 1, got -2"),
    "cv_folds_one": ({"cv_folds": 1}, "cv_folds must be >= 2, got 1"),
    "cv_folds_zero": ({"cv_folds": 0}, "cv_folds must be >= 2, got 0"),
    "test_fraction_zero": ({"test_fraction": 0.0}, "test_fraction must be in (0, 1), got 0.0"),
    "test_fraction_one": ({"test_fraction": 1}, "test_fraction must be in (0, 1), got 1"),
    "test_fraction_negative": ({"test_fraction": -0.2}, "test_fraction must be in (0, 1), got -0.2"),
    "test_fraction_above_one": ({"test_fraction": 1.5}, "test_fraction must be in (0, 1), got 1.5"),
    "seed_negative": ({"seed": -1}, "seed must be >= 0, got -1"),
}


@pytest.mark.parametrize("case", sorted(BAD_RUN_SETTINGS))
def test_bad_run_setting_exits_3_before_any_input_is_read(case, tmp_path, capsys):
    # the inputs do not exist, so a check after reading them would name a missing file
    settings, message = BAD_RUN_SETTINGS[case]
    config = tmp_path / "cfg.json"
    config.write_bytes(_config(**settings)(None))
    inputs = [arg for n in ("episodes", "credits", "genres", "platform") for arg in (f"--{n}", str(tmp_path / n))]
    assert run_cli("train", "--config", str(config), *inputs, "--out", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and "No such file" not in err
    assert message in err


# case -> (input it replaces, bytes written in its place, *extra train flags);
# "holdout" is the holdout episodes file with views, which evaluate scores
BAD_INPUTS = {
    "config_malformed_json": ("config", lambda run: b'{"seed": 1,'),
    "config_not_an_object": ("config", lambda run: b"[1, 2, 3]"),
    "config_test_fraction_string": ("config", _config(test_fraction="0.2")),
    "config_seed_float": ("config", _config(seed=1.5)),
    "config_seed_negative": ("config", _config(seed=-1)),
    "config_importance_repeats_string": ("config", _config(importance_repeats="1")),
    "config_importance_repeats_zero": ("config", _config(importance_repeats=0)),
    "config_importance_repeats_1001": ("config", _config(importance_repeats=1001)),
    "config_grids_not_an_object": ("config", _config(grids=["x"])),
    "config_grid_values_not_a_list": ("config", _config(grids={"lasso": {"alpha": 0.1}})),
    "config_grid_unknown_family": ("config", _config(grids={"bogus": {"alpha": [1.0]}})),
    "config_grid_unknown_parameter": ("config", _config(grids={"ridge": {"alfa": [1.0]}})),
    **{case: ("config", _bad_grid_config(*spec)) for case, spec in BAD_GRID_LISTS.items()},
    "config_reference_date_not_a_date": ("config", _config(reference_date="2016-13-45")),
    "config_scheme_unknown": ("config", _config(scheme="median")),
    "config_top_k_zero": ("config", _config(top_k=0)),
    # median and mode imputation are fixed, so the option is an unknown key
    "config_numeric_strategy": ("config", _config(numeric_strategy="median")),
    "flag_reference_date_not_a_date": ("config", _config(), "--reference-date", "2016-13-45"),
    "config_cv_folds_one": ("config", _config(cv_folds=1)),
    "config_cv_folds_exceeds_rows": ("config", _config(cv_folds=10000)),
    "bundle_not_json": ("bundle", lambda run: b"this is not json"),
    "bundle_without_members": ("bundle", _edited("bundle", lambda d: d.pop("members"))),
    "bundle_without_reference_date": (
        "bundle", _edited("bundle", lambda d: d["meta"].pop("reference_date"))
    ),
    "bundle_reference_date_not_iso": (
        "bundle", _edited("bundle", lambda d: d["meta"].update(reference_date="last spring"))
    ),
    # a log1p bundle read on another scale would write log-scale views
    "bundle_target_transform_unknown": ("bundle", _edited("bundle", lambda d: d["meta"].update(target_transform="x"))),
    "bundle_target_transform_null": ("bundle", _edited("bundle", lambda d: d["meta"].update(target_transform=None))),
    "bundle_without_meta": ("bundle", _edited("bundle", lambda d: d.pop("meta"))),
    "bundle_null_preprocessor": ("bundle", _edited("bundle", lambda d: d.update(preprocessor=None))),
    "bundle_preprocessor_std_string": (
        "bundle", _edited("bundle", lambda d: d["preprocessor"]["numeric"][0].update(std="x"))
    ),
    "bundle_preprocessor_std_negative": (
        "bundle", _edited("bundle", lambda d: d["preprocessor"]["numeric"][0].update(std=-1.0))
    ),
    "bundle_preprocessor_mean_null": (
        "bundle", _edited("bundle", lambda d: d["preprocessor"]["numeric"][0].update(mean=None))
    ),
    "bundle_preprocessor_categories_string": (
        "bundle", _edited("bundle", lambda d: d["preprocessor"]["categorical"][0].update(categories="abc"))
    ),
    "bundle_schema_version_1": ("bundle", _edited("bundle", lambda d: d.update(schema_version=1))),
    "bundle_schema_version_2": ("bundle", _edited("bundle", lambda d: d.update(schema_version=2))),
    "bundle_schema_version_3": ("bundle", _edited("bundle", _as_v3)),
    "bundle_schema_version_4": ("bundle", _edited("bundle", _as_v4)),
    "bundle_schema_version_5": ("bundle", _edited("bundle", _as_v5)),
    "bundle_schema_version_6": ("bundle", _edited("bundle", _as_v6)),
    "bundle_schema_version_7": ("bundle", _edited("bundle", _as_v7)),
    "bundle_schema_version_8": ("bundle", _edited("bundle", _as_v8)),
    "bundle_schema_version_9": ("bundle", _edited("bundle", _as_v9)),
    # a tree model's block holds the tree count its params give
    "bundle_forest_n_estimators_disagrees": ("bundle", _edited("bundle", _forest_of_5_said_3)),
    "bundle_gbt_rounds_disagrees": ("bundle", _edited("bundle", lambda d: _member(d, "gbt")["params"].update(rounds=2))),
    # a decision tree checks the width of what it scores, as every other member does
    "bundle_decision_tree_width": ("bundle", _edited("bundle", _decision_tree_one_column_wider)),
    # the report keys weights and validation by family, so it could not describe both members
    "bundle_members_repeat_a_family": ("bundle", _edited("bundle", lambda d: _member(d, "ridge").update(family="lasso"))),
    "bundle_member_params_unknown_name": ("bundle", _edited("bundle", lambda d: d["members"][0]["params"].update(bogus=1))),
    # a name no decoder reads, so only the completeness check catches it
    "bundle_member_params_missing_name": (
        "bundle", _edited("bundle", lambda d: _member(d, "gbt")["params"].pop("min_samples_split"))
    ),
    "bundle_member_params_out_of_domain": (
        "bundle", _edited("bundle", lambda d: _member(d, "gbt")["params"].update(learning_rate=1.5))
    ),
    "bundle_member_params_alpha_string_and_unknown_name": (
        "bundle", _edited("bundle", lambda d: [m.update(params={"alpha": "x", "bogus": 1}) for m in d["members"]])
    ),
    "bundle_linear_model_alpha_negative": (
        "bundle", _edited("bundle", lambda d: _member(d, "lasso")["params"].update(alpha=-1.0))
    ),
    **{case: ("bundle", _model_field(*spec)) for case, spec in BAD_MODEL_FIELDS.items()},
    # compute_weights writes weights in [0, 1], and a MAPE is never negative
    "bundle_member_weight_negative": ("bundle", _edited("bundle", _second_weight_negative)),
    "bundle_member_validation_mape_negative": (
        "bundle", _edited("bundle", lambda d: d["members"][0].update(validation_mape=-5))
    ),
    "bundle_member_weight_nan": ("bundle", _bundle_number(lambda d: (d["members"][0], "weight"), "NaN")),
    # an int no float can hold, which must not overflow on its way to the check
    "bundle_member_weight_401_digits": (
        "bundle", _bundle_number(lambda d: (d["members"][0], "weight"), "1" + "0" * 400)
    ),
    # a float that overflowed on its way into the block
    "bundle_tree_value_overflow": ("bundle", _gbt_block(lambda s, a: a["value"].__setitem__(0, np.inf))),
    # a float from the JSON int, but expm1 of the log1p-scale prediction overflows to inf
    "bundle_gbt_base_prediction_2_63": (
        "bundle", _bundle_number(lambda d: (_member(d, "gbt")["model"], "base_prediction"), str(2**63))
    ),
    "bundle_gbt_learning_rate_1e308": (
        "bundle", _edited("bundle", lambda d: _member(d, "gbt")["params"].update(learning_rate=1e308))
    ),
    # finite, but expm1 of the log1p-scale prediction overflows to inf
    "bundle_tree_value_1e300": ("bundle", _gbt_block(lambda s, a: a["value"].fill(1e300))),
    "bundle_linear_coefficient_infinity": (
        "bundle", _bundle_number(lambda d: (_member(d, "lasso")["model"]["coefficients"], 0), "-1e999")
    ),
    "tree_arrays_of_unequal_length": ("bundle", _gbt_block(lambda s, a: a.update(threshold=a["threshold"][:-1]))),
    "tree_feature_not_integer": ("bundle", _gbt_block(lambda s, a: a.update(feature=a["feature"].astype("<f8")))),
    "tree_last_node_internal": ("bundle", _gbt_block(_last_node_internal)),
    "tree_child_past_last_node": ("bundle", _gbt_block(_first_tree_cut_short)),
    "tree_threshold_nan": ("bundle", _gbt_block(lambda s, a: a["threshold"].__setitem__(0, np.nan))),
    "tree_threshold_minus_inf": ("bundle", _gbt_block(lambda s, a: a["threshold"].__setitem__(0, -np.inf))),
    "tree_value_nan": ("bundle", _gbt_block(lambda s, a: a["value"].__setitem__(0, np.nan))),
    "tree_split_feature_equal_to_width": ("bundle", _edited("bundle", _split_feature_at_width)),
    "tree_block_bad_base64": (
        "bundle", _edited("bundle", lambda d: _member(d, "gbt")["model"]["trees"].update(feature="AAAA!AAA"))
    ),
    "tree_block_byte_count_off": (
        "bundle", _gbt_block(lambda s, a: a.update(threshold=a["threshold"].tobytes() + b"\0"))
    ),
    # 1 MB of zeros, deflated to ~1 KB, in place of the leaf values
    "tree_value_inflates_past_its_count": (
        "bundle", _gbt_block(lambda s, a: a.update(value=bytes(1_000_000)))
    ),
    # the first four bytes of a deflated empty array: no end block, no checksum
    "tree_block_truncated_stream": (
        "bundle", _edited("bundle", lambda d: _member(d, "gbt")["model"]["trees"].update(threshold="eJwDAA=="))
    ),
    "tree_block_sizes_mismatch": ("bundle", _gbt_block(lambda s, a: s.__setitem__(0, s[0] + 1))),
    "tree_block_sizes_not_integer": ("bundle", _gbt_block(lambda s, a: s.__setitem__(0, float(s[0])))),
    "episodes_not_utf8": ("episodes", lambda run: b"series_id,episode_id\n\xff\xfe\x00\x81\n"),
    "episodes_empty": ("episodes", lambda run: b""),
    "episodes_truncated": ("episodes", _truncated_episodes),
    **{
        f"credits_awards_{value}": ("credits", _csv_cell("credits.csv", "awards", value))
        for value in ("nan", "inf", "1e400", "2.5")
    },
    "platform_duplicate_row": ("platform", _duplicated_platform_row),
    "episodes_length_unparsed": ("episodes", _csv_cell("episodes.csv", "length", "ninety")),
    "holdout_views_inf": ("holdout", _csv_cell("holdout", "views", "inf")),
    # scored views obey the training target rule
    "holdout_views_negative": ("holdout", _csv_cell("holdout", "views", "-500")),
    "report_not_an_object": ("report", lambda run: b'["validation"]'),
    "report_mape_not_a_number": (
        "report", _edited("report", lambda d: d["ensemble_validation"].update(mape="low"))
    ),
    **{
        f"report_without_{key}": ("report", _edited("report", lambda d, key=key: d.pop(key)))
        for key in ("validation", "weights", "ensemble_validation", "error_buckets")
    },
    **{case: ("report", _edited("report", edit)) for case, (_, edit) in TAMPERED_REPORTS.items()},
}


# bad bundles whose message names the fault, and the member it is in: case ->
# a part of the message. The tiny run's members are lasso, ridge and gbt.
BUNDLE_MESSAGES = {
    "bundle_members_repeat_a_family": "repeat the family 'lasso'",
    "bundle_forest_n_estimators_disagrees": "bundle member 2 (random_forest): tree block holds 5 trees, but its params give 3",
    "bundle_gbt_rounds_disagrees": "bundle member 2 (gbt): tree block holds 40 trees, but its params give 2",
    "bundle_member_weight_negative": "bundle member 1 (ridge) weight must be in [0, 1], got -0.1",
    "bundle_member_validation_mape_negative": "bundle member 0 (lasso) validation_mape must be >= 0, got -5",
    "bundle_decision_tree_width": "bundle member 0 (decision_tree): tree model expects ",
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_with_documented_code(case, tiny_run, tmp_path, capsys):
    kind, content, *flags = BAD_INPUTS[case]
    bad = tmp_path / f"bad_{kind}"
    bad.write_bytes(content(tiny_run))
    # verify recomputes the report's numbers, which come from the holdout rows
    episodes = _csv_source(tiny_run, "holdout" if kind == "report" else "episodes.csv")
    paths = {
        "bundle": tiny_run.result["bundle"],
        "report": tiny_run.result["report"],
        "episodes": str(episodes),
        "credits": str(tiny_run.data_dir / "credits.csv"),
        "platform": str(tiny_run.data_dir / "platform.csv"),
    }
    paths["episodes" if kind == "holdout" else kind] = str(bad)
    inputs = [
        "--episodes", paths["episodes"],
        "--credits", paths["credits"],
        "--genres", str(tiny_run.data_dir / "genres.csv"),
        "--platform", paths["platform"],
    ]
    if kind == "config":
        argv = ["train", "--config", paths["config"], *inputs, *flags, "--out", str(tmp_path / "out")]
    elif kind == "report":
        argv = ["verify", "--bundle", paths["bundle"], "--report", paths["report"], *inputs]
    elif kind == "holdout":
        argv = ["evaluate", "--bundle", paths["bundle"], *inputs, "--out", str(tmp_path / "eval")]
    else:
        argv = ["predict", "--bundle", paths["bundle"], *inputs, "--out", str(tmp_path / "predictions.csv")]
    code = run_cli(*argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if case in TAMPERED_REPORTS:
        path = TAMPERED_REPORTS[case][0].format(member=tiny_run.report["selected"][0])
        assert code == 4, err
        assert f"MISMATCH {path}: " in err
    elif kind in ("bundle", "config"):
        assert code == 3, err  # a bad bundle or config is bad data, never a usage error
        if case in BAD_MODEL_FIELDS:
            assert f" {BAD_MODEL_FIELDS[case][1]} must be " in err
        if case.startswith("bundle_schema_version"):
            assert "retrain" in err
        if case in BUNDLE_MESSAGES:
            assert BUNDLE_MESSAGES[case] in err
        if case == "bundle_decision_tree_width":
            width = _member(load_json(tiny_run.result["bundle"]), "gbt")["model"]["n_features"]
            assert f"expects {width} features, got {width + 1}" in err
    else:
        assert code in (2, 3), err
