"""Runs one workload, checks every call, and turns samples into metrics.

Imported by run.py after it has pinned BLAS threads and put ``src/`` on the
path, and by selfcheck.py.
"""

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import hostspeed
import tracer as tracing
import workloads
from coldstart.families import FAMILIES

# Each operation runs run_train (unless set-up trained) and then run_predict
# PREDICTS_PER_OP times; bundle and prediction bytes are compared across calls.
MIN_OPS = 3
PREDICTS_PER_OP = 3
SETUPS = 5  # set-ups per untraced run
TRAINED_SETUPS = 3  # where set-up also trains a bundle, as in score_batch
TRACED_SETUPS = 1

# Per-layer metrics describe one call of the workload's timed entry point:
# run_train in the train workloads, run_predict in score_batch. These are
# also reported per set-up, as "setup.<name>": set-up generates the
# catalogue, and in score_batch it trains the bundle too. synth runs only in
# set-up.
SETUP_METRICS = (
    "synth.generate_s",
    "trees.fit_s",
    "trees.best_split_s",
    "trees.best_split_calls",
    "trees.predict_tree_s",
    "metrics.permutation_importance_s",
    "linear.fit_s",
    "util.dump_json_s",
)
MB = float(1 << 20)

# name -> unit of the end-to-end metrics, in the order BENCHMARK.json lists them
_BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _BENCH["end_to_end"]}


class Phase:
    """Samples and failures of one pass over a workload.

    The first file of each kind is copied to ``first_dir``; a later file whose
    bytes differ is copied beside it into ``mismatch_dir`` for diagnosis.
    """

    def __init__(self, first_dir, mismatch_dir):
        self.first_dir = first_dir
        self.mismatch_dir = mismatch_dir
        self.setup_s = []
        self.train_s = []
        self.predict_s = []
        self.probe_s = []  # a host-speed probe before each run_predict
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.holdout_mape = None
        self.cold_mape = None
        self.bundle_bytes = None
        self.selected = None
        self.cold_rows = None
        self.n_ops = 0
        self._digests = {}

    def host_scale(self):
        """Factor from predict CPU seconds to seconds of the reference host; None before any probe."""
        return hostspeed.REFERENCE_S / statistics.fmean(self.probe_s) if self.probe_s else None

    def fail(self, what, problems):
        self.failed += 1
        self.errors.append(f"{what}: {'; '.join(problems)}")
        print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)

    def same_bytes(self, kind, path, run_id):
        """Problems if path's bytes differ from the first file of this kind."""
        got = workloads.digest(path)
        if kind not in self._digests:
            self._digests[kind] = got
            self.first_dir.mkdir(parents=True, exist_ok=True)
            shutil.copy(path, self.first_dir / kind)
            return []
        if got == self._digests[kind]:
            return []
        self.mismatch_dir.mkdir(parents=True, exist_ok=True)
        shutil.copy(self.first_dir / kind, self.mismatch_dir / f"{kind}-first")
        shutil.copy(path, self.mismatch_dir / f"{kind}-{run_id}")
        return [f"{kind} bytes differ from the first {kind} of this run; both kept in {self.mismatch_dir}"]


def _call(tracer, run_id, fn, *args):
    """(fn(*args), seconds), recording spans under run_id when tracing."""
    if tracer is not None:
        tracer.run = run_id
    start = tracing.clock()
    try:
        return fn(*args), tracing.clock() - start
    finally:
        if tracer is not None:
            tracer.run = None


def _train_op(ph, spec, cat, out_dir, tracer, run_id):
    """One checked run_train; the bundle path, or None when it failed."""
    what = f"{run_id} run_train"
    ph.attempted += 1
    try:
        result, seconds = _call(tracer, run_id, workloads.train, spec, cat, out_dir)
        problems = workloads.check_train(cat, result) + ph.same_bytes("bundle", result["bundle"], run_id)
    except Exception:
        ph.fail(what, [traceback.format_exc()])
        return None
    if problems:
        ph.fail(what, problems)
        return None
    ph.train_s.append(seconds)
    if ph.holdout_mape is None:
        with open(result["report"], encoding="utf-8") as fh:
            ph.holdout_mape = json.load(fh)["ensemble_validation"]["mape"]
        ph.bundle_bytes = os.path.getsize(result["bundle"])
        ph.selected = result["selected"]
    return result["bundle"]


def _predict_op(ph, cat, bundle, out_path, tracer, run_id):
    """One checked run_predict of the cold slate."""
    what = f"{run_id} run_predict"
    ph.attempted += 1
    if bundle is None:
        ph.fail(what, ["no bundle: its training failed"])
        return
    try:
        ph.probe_s.append(hostspeed.probe())
        summary, seconds = _call(tracer, run_id, workloads.predict, cat, bundle, out_path)
        problems, preds = workloads.read_predictions(cat, out_path)
        if summary["n_rows"] != len(cat.cold_keys):
            problems.append(f"run_predict reports {summary['n_rows']} rows for {len(cat.cold_keys)}")
        problems += ph.same_bytes("predictions", out_path, run_id)
    except Exception:
        ph.fail(what, [traceback.format_exc()])
        return
    if problems:
        ph.fail(what, problems)
        return
    ph.predict_s.append(seconds)
    if ph.cold_mape is None:
        ph.cold_mape = workloads.mape(cat.cold_views, preds)
        ph.cold_rows = len(preds)


def run_phase(spec, seed, seconds, work, mismatch_dir, setups, tracer=None, after_setup=None):
    """Set up ``setups`` times, then run operations for ``seconds`` (at least MIN_OPS).

    ``after_setup(bundle_path)`` runs between set-up and the operations.
    """
    ph = Phase(work.with_name(work.name + "-first"), mismatch_dir)
    cat = bundle = None
    for i in range(setups):
        run_id = f"setup-{i}"
        # every set-up uses the same paths: the bundle records its config's paths
        shutil.rmtree(work, ignore_errors=True)
        try:
            cat, seconds_cat = _call(tracer, run_id, workloads.make_catalogue, spec, seed, work / "catalogue")
        except Exception:
            ph.attempted += 1
            ph.fail(f"{run_id} make_catalogue", [traceback.format_exc()])
            return ph
        if not spec.train_in_setup:
            ph.setup_s.append(seconds_cat)
            continue
        bundle = _train_op(ph, spec, cat, work / "train_out", tracer, run_id)
        if bundle is not None:  # set-up time leaves out the checks after training
            ph.setup_s.append(seconds_cat + ph.train_s[-1])
    if after_setup is not None and bundle is not None:
        after_setup(bundle)

    start = time.perf_counter()
    while ph.n_ops < MIN_OPS or time.perf_counter() - start < seconds:
        if not spec.train_in_setup:
            bundle = _train_op(ph, spec, cat, work / "train_out", tracer, f"train-{ph.n_ops}")
        for j in range(PREDICTS_PER_OP):
            _predict_op(ph, cat, bundle, work / "predictions.csv", tracer, f"predict-{ph.n_ops}.{j}")
        ph.n_ops += 1
    return ph


def _mean(samples):
    """Mean time per call; None when no call succeeded.

    The host's speed switches between a fast and a slow state that lasts
    seconds, so calls come in blocks about 1.5 times apart. The median of a
    run then lands on one state or the other, and over 10 seeds it spread
    up to twice as wide as the mean, which weighs both by the time spent in each.
    """
    return statistics.fmean(samples) if samples else None


def end_to_end(ph, peak_rss_mb):
    """The end-to-end metrics of one untraced phase; None where nothing succeeded."""
    predict_s = _mean(ph.predict_s)
    if predict_s is not None:
        predict_s *= ph.host_scale()
    values = {
        "setup_s": _mean(ph.setup_s),
        "train_s": _mean(ph.train_s),
        "predict_s": predict_s,
        "predict_rows_per_s": ph.cold_rows / predict_s if predict_s else None,
        "peak_rss_mb": peak_rss_mb,
        "bundle_mb": ph.bundle_bytes / MB if ph.bundle_bytes is not None else None,
        "holdout_mape": ph.holdout_mape,
        "cold_mape": ph.cold_mape,
        "ops_ok_ratio": (ph.attempted - ph.failed) / ph.attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def environment(spec, seed, seconds, trace):
    return {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def run_workload(spec, seed, seconds, trace, out_root, after_setup=None):
    """One benchmark run; returns the result dict that emit() prints."""
    work = out_root / "work" / f"{spec.name}-seed{seed}-pid{os.getpid()}"
    env = environment(spec, seed, seconds, trace)
    try:
        mismatch = out_root / "mismatch" / f"{spec.name}-seed{seed}"
        setups = TRAINED_SETUPS if spec.train_in_setup else SETUPS
        plain = run_phase(spec, seed, seconds, work / "plain", mismatch / "plain", setups, after_setup=after_setup)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        e2e = end_to_end(plain, peak_rss_mb)
        phases = [plain]
        per_layer = None
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_phase(
                    spec, seed, seconds, work / "traced", mismatch / "traced", TRACED_SETUPS, tracer=tracer
                )
            finally:
                tracer.uninstall()
            phases.append(traced)
            per_layer = _per_layer(spec, tracer, traced, plain)
            _write_json(out_root / "traces" / f"{spec.name}-seed{seed}.json", {"env": env, "spans": tracer.to_records()})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": per_layer if trace else e2e,
    }
    record = {
        "env": env,
        "result": result,
        "end_to_end": e2e,
        "per_layer": per_layer,
        # CPU seconds as measured; predict_s is their mean times host_scale
        "samples": {"setup_s": plain.setup_s, "train_s": plain.train_s, "predict_s": plain.predict_s},
        "probe_s": plain.probe_s,
        "host_scale": plain.host_scale(),
        "selected": plain.selected,
        "errors": [e for ph in phases for e in ph.errors],
    }
    _write_json(out_root / "results" / f"{spec.name}-seed{seed}-trace{int(trace)}.json", record)
    return {**result, "env": env, "end_to_end": e2e}


def _per_layer(spec, tracer, traced, plain):
    """Per-call metrics of the traced phase, its set-up ones, and the tracing overhead.

    Times are CPU seconds as measured, not scaled to the reference host.
    ``trace.overhead_s`` is the measured cost of one recorded span times the
    spans per call. ``trace.gap_s`` is the traced minus the untraced mean
    time of the timed entry point; with one traced set-up and a few
    operations it is dominated by noise and may be negative.
    """
    timed = "predict" if spec.train_in_setup else "train"
    calls = tracing.layer_metrics(tracer.spans, FAMILIES, timed)
    setup = tracing.layer_metrics(tracer.spans, FAMILIES, "setup")
    metrics = {name: v for name, v in calls.items() if not name.startswith("synth.")}
    metrics.update({f"setup.{name}": setup[name] for name in SETUP_METRICS})
    metrics["trace.overhead_s"] = (tracing.span_cost() * metrics["trace.spans"][0], "s")
    traced_s, plain_s = (_mean(getattr(ph, f"{timed}_s")) for ph in (traced, plain))
    metrics["trace.gap_s"] = (traced_s - plain_s if traced_s is not None and plain_s is not None else None, "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _write_json(path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def emit(result, stream):
    """Print readable tables, the environment, then the result as the last line.

    A traced run prints the untraced end-to-end table before the per-layer one.
    """
    tables = [result["end_to_end"]]
    if result["metrics"] is not result["end_to_end"]:
        tables.append(result["metrics"])
    for table in tables:
        for name, m in table.items():
            print(f"{name:36s} {m['value']!r:>24} {m['unit']}", file=stream)
    ratio = result["failed"] / result["attempted"] if result["attempted"] else float("nan")
    print(f"{'ops_failed':36s} {ratio!r:>24} failed/attempted ({result['failed']}/{result['attempted']})", file=stream)
    print("env " + json.dumps(result["env"], sort_keys=True), file=stream)
    last = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(last), file=stream)
    stream.flush()
