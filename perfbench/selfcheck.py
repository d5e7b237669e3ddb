"""Fast self-check of the benchmark harness at tiny sizes (about a minute).

    python3 perfbench/selfcheck.py

Runs every workload with a dozen series and one-point grids, untraced and
traced, and checks that each prints every metric BENCHMARK.json names, with
its unit, and that no operation fails. It checks that a span whose call
raised does not break the per-layer sums. Then it corrupts the bundle that
score_batch trains in set-up and checks that each prediction from it is
counted as failed while the run still prints its result, and that run.py
exits non-zero without a result where ``src/`` is missing. Exits 1 on any
failed check.
"""

import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

TINY_GRIDS = {
    "decision_tree": {"max_depth": [3], "min_samples_split": [10]},
    "random_forest": {"n_estimators": [5], "min_samples_split": [10], "max_depth": [4]},
    "gbt": {"rounds": [5], "max_depth": [2], "learning_rate": [0.3]},
    "lasso": {"alpha": [10.0]},
    "ridge": {"alpha": [10.0]},
    "elastic_net": {"alpha": [10.0]},
}


def tiny(spec):
    return dataclasses.replace(spec, train_series=12, cold_series=6, grids=TINY_GRIDS, importance_repeats=1)


class Checks:
    def __init__(self):
        self.failures = []

    def expect(self, ok, message):
        if not ok:
            self.failures.append(message)
            print(f"FAIL {message}", file=sys.stderr)


def printed_result(harness, result):
    out = io.StringIO()
    harness.emit(result, out)
    return json.loads(out.getvalue().splitlines()[-1])


def check_metrics(checks, label, last, declared):
    got = last["metrics"]
    checks.expect(set(got) == set(declared), f"{label}: metric names differ: {sorted(set(got) ^ set(declared))}")
    for name, unit in declared.items():
        m = got.get(name)
        if m is None:
            continue
        checks.expect(m["unit"] == unit, f"{label}: {name} unit {m['unit']!r}, declared {unit!r}")
        checks.expect(isinstance(m["value"], (int, float)), f"{label}: {name} is not a number: {m['value']!r}")
    checks.expect(last["correct"] and last["failed"] == 0, f"{label}: {last['failed']} of {last['attempted']} failed")


def truncate(path):
    with open(path, "r+b") as fh:
        fh.truncate(fh.seek(0, 2) // 2)


def check_raised_span(checks, families):
    """A fit_linear span whose call raised has no result attributes and is not summed."""
    import tracer as tracing

    spans = [
        tracing.Span("linear.fit_linear", 0.0, 1.0, -1, "train-0", {"converged": False, "sweeps": 7}),
        tracing.Span("linear.fit_linear", 1.0, 2.0, -1, "train-0"),
    ]
    try:
        m = tracing.layer_metrics(spans, families, "train")
    except Exception as exc:
        checks.expect(False, f"layer_metrics failed on a span whose call raised: {exc!r}")
        return
    checks.expect(m["linear.fit_calls"][0] == 2 and m["linear.sweeps"][0] == 7, "raised span: calls or sweeps wrong")
    checks.expect(m["linear.converged_ratio"][0] == 0.0, "raised span: counted in linear.converged_ratio")


def check_bare_directory(checks, root, work_dir):
    """run.py in a directory holding only BENCHMARK.json and perfbench/."""
    work_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_dir) as bare:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(Path(__file__).resolve().parent, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "score_batch", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=60,
        )
    checks.expect(proc.returncode != 0, "run.py exited 0 without the program")
    checks.expect(proc.stdout.strip() == "", "run.py printed a result without the program")


def main():
    if not run.bootstrap():
        print("coldstart not found under src/", file=sys.stderr)
        return 2
    import harness
    from coldstart.families import FAMILIES
    from workloads import WORKLOADS

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    checks = Checks()
    checks.expect(
        [w["name"] for w in bench["workloads"]] == list(WORKLOADS),
        "BENCHMARK.json workloads differ from workloads.WORKLOADS",
    )
    check_raised_span(checks, FAMILIES)
    out_root = run.ROOT / ".perfbench_out" / "selfcheck"
    try:
        for spec in WORKLOADS.values():
            for trace in (False, True):
                result = harness.run_workload(tiny(spec), 3, 0, trace, out_root)
                check_metrics(checks, f"{spec.name} trace={int(trace)}", printed_result(harness, result), declared[trace])

        spec = tiny(WORKLOADS["score_batch"])
        print("selfcheck: corrupting the score_batch bundle; the failures logged next are expected", file=sys.stderr)
        result = harness.run_workload(spec, 3, 0, False, out_root, after_setup=truncate)
        last = printed_result(harness, result)
        # set-up trains once per set-up and passes; every prediction must fail
        checks.expect(
            last["failed"] == last["attempted"] - harness.TRAINED_SETUPS and last["failed"] >= harness.MIN_OPS,
            f"corrupted bundle: {last['failed']} of {last['attempted']} counted as failed",
        )
        checks.expect(not last["correct"], "corrupted bundle: run reported correct")
        checks.expect(
            last["metrics"]["ops_ok_ratio"]["value"] < 1.0, "corrupted bundle: ops_ok_ratio does not show the failures"
        )
        check_bare_directory(checks, run.ROOT, out_root)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    print(f"selfcheck: {len(checks.failures)} failed checks")
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
