"""Benchmark harness for coldstart's train-once, score-many pipeline.

    python3 perfbench/run.py --workload train_linear --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``. One
run makes its inputs from ``--seed``, sets up five times (three times where
set-up trains a bundle), then repeats its operation (closed loop, one call
at a time, in this process) until ``--seconds`` have passed and at least
three operations have run:

- ``train_linear`` and ``train_trees``: ``run_train`` on the training series,
  then ``run_predict`` on the cold slate three times with the fresh bundle.
- ``score_batch``: set-up trains the bundle; the operation is ``run_predict``
  on the cold slate, three times.

Times are CPU seconds of this process, which the host's steal of the
virtual CPU does not inflate (see ``tracer.clock``); ``--seconds`` is wall
time. ``setup_s``, ``train_s`` and ``predict_s`` are means over the run's
calls (see ``harness._mean``); ``predict_s`` and ``predict_rows_per_s`` are
scaled to a reference host speed measured by a probe run before every
``run_predict`` (see hostspeed.py). Every call's output is checked; a
failed check or an exception counts the call as failed and the run goes on.
The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. A traced run first runs the workload untraced,
then once more with spans recorded around every public coldstart function
(see tracer.py). ``trace.overhead_s`` is the
measured cost of one recorded span times the spans per call;
``trace.gap_s`` is the traced minus the untraced mean time of the timed
entry point. Full results, with the environment, go to
``.perfbench_out/results/`` and spans to ``.perfbench_out/traces/``.

Exit codes: 0 all checks passed, 1 some operation failed, 2 the program
could not be imported (nothing is printed on standard output then).
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"


def bootstrap():
    """Pin BLAS threads and import coldstart from ROOT/src; False if it is not there.

    The environment is set before numpy loads: OpenBLAS otherwise starts up
    to nproc threads.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import coldstart
    except ImportError:
        return False
    return Path(coldstart.__file__).resolve().parent.parent == src.resolve()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not bootstrap():
        print(f"coldstart not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result = harness.run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT / ".perfbench_out"
    )
    harness.emit(result, sys.stdout)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
