"""A fixed reference task that measures how fast the host runs scoring-like work.

On a shared virtual machine the CPU time of the same call drifts by a
quarter or more over minutes, as other tenants load the physical cores, and
a run of a few tens of seconds cannot average that out. Scoring
(``run_predict``) is hit hardest: it parses CSV, decodes JSON and walks
trees in the interpreter, and so does this probe. The harness runs the probe
before every ``run_predict`` and reports predict times divided by the run's
mean probe time and multiplied by REFERENCE_S, that is in seconds of a host
that runs the probe in REFERENCE_S.

In three sets of ten seeds of each workload on a 2-core x86_64 Xeon VM, the
run means of ``run_predict`` moved with the probe (correlation 0.63 to
0.93, log-log slope 0.5 to 1.3). The widest predict spread of a set,
(Q3 - Q1) / median over the seeds, was 0.11 to 0.23 scaled against 0.21 to
0.32 as measured, although scaling widened some narrow ones (score_batch
once went from 0.07 to 0.11). Training and set-up moved with the probe far
less (correlation 0.25 to 0.79, slope 0.3 to 0.7), and scaling them widened
as many spreads as it narrowed, so they are not scaled.

The probe uses only the standard library and data fixed here, so a change to
the program moves the predict times and not the probe, and shows in full.
"""

import csv
import gc
import io
import json
import random
import time

# the probe's median CPU time on the 2-core x86_64 Xeon VM the baseline was
# measured on; scaled times are seconds of a host that runs the probe this fast
REFERENCE_S = 0.007

_RNG = random.Random(0)
_CSV = "\n".join(
    f"S{i % 300:03d},E{i},{_RNG.random() * 1e5:.3f},drama,{_RNG.randint(1, 9)}" for i in range(4000)
)


def _tree(depth):
    if depth == 0:
        return {"value": _RNG.random()}
    return {"feature": _RNG.randint(0, 30), "threshold": _RNG.random(), "left": _tree(depth - 1), "right": _tree(depth - 1)}


_JSON = json.dumps([_tree(7) for _ in range(12)])


def _leaf_sum(node):
    if "value" in node:
        return node["value"]
    return _leaf_sum(node["left"]) + _leaf_sum(node["right"])


def probe():
    """CPU seconds of one run of the reference task."""
    # a collection would walk every live object of the program, so the
    # probe's time would depend on what the program holds
    gc.disable()
    try:
        start = time.process_time()
        by_series = {}
        for row in csv.reader(io.StringIO(_CSV)):
            by_series.setdefault(row[0], []).append(float(row[2]))
        sum(_leaf_sum(tree) for tree in json.loads(_JSON))
        return time.process_time() - start
    finally:
        gc.enable()
