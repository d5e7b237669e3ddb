"""In-memory spans around coldstart's public functions, and per-layer sums.

A Tracer wraps each function in TARGETS where its callers look it up: every
coldstart module global bound to the original function object is replaced.
That covers name imports (``tuning`` and ``pipeline`` call ``transform`` and
``fit_preprocessor`` bound by ``from .preprocess import ...``), module
globals (``trees._grow`` calls ``best_split``, ``predict_forest`` calls
``predict_tree``) and attribute calls (``families`` calls
``linear.fit_linear`` and ``trees.fit_*`` through the module object).

Spans are (name, start, end, parent, run) records kept in a list while the
workload runs. A layer's self time is the duration of its spans minus the
part their child spans cover, so time inside ``best_split`` counts as
``trees`` time and not as ``families`` time as well.
"""

import functools
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

# module -> public functions the pipeline reaches
TARGETS = {
    "synth": ("generate",),
    "ingest": ("read_episodes", "read_credits", "read_genres", "read_platform", "build_model_table"),
    "preprocess": ("fit_preprocessor", "transform"),
    "linear": ("fit_linear", "predict_linear"),
    "trees": (
        "best_split",
        "predict_tree",
        "fit_decision_tree",
        "fit_random_forest",
        "fit_gbt",
        "predict_forest",
        "predict_gbt",
    ),
    "families": ("fit_family", "predict_family"),
    "tuning": ("randomized_search", "cross_validate_pipeline"),
    "metrics": ("permutation_importance", "impurity_importance", "metric_report"),
    "ensemble": ("build_bundle", "bundle_to_dict", "bundle_from_dict"),
    "util": ("dump_json", "load_json"),
    "pipeline": ("run_train", "run_predict", "load_inputs", "predict_views"),
}

LAYERS = tuple(TARGETS)

# Calls and spans are timed in CPU seconds of this process. The program runs
# on one thread of this process (BLAS is pinned to one thread), so its CPU
# time is its run time less the time the host takes the virtual CPU away
# (steal), which on a shared 2-core VM made wall-clock times drift by a third
# from one minute to the next.
clock = time.process_time


def _family_attr(args, kwargs):
    return {"family": args[0] if args else kwargs.get("family")}


def _path_bytes(args, kwargs, position):
    path = args[position] if len(args) > position else kwargs.get("path")
    return {"bytes": os.path.getsize(path)}


# attributes recorded per function: from the call, and from the result. A
# span whose call raised has no result attributes.
CALL_ATTRS = {
    "families.fit_family": _family_attr,
    "tuning.randomized_search": _family_attr,
}
RESULT_ATTRS = {
    "linear.fit_linear": lambda m, a, k: {"converged": bool(m.converged), "sweeps": int(m.n_iterations)},
    "preprocess.transform": lambda fm, a, k: {"rows": int(fm.values.shape[0])},
    "ingest.read_episodes": lambda rows, a, k: {"rows": len(rows)},
    "util.dump_json": lambda _, a, k: _path_bytes(a, k, 1),
    "util.load_json": lambda _, a, k: _path_bytes(a, k, 0),
}


@dataclass
class Span:
    name: str  # "<module>.<function>"
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    run: str  # shared by the spans of one set-up or operation
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans while ``run`` is set; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans = []
        self.run = None
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "coldstart" or n.startswith("coldstart.")]
        for layer, names in TARGETS.items():
            home = sys.modules[f"coldstart.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def _wrap(self, name, fn):
        call_attrs = CALL_ATTRS.get(name)
        result_attrs = RESULT_ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.run is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, clock(), 0.0, parent, self.run)
            if call_attrs:
                span.attrs.update(call_attrs(args, kwargs))
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
            if result_attrs:
                span.attrs.update(result_attrs(result, args, kwargs))
            return result

        return wrapper

    def to_records(self):
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "run": s.run, **s.attrs}
            for s in self.spans
        ]


def self_times(spans):
    """Per-span duration minus the time covered by its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def _has_ancestor(spans, span, layer):
    p = span.parent
    while p >= 0:
        if spans[p].layer == layer:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans, families, prefix):
    """Per-layer metrics averaged over the runs whose id starts with ``prefix``.

    Wrapped functions never call themselves, so a function's time is the sum
    of its spans' durations; ``<layer>.self_s`` is the layer's self time and
    ``trace.spans`` the number of spans.
    """
    own = self_times(spans)
    picked = [(i, s) for i, s in enumerate(spans) if s.run.startswith(prefix)]
    count = max(len({s.run for _, s in picked}), 1)

    def total(names, value=lambda s: s.duration, where=lambda s: True):
        names = {names} if isinstance(names, str) else set(names)
        return sum(value(s) for _, s in picked if s.name in names and where(s)) / count

    def calls(names, where=lambda s: True):
        return total(names, lambda s: 1, where)

    def attr(key):
        return lambda s: s.attrs.get(key, 0)

    linear_fits = calls("linear.fit_linear")
    # fits that returned a model; a fit that raised has no result attributes
    finished = calls("linear.fit_linear", where=lambda s: "converged" in s.attrs)
    converged = total("linear.fit_linear", attr("converged"))
    m = {
        "ingest.read_s": (total([f"ingest.{f}" for f in TARGETS["ingest"] if f.startswith("read_")]), "s"),
        "ingest.build_table_s": (total("ingest.build_model_table"), "s"),
        "ingest.rows": (total("ingest.read_episodes", attr("rows")), "rows"),
        "preprocess.fit_s": (total("preprocess.fit_preprocessor"), "s"),
        "preprocess.fit_calls": (calls("preprocess.fit_preprocessor"), "count"),
        "preprocess.transform_s": (total("preprocess.transform"), "s"),
        "preprocess.transform_calls": (calls("preprocess.transform"), "count"),
        "preprocess.transform_rows": (total("preprocess.transform", attr("rows")), "rows"),
        "linear.fit_s": (total("linear.fit_linear"), "s"),
        "linear.fit_calls": (linear_fits, "count"),
        "linear.sweeps": (total("linear.fit_linear", attr("sweeps")), "count"),
        # converged fits over finished fits; 0 where the workload finishes none
        "linear.converged_ratio": (converged / finished if finished else 0.0, "ratio"),
        "trees.best_split_s": (total("trees.best_split"), "s"),
        "trees.best_split_calls": (calls("trees.best_split"), "count"),
        "trees.fit_s": (total(["trees.fit_decision_tree", "trees.fit_random_forest", "trees.fit_gbt"]), "s"),
        "trees.predict_tree_s": (total("trees.predict_tree"), "s"),
        "trees.predict_tree_calls": (calls("trees.predict_tree"), "count"),
    }
    for fam in families:
        m[f"families.fit_s.{fam}"] = (total("families.fit_family", where=lambda s: s.attrs.get("family") == fam), "s")
    for fam in families:
        m[f"tuning.search_s.{fam}"] = (total("tuning.randomized_search", where=lambda s: s.attrs.get("family") == fam), "s")
    m["tuning.cv_fits"] = (calls("families.fit_family", where=lambda s: _has_ancestor(spans, s, "tuning")), "count")
    m["metrics.permutation_importance_s"] = (total("metrics.permutation_importance"), "s")
    m["ensemble.bundle_to_dict_s"] = (total("ensemble.bundle_to_dict"), "s")
    m["ensemble.bundle_from_dict_s"] = (total("ensemble.bundle_from_dict"), "s")
    m["util.dump_json_s"] = (total("util.dump_json"), "s")
    m["util.load_json_s"] = (total("util.load_json"), "s")
    m["util.json_bytes"] = (total(["util.dump_json", "util.load_json"], attr("bytes")), "bytes")
    m["synth.generate_s"] = (total("synth.generate"), "s")
    m["pipeline.predict_views_s"] = (total("pipeline.predict_views"), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(own[i] for i, s in picked if s.layer == layer) / count, "s")
    m["trace.spans"] = (len(picked) / count, "count")
    return m


def span_cost():
    """Seconds that recording adds to one call, measured on a no-op function.

    The median over five repeats of (wrapped - bare time) per call. It leaves
    out the few functions that also record attributes.
    """
    calls = 20000

    def noop():
        return None

    probe = Tracer()
    wrapped = probe._wrap("probe.noop", noop)
    probe.run = "probe"
    costs = []
    for _ in range(5):
        probe.spans.clear()
        start = clock()
        for _ in range(calls):
            wrapped()
        wrapped_s = clock() - start
        start = clock()
        for _ in range(calls):
            noop()
        bare_s = clock() - start
        costs.append((wrapped_s - bare_s) / calls)
    return statistics.median(costs)
