"""Span and counter tracing of poukit's layers, installed from outside.

``Tracer.install()`` replaces every public function of the layer modules at
every place callers look it up (module attributes, including names that
``cli``, ``pou``, ``selection`` and the package import), and wraps the
public methods and ``__init__`` of every class the layers define.  The
library itself is not edited.

A wrapped call records a span ``(id, parent, name, op, start_ns, end_ns)``;
self time is derived from the spans afterwards (duration minus the
durations of direct children).  Hot per-element methods get counters only:
their time is attributed to the calling span.  Hooks that read counters off
arguments or results run with the span clock paused.
"""

import functools
import time
from collections import Counter
from fractions import Fraction

LAYERS = ("sparse", "spaces", "setmaps", "pou", "nerve", "selection", "jsonio", "cli")

# per-element methods: counted, never timed
COUNT_ONLY = {
    "spaces.MetricSampleSpace.ball_membership",
    "spaces.MetricSampleSpace.dist_sq",
    "spaces.MetricSampleSpace.dist",
    "spaces.MetricSampleSpace.dist_to_ball_complement",
    "spaces.FiniteSpace.is_open",
    "spaces.FiniteSpace.is_closed",
    "spaces.FiniteSpace.closure",
    "spaces.FiniteSpace.interior",
    "spaces.Ball.__init__",
    "setmaps.SetValuedMap.fiber",
    "setmaps.SetValuedMap.preimage",
    "setmaps.SetValuedMap.image",
    "selection.ConvexTarget.distance",
    "selection.dist_to_point",
    "selection.dist_to_segment",
    "selection.dist_to_box",
    "sparse.SparseVec.__init__",
    "sparse.SparseVec.carrier",
    "sparse.SparseVec.norm1",
    "sparse.SparseVec.sup_norm",
    "sparse.SparseVec.scale",
    "sparse.SparseVec.add",
    "sparse.SparseVec.sub",
    "sparse.carrier",
    "sparse.norms",
    "pou.PartitionOfUnity.row",
    "pou.PartitionOfUnity.coordinate",
    "pou.PartitionOfUnity.carrier_at",
    "cli.Report.check",
    "cli.Report.skipped",
}


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []  # [id, parent, name index, op, start_ns, end_ns]
        self.counts = Counter()
        self.stack = [-1]
        self.op = -1
        self.paused = 0
        # counters the runner reads; nerve_calls is per operation
        self.nerve_calls = []  # (op, max_dimension, simplices, all witnesses)
        self.points_built = 0
        self.llc_subsets = 0
        self.pou_rows = 0
        self.max_den_bits = 0
        self.polytope_projections = 0

    def _now(self):
        return time.perf_counter_ns() - self.paused

    def _span(self, fn, name, hook=None):
        idx = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            rec = [sid, stack[-1], idx, self.op, self._now(), 0]
            spans.append(rec)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[5] = self._now()
            if hook is not None:
                t0 = time.perf_counter_ns()
                hook(result, *args, **kwargs)
                self.paused += time.perf_counter_ns() - t0
            return result

        return wrapper

    def _counter(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap(self, fn, name):
        if name in COUNT_ONLY:
            return self._counter(fn, name)
        return self._span(fn, name, getattr(self, "_hook_" + name.replace(".", "_"), None))

    # -- hooks: run with the clock paused ------------------------------------

    def _hook_nerve_nerve_from_cover(self, cx, cover, witnesses=None, max_dimension=None):
        if max_dimension is None:
            max_dimension = self.max_dimension
        self.nerve_calls.append((self.op, max_dimension, len(cx.simplices), witnesses is None))

    def _hook_spaces_FiniteSpace___init__(self, _, space, *args, **kwargs):
        self.points_built += len(space.points)

    def _hook_setmaps_classify(self, _, phi):
        self.llc_subsets += 2 ** len(phi.codomain.points)

    def _hook_pou_PartitionOfUnity___init__(self, _, pou, *args, **kwargs):
        self.pou_rows += len(pou.rows)
        for row in pou.rows.values():
            for v in row.entries.values():
                if isinstance(v, Fraction):
                    self.max_den_bits = max(self.max_den_bits, v.denominator.bit_length())

    def _hook_selection_dist_to_polytope(self, _, q, vertices):
        m = len(vertices)
        self.polytope_projections += 2**m - m - 1

    # -- installation ----------------------------------------------------------

    def install(self):
        import importlib

        import poukit

        mods = {layer: importlib.import_module(f"poukit.{layer}") for layer in LAYERS}
        self.max_dimension = mods["nerve"].MAX_DIMENSION
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(obj, layer)
                elif callable(obj) and not attr.startswith("_"):
                    wrapped[id(obj)] = self.wrap(obj, f"{layer}.{attr}")
        # rebind at every lookup site, re-exports included
        for mod in [poukit, *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])

    def _wrap_class(self, cls, layer):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                setattr(cls, attr, type(obj)(self.wrap(obj.__func__, name)))
            elif callable(obj):
                setattr(cls, attr, self.wrap(obj, name))

    # -- results ----------------------------------------------------------------

    def summary(self):
        """Self and inclusive seconds per span name, derived from the spans."""
        child = [0] * len(self.spans)
        for sid, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_name = {}
        for sid, _, idx, _, start, end in self.spans:
            calls, total, self_ns = per_name.get(self.names[idx], (0, 0, 0))
            dur = end - start
            per_name[self.names[idx]] = (calls + 1, total + dur, self_ns + dur - child[sid])
        return {
            name: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
            for name, (c, t, s) in per_name.items()
        }

    def layer_metrics(self):
        by_name = self.summary()
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v["self_s"] for n, v in by_name.items() if n.split(".")[0] == layer
            )
        total = sum(out.values()) or 1
        for layer in LAYERS:
            out[f"share.{layer}"] = out[f"{layer}.self_s"] / total

        def pick(prefix, key="self_s"):
            return sum(v[key] for n, v in by_name.items() if n.startswith(prefix))

        out["jsonio.load_s"] = pick("jsonio.load_")
        out["jsonio.dump_s"] = pick("jsonio.dump_")
        out["setmaps.closure_cover_s"] = pick("setmaps.closure_cover", "total_s")
        out["selection.polytope_s"] = pick("selection.dist_to_polytope", "total_s")
        out["setmaps.classify.calls"] = by_name.get("setmaps.classify", {}).get("calls", 0)
        out["sparse.mather_calls"] = sum(
            v["calls"] for n, v in by_name.items() if n.startswith("sparse.mather_")
        )
        out["spaces.ball_membership.calls"] = self.counts[
            "spaces.MetricSampleSpace.ball_membership"
        ]
        out["selection.distance.calls"] = self.counts["selection.ConvexTarget.distance"]
        out["spaces.points_built"] = self.points_built
        out["setmaps.llc_subsets"] = self.llc_subsets
        out["pou.rows"] = self.pou_rows
        out["pou.max_den_bits"] = self.max_den_bits
        out["selection.polytope_projections"] = self.polytope_projections
        out["trace.spans"] = len(self.spans)
        return out

    def sidecar(self):
        return {
            "names": self.names,
            "span_fields": ["id", "parent", "name", "op", "start_ns", "end_ns"],
            "spans": self.spans,
            "counters": dict(self.counts),
            "by_name": self.summary(),
        }
