"""Span tracing of crosscap3's public functions, for traced passes only.

``Tracer.install`` replaces every public function of each layer module with
a wrapper that records one span per call: function, start, end, parent span
and job id.  It also rebinds the wrapper wherever another crosscap3 module
bound the original with ``from .x import f``, so calls between modules are
traced too.  Spans stay in flat arrays in memory until the pass ends;
``metrics`` then derives the per-layer numbers and ``dump`` writes the raw
spans out.  Untraced passes never import this module.

A layer is a module; a span belongs to the module that defines the function.
Self time is a span's duration minus the durations of its direct children,
so the self times of all layers plus the time outside any span add up to the
traced window.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "tet_tree", "farey", "curve_graph", "metric", "rigidity")

# Inclusive time of one function, in seconds.
INCLUSIVE_S = {
    "tet_tree.generate_ball.s": "tet_tree.generate_ball",
    "curve_graph.subdivide.s": "curve_graph.subdivide",
    "metric.thinness.s": "metric.thinness_report",
    "metric.bottleneck.s": "metric.check_bottleneck_property",
    "metric.tree_comparison.s": "metric.tree_comparison",
    "metric.isometry.s": "metric.check_subdivision_isometry",
    "rigidity.enumerate.s": "rigidity.enumerate_locally_injective",
    "rigidity.propagate_map.s": "rigidity.propagate_map",
    "rigidity.stabilizer.s": "rigidity.pointwise_stabilizer_check",
    "rigidity.induction_step.s": "rigidity.induction_step_report",
}
# Self time of one function: its spans minus the public calls they made.
SELF_S = {
    "tet_tree.structural_report.self_s": "tet_tree.structural_report",
    "tet_tree.link_labeling_report.self_s": "tet_tree.link_labeling_report",
    "curve_graph.structural_report.self_s": "curve_graph.structural_report",
}
CALLS = {
    "tet_tree.generate_ball.calls": "tet_tree.generate_ball",
    "tet_tree.triangle_cofaces.calls": "tet_tree.triangle_cofaces",
    "tet_tree.link_slope_labeling.calls": "tet_tree.link_slope_labeling",
    "rigidity.check_map.calls": "rigidity.check_map",
    "rigidity.propagate_map.calls": "rigidity.propagate_map",
}
# Mean inclusive time per call, in microseconds.
PER_CALL_US = {
    "rigidity.compose.us": "rigidity.compose",
    "rigidity.inverse.us": "rigidity.inverse",
    "rigidity.image_of_ordered_tet.us": "rigidity.image_of_ordered_tet",
}
GROUP_OPS = ("rigidity.compose", "rigidity.inverse", "rigidity.image_of_ordered_tet")


# Hooks read counts off a call's result.  They use getattr with defaults so
# that a changed report type shows up as a zero count, not as a crash.

def _tets(tracer, args, kwargs, result, dur):
    tracer.counts["tet_tree.tets_generated"] += len(getattr(result, "tets", ()))


def _curve_vertices(tracer, args, kwargs, result, dur):
    tracer.counts["curve_graph.vertices"] += len(getattr(result, "vertices", ()))


def _distances(tracer, args, kwargs, result, dur):
    source = type(getattr(result, "source", None)).__name__
    kind = "apd_curve" if source == "CurveGraphBall" else "apd_tet"
    tracer.counts[f"metric.{kind}.s"] += dur
    tracer.counts["metric.bfs_sources"] += len(result)
    table = getattr(result, "dist", None)
    mb = table.nbytes / 1e6 if table is not None else 0.0
    tracer.counts["metric.table_mb"] = max(tracer.counts["metric.table_mb"], mb)


def _thinness(tracer, args, kwargs, result, dur):
    tracer.counts["metric.triples_examined"] += getattr(result, "triples_examined", 0)
    tracer.counts["metric.thinness_exhaustive_calls"] += bool(getattr(result, "exhaustive", False))


def _bottleneck(tracer, args, kwargs, result, dur):
    tracer.counts["metric.bottleneck_pairs"] += getattr(result, "pairs_checked", 0)
    tracer.counts["bottleneck_nbhd_checked"] += getattr(result, "neighborhood_checked", 0)


def _tree_pairs(tracer, args, kwargs, result, dur):
    tracer.counts["metric.tree_pairs"] += getattr(result, "pairs", 0)


def _maps(tracer, args, kwargs, result, dur):
    tracer.counts["rigidity.maps_found"] += len(result)


def _work_ball(tracer, args, kwargs, result, dur):
    work = kwargs.get("work", args[-1] if args else None)
    size = len(getattr(work, "tets", ()))
    tracer.counts["rigidity.work_ball_tets"] = max(tracer.counts["rigidity.work_ball_tets"], size)


HOOKS = {
    "tet_tree.generate_ball": _tets,
    "curve_graph.subdivide": _curve_vertices,
    "metric.all_pairs_distances": _distances,
    "metric.thinness_report": _thinness,
    "metric.check_bottleneck_property": _bottleneck,
    "metric.tree_comparison": _tree_pairs,
    "rigidity.enumerate_locally_injective": _maps,
    "rigidity.compose": _work_ball,
    "rigidity.inverse": _work_ball,
    "rigidity.image_of_ordered_tet": _work_ball,
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.names: list[str] = []  # function id -> "layer.function"
        self.fn = array("H")
        self.parent = array("i")
        self.job_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.job = -1  # set by the caller; -1 marks set-up
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # layer -> exceptions leaving a public call
        self._last_error = None

    def install(self, package: str = "crosscap3") -> None:
        """Wrap the public functions of every layer module of ``package``."""
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped[fn] = self._wrap(fn, f"{layer}.{name}", layer)
        for mod in [importlib.import_module(package), *modules.values()]:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, name, wrapped[value])

    def _wrap(self, fn, qualname: str, layer: str):
        fid = len(self.names)
        self.names.append(qualname)
        hook = HOOKS.get(qualname)
        fns, parents, jobs, starts, ends = self.fn, self.parent, self.job_of, self.start, self.end
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(fns)
            fns.append(fid)
            parents.append(stack[-1])
            jobs.append(tracer.job)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[sid] = clock()
                stack.pop()
                if exc is not tracer._last_error:
                    tracer._last_error = exc
                    tracer.errors[layer] += 1
                raise
            ends[sid] = clock()
            stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result, ends[sid] - starts[sid])
            return result

        return traced

    def _arrays(self):
        return (
            np.array(self.fn, dtype=np.uint16),
            np.array(self.parent, dtype=np.int32),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
        )

    def metrics(self, window_s: float) -> dict:
        """Per-layer metrics over all spans recorded in a window of ``window_s`` seconds."""
        fn, parent, start, end = self._arrays()
        k = len(self.names)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        inclusive = np.bincount(fn, weights=dur, minlength=k)
        self_time = np.bincount(fn, weights=dur - child, minlength=k)
        calls = np.bincount(fn, minlength=k)
        fid = {name: i for i, name in enumerate(self.names)}

        def total(values, qualname):
            i = fid.get(qualname)
            return float(values[i]) if i is not None else 0.0

        out = {}
        for layer in LAYERS:
            ids = [i for name, i in fid.items() if name.split(".")[0] == layer]
            out[f"{layer}.self_s"] = float(self_time[ids].sum())
            out[f"{layer}.errors"] = self.errors[layer]
        out["farey.calls"] = int(sum(calls[i] for name, i in fid.items() if name.startswith("farey.")))
        for metric, qualname in INCLUSIVE_S.items():
            out[metric] = total(inclusive, qualname)
        for metric, qualname in SELF_S.items():
            out[metric] = total(self_time, qualname)
        for metric, qualname in CALLS.items():
            out[metric] = int(total(calls, qualname))
        for metric, qualname in PER_CALL_US.items():
            n = total(calls, qualname)
            out[metric] = total(inclusive, qualname) / n * 1e6 if n else 0.0
        out["rigidity.group_ops"] = int(sum(total(calls, q) for q in GROUP_OPS))
        c = self.counts
        for metric in (
            "tet_tree.tets_generated",
            "curve_graph.vertices",
            "metric.bfs_sources",
            "metric.triples_examined",
            "metric.thinness_exhaustive_calls",
            "metric.bottleneck_pairs",
            "metric.tree_pairs",
            "rigidity.maps_found",
            "rigidity.work_ball_tets",
        ):
            out[metric] = int(c[metric])
        for metric in ("metric.apd_tet.s", "metric.apd_curve.s", "metric.table_mb"):
            out[metric] = float(c[metric])
        triples = c["metric.triples_examined"]
        out["metric.triple_us"] = out["metric.thinness.s"] / triples * 1e6 if triples else 0.0
        pairs = c["metric.bottleneck_pairs"]
        out["metric.bottleneck_nbhd_share"] = c["bottleneck_nbhd_checked"] / pairs if pairs else 0.0
        checks = out["rigidity.check_map.calls"]
        out["rigidity.enum_yield"] = c["rigidity.maps_found"] / checks if checks else 0.0
        out["trace.spans"] = len(dur)
        out["trace.window_s"] = window_s
        out["trace.harness_s"] = window_s - float(dur[~nested].sum())
        return out

    def dump(self, path) -> None:
        """Write every span (and the function names) to an ``.npz`` file."""
        fn, parent, start, end = self._arrays()
        job = np.array(self.job_of, dtype=np.int32)
        np.savez(path, names=np.array(self.names), fn=fn, parent=parent, job=job, start=start, end=end)
