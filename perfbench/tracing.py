"""Span tracing of the library's layers, installed from outside the library.

`Tracer.install` rebinds every module attribute through which callers reach
a layer function to a span-recording wrapper, and `uninstall` puts the
originals back.  The search is by identity over all loaded `seshadri`
modules, so from-imports such as `cm.require_ample` or
`cli.random_ample_classes` are wrapped where they are bound.  A function
the library no longer has is reported as an absent layer.

A span is (id, parent id, name, start ns, end ns, call id).  Spans stay in
memory until the run ends; then `write` saves them and `layer_metrics`
reduces them to the per-layer metrics.  A span opened on a thread with
no open span of its own (a kernel slab on a pool worker) takes the client
thread's innermost open span, the `minimize_quartic` that waits on it, as
its parent.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns

#: Layer module -> functions wrapped as spans.  The oracle's two reference
#: entry points are wrapped so that their Fraction set-up is not billed to
#: the CLI.
LAYERS = {
    "lattice": ("require_ample",),
    "sampling": ("random_ample_classes",),
    "cm": ("seshadri_constant", "search_bound", "reduce_tuple",
           "canonical_tuple", "degree_vector"),
    "kernels": ("minimize_quartic", "quartic_min_box"),
    "nocm": ("seshadri_constant", "submaximal_curves", "class_to_pair"),
    "cross_section": ("cross_section",),
    "oracle": ("min_quadratic_form", "cm_seshadri", "nocm_seshadri"),
    "cli": ("main",),
}

#: The root span the benchmark opens around each workload call.
ROOT = "call"

# Per-layer metrics: (name, unit), in report order.  `*.self_ns` is a span's
# self time summed over the traced pass and divided by its workload calls.
SELF_TIMES = (
    "kernels.minimize_quartic", "cm.reduce_tuple", "cm.canonical_tuple",
    "cm.degree_vector", "cm.seshadri_constant", "cm.search_bound",
    "lattice.require_ample", "nocm.seshadri_constant",
    "nocm.submaximal_curves", "nocm.class_to_pair",
    "cross_section.cross_section", "oracle.min_quadratic_form",
    "oracle.cm_seshadri", "oracle.nocm_seshadri", "cli.main",
    "sampling.random_ample_classes",
)
METRICS = (
    *((f"{name}.self_ns", "ns") for name in SELF_TIMES),
    ("kernels.slabs", "count"),
    ("kernels.quartic_min_box.busy_ns", "ns"),
    ("cm.box_radius.p50", "count"),
    ("cm.box_radius.max", "count"),
    ("cm.minimizers", "count"),
    ("cm.witness_ratio", "ratio"),
    ("cm.warm_start_hit_ratio", "ratio"),
    ("cross_section.ns_per_q", "ns"),
    ("cross_section.segments", "count"),
    ("oracle.radius_searched.p50", "count"),
    ("oracle.radius_searched.max", "count"),
    ("trace.overhead_ratio", "ratio"),
)


# Counters read at a layer boundary from the wrapped call's arguments and
# result.  Each returns {counter: value}; an argument or field the library
# renamed makes the counter absent rather than failing the call.
def _count_minimize_quartic(args, result):
    best, mins = result
    return {
        "box_radius": args["radius"],
        "minimizers": len(mins),
        "warm_start_hit": int(best == args["best"]),
    }


def _count_cm_constant(args, result):
    return {"witnesses": len(result.witnesses)}


def _count_cross_section(args, result):
    lam = result.slope_ratio
    return {"p_plus_q": lam.numerator + lam.denominator,
            "segments": len(result.segments)}


def _count_min_quadratic_form(args, result):
    return {"radius_searched": result.radius_searched}


COUNTERS = {
    "kernels.minimize_quartic": _count_minimize_quartic,
    "cm.seshadri_constant": _count_cm_constant,
    "cross_section.cross_section": _count_cross_section,
    "oracle.min_quadratic_form": _count_min_quadratic_form,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.counts: dict[str, list[int]] = defaultdict(list)
        self.absent: list[str] = []
        self.recording = False
        self.call_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._client_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else self._client_stack[-1]
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                self.spans.append((sid, parent, name, start, end, self.call_id))
            if counter is not None:
                self._count(counter, signature, args, kwargs, result)
            return result

        return traced

    def _count(self, counter, signature, args, kwargs, result) -> None:
        try:
            bound = signature.bind(*args, **kwargs).arguments
            values = counter(bound, result)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            return
        for key, value in values.items():
            self.counts[key].append(value)

    def install(self) -> None:
        homes = {}
        for module_name, functions in LAYERS.items():
            try:
                homes[module_name] = importlib.import_module(f"seshadri.{module_name}")
            except ImportError:
                self.absent.extend(f"{module_name}.{f}" for f in functions)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "seshadri" or n.startswith("seshadri.")]
        for module_name, home in homes.items():
            for fn_name in LAYERS[module_name]:
                name = f"{module_name}.{fn_name}"
                original = getattr(home, fn_name, None)
                if not inspect.isfunction(original):
                    self.absent.append(name)
                    continue
                wrapper = self.wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._saved.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def call(self, fn, arg):
        """Run one workload call under a root span."""
        self.call_id += 1
        sid = next(self._ids)
        stack = self._stack()
        self._client_stack = stack
        stack.append(sid)
        self.recording = True
        start = perf_counter_ns()
        try:
            return fn(arg)
        finally:
            end = perf_counter_ns()
            self.recording = False
            stack.pop()
            self.spans.append((sid, 0, ROOT, start, end, self.call_id))

    def write(self, path) -> None:
        """Save the spans as tab-separated lines under a header."""
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\tcall\n")
            for span in self.spans:
                out.write("\t".join(map(str, span)) + "\n")

    def self_times(self) -> dict[str, int]:
        """Total self time per span name: duration minus the union of the
        intervals its children cover (children on pool threads overlap)."""
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for _, parent, _, start, end, _ in self.spans:
            children[parent].append((start, end))
        totals: dict[str, int] = defaultdict(int)
        for sid, _, name, start, end, _ in self.spans:
            covered, reach = 0, start
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            totals[name] += end - start - covered
        return totals

    def busy_times(self) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for _, _, name, start, end, _ in self.spans:
            totals[name] += end - start
        return totals

    def span_counts(self) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for _, _, name, _, _, _ in self.spans:
            totals[name] += 1
        return totals


def _p50(values):
    return statistics.median(values) if values else 0


def _mean(values):
    return sum(values) / len(values) if values else 0


def layer_metrics(tracer: Tracer, calls: int, overhead_ratio: float) -> dict:
    """Reduce the traced pass to the per-layer metrics, per workload call.

    A layer the workload does not reach, or the library no longer has,
    reads 0.
    """
    self_ns = tracer.self_times()
    busy = tracer.busy_times()
    spans = tracer.span_counts()
    counts = tracer.counts
    values: dict[str, float] = {
        f"{name}.self_ns": self_ns.get(name, 0) // calls for name in SELF_TIMES
    }
    minimizers = sum(counts["minimizers"])
    p_plus_q = sum(counts["p_plus_q"])
    values.update({
        "kernels.slabs": spans.get("kernels.quartic_min_box", 0) / calls,
        "kernels.quartic_min_box.busy_ns":
            busy.get("kernels.quartic_min_box", 0) // calls,
        "cm.box_radius.p50": _p50(counts["box_radius"]),
        "cm.box_radius.max": max(counts["box_radius"], default=0),
        "cm.minimizers": minimizers / calls,
        "cm.witness_ratio":
            sum(counts["witnesses"]) / minimizers if minimizers else 0,
        "cm.warm_start_hit_ratio": _mean(counts["warm_start_hit"]),
        "cross_section.ns_per_q":
            self_ns.get("cross_section.cross_section", 0) // p_plus_q
            if p_plus_q else 0,
        "cross_section.segments": _mean(counts["segments"]),
        "oracle.radius_searched.p50": _p50(counts["radius_searched"]),
        "oracle.radius_searched.max": max(counts["radius_searched"], default=0),
        "trace.overhead_ratio": overhead_ratio,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}
