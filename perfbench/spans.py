"""In-memory span tracing of finslerkit, installed from outside the package.

`instrument` wraps the public entry points of each finslerkit layer by
rebinding module attributes and class attributes at run time; nothing under
`src/` changes. Every wrapped call records one span (name, start, end,
parent) in flat arrays, so millions of jet-op spans stay cheap.
`layer_metrics` reduces the spans to the per-layer metrics of
BENCHMARK.json, and `save` writes the raw spans out.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

from workloads import CALL_LAYERS, MUL_ORDERS, RUNGS

_JET_OPS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "rsub",
    "__neg__": "neg", "__truediv__": "truediv", "__rtruediv__": "rtruediv",
    "__pow__": "pow", "partial_jet": "partial_jet", "truncated": "truncated",
}


class Tracer:
    """Spans in parallel arrays; index i is span i, parent -1 is a root."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, rename=None):
        """`fn` recording a span per call. `name` is a string or a callable
        of the call's arguments; `rename(result)`, when given, returns the
        final name id once the result is known."""
        fixed = None if callable(name) else self.name_id(name)
        name_id, clock, stack = self.name_id, self.clock, self.stack
        names, parents, starts, ends = self.name, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(fixed if fixed is not None else name_id(name(*args)))
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
                if rename is not None:
                    names[i] = rename(out)
                return out
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def arrays(self):
        """(names, name ids, parents, starts, ends) with times in ns."""
        return (
            self.names,
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
        )

    def save(self, path: str) -> None:
        names, nid, parent, start, end = self.arrays()
        np.savez(path, names=np.array(names), name=nid, parent=parent,
                 start_ns=start, end_ns=end)


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Span duration minus the durations of its direct children.

    Calls are single-threaded and nested, so children never overlap and
    their summed durations are the part of the parent's interval they cover.
    """
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur - covered


# -- instrumentation ------------------------------------------------------------


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if n == "finslerkit" or n.startswith("finslerkit.")]


def _rebind(original, replacement) -> None:
    """Point every finslerkit module attribute bound to `original` at `replacement`."""
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _public_functions(module):
    return [(name, fn) for name, fn in sorted(vars(module).items())
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_")]


def _wrap_module(tracer: Tracer, module, layer: str) -> None:
    for name, fn in _public_functions(module):
        _rebind(fn, tracer.wrap(fn, f"{layer}.{name}"))


def instrument(tracer: Tracer) -> None:
    """Wrap every layer of an imported finslerkit in `tracer` spans."""
    from finslerkit import (chart, checks, cli, connections, curvature, fields,
                            frame, jets, picalc, structures)

    # jets: ring ops on the class, mul named by the order of its result
    Jet = jets.Jet
    wrapped = {}
    for attr, op in _JET_OPS.items():
        fn = vars(Jet)[attr]
        if fn not in wrapped:
            wrapped[fn] = tracer.wrap(fn, f"jets.{op}")
        setattr(Jet, attr, wrapped[fn])
    mul_ids = [tracer.name_id(f"jets.mul.o{k}") for k in range(5)]
    mul = tracer.wrap(vars(Jet)["__mul__"], "jets.mul.o0",
                      rename=lambda out: mul_ids[out.order])
    Jet.__mul__ = Jet.__rmul__ = mul
    counts = tracer.counts
    counts["jets.created"] = counts["frame.cache.rebuilds"] = 0
    init = Jet.__init__

    def counted_init(self, nvars, order, coeffs):
        counts["jets.created"] += 1
        init(self, nvars, order, coeffs)

    Jet.__init__ = counted_init
    _wrap_module(tracer, jets, "jets")

    # frame: point_frame, construction, the tower rungs and field jets
    PointFrame = frame.PointFrame
    _rebind(frame.point_frame, tracer.wrap(frame.point_frame, "frame.point_frame"))
    built = set()
    build = PointFrame.__init__

    def tracked_build(self, structure, point):
        # structures hash by identity and `built` keeps them alive, so a key
        # seen again is the same structure at the same point
        key = (structure, point)
        if key in built:
            counts["frame.cache.rebuilds"] += 1
        built.add(key)
        build(self, structure, point)

    PointFrame.__init__ = tracer.wrap(tracked_build, "frame.build")
    for rung in RUNGS:
        prop = vars(PointFrame)[rung]
        prop.func = tracer.wrap(prop.func, f"frame.rung.{rung.lstrip('_')}")
    PointFrame.field_jet = tracer.wrap(PointFrame.field_jet, "frame.field_jet")

    # fields: the component-jet producers of every pi-vector field class
    for cls in vars(fields).values():
        if inspect.isclass(cls) and issubclass(cls, fields.PiVectorField) \
                and "jets" in vars(cls):
            cls.jets = tracer.wrap(vars(cls)["jets"], f"fields.{cls.__name__}.jets")

    for module in (picalc, connections, curvature):
        _wrap_module(tracer, module, module.__name__.rsplit(".", 1)[1])
    _wrap_module(tracer, structures, "structures")
    _rebind(chart.sample_points, tracer.wrap(chart.sample_points, "chart.sample"))
    _rebind(checks.run_check,
            tracer.wrap(checks.run_check, lambda cid, *rest: f"checks.{cid}"))
    _rebind(cli.run_checks, tracer.wrap(cli.run_checks, "cli.run_checks"))
    _rebind(cli.main, tracer.wrap(cli.main, "cli.main"))


# -- reduction to per-layer metrics ------------------------------------------------


def layer_metrics(tracer: Tracer, check_ids) -> dict:
    """Per-layer metric values (without units) from the recorded spans."""
    names, nid, parent, start, end = tracer.arrays()
    dur = end - start
    selft = self_times(parent, dur)
    ids = {n: i for i, n in enumerate(names)}
    count = np.bincount(nid, minlength=len(names))
    total = np.bincount(nid, weights=dur, minlength=len(names))
    # the name id of each span's parent, -1 for a root span
    parent_nid = np.where(parent >= 0, nid[np.maximum(parent, 0)], -1)

    def is_(name):
        return nid == ids.get(name, -1)

    def calls(name):
        return int(count[ids[name]]) if name in ids else 0

    def seconds(name):
        return float(total[ids[name]]) / 1e9 if name in ids else 0.0

    def prefixed(prefix):
        return np.array([n.startswith(prefix) for n in names] + [False])[nid]

    def called_from(child, caller):
        """Spans named `child` whose parent span is named `caller`."""
        return int(np.sum(is_(child) & (parent_nid == ids.get(caller, -2))))

    def hit_ratio(lookup, miss_child):
        # every miss makes exactly one `miss_child` call directly
        n = calls(lookup)
        return 1.0 - called_from(miss_child, lookup) / n if n else 0.0

    out = {"jets.created": tracer.counts.get("jets.created", 0),
           "jets.mul.calls": int(prefixed("jets.mul.").sum()),
           "jets.add.calls": calls("jets.add"),
           "jets.partial_jet.calls": calls("jets.partial_jet"),
           "jets.jet_eval.calls": calls("jets.jet_eval")}
    for k in MUL_ORDERS:
        n = calls(f"jets.mul.o{k}")
        out[f"jets.mul.o{k}.calls"] = n
        out[f"jets.mul.o{k}.us"] = seconds(f"jets.mul.o{k}") * 1e6 / n if n else 0.0
    out["jets.self_s"] = float(selft[prefixed("jets.")].sum()) / 1e9

    # a rung's time without the rungs it triggered, as if touched in tower order
    rung = prefixed("frame.rung.") & (parent >= 0)
    nested = np.bincount(parent[rung], weights=dur[rung], minlength=len(dur))
    for name in RUNGS:
        mask = is_(f"frame.rung.{name.lstrip('_')}")
        own = dur[mask] - nested[mask]
        out[f"frame.{name.lstrip('_')}.us"] = float(own.mean()) / 1e3 if own.size else 0.0
    out["frame.frames_built"] = calls("frame.build")
    out["frame.point_frame.calls"] = calls("frame.point_frame")
    out["frame.cache.hit_ratio"] = hit_ratio("frame.point_frame", "frame.build")
    out["frame.cache.rebuilds"] = tracer.counts.get("frame.cache.rebuilds", 0)
    out["frame.self_s"] = float(selft[prefixed("frame.")].sum()) / 1e9
    out["frame.field_jet.calls"] = calls("frame.field_jet")
    out["frame.field_jet.hit_ratio"] = hit_ratio("frame.field_jet", "jets.jet_eval")

    for cid in check_ids:
        out[f"checks.{cid}.s"] = seconds(f"checks.{cid}")
    for layer in CALL_LAYERS:
        mask = prefixed(f"{layer}.")
        out[f"{layer}.calls"] = int(mask.sum())
        out[f"{layer}.self_s"] = float(selft[mask].sum()) / 1e9

    out["chart.sample.s"] = seconds("chart.sample")
    # structure builds nest (by_name -> sphere2 -> riemannian): count the outermost
    builds = prefixed("structures.")
    outer = builds & ~np.isin(parent_nid, [i for n, i in ids.items()
                                           if n.startswith("structures.")])
    out["structures.build.s"] = float(dur[outer].sum()) / 1e9
    # serialization and write: from run_checks returning to cli.main returning
    # (cmd_verify is not wrapped, so run_checks' parent span is cli.main)
    report = is_("cli.run_checks") & (parent_nid == ids.get("cli.main", -2))
    out["cli.report.s"] = float((end[parent[report]] - end[report]).sum()) / 1e9
    out["trace.spans"] = len(nid)
    return out
