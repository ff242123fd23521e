"""Layer tracer: spans around calls into each ``selfsim`` module, from outside.

The library carries no instrumentation. ``Tracer.install`` wraps the public
functions of every layer module, and the public methods of the classes those
modules define, and rebinds each wrapper in every ``selfsim`` namespace that
holds the original, so ``prefix_compare`` is traced whether it is reached as
``graph.prefix_compare`` or through ``semigroup``'s own import of it.

A layer is a module. Every wrapped call counts toward ``<layer>.calls``; a
call opens a span only when it enters a layer from outside it (from the
benchmark or from another layer). Calls nested inside the same layer are
counted but not timed, which keeps the span count to the layer crossings and
still gives exact self time: a span's self time is its duration minus that
of its child spans, and children are always other layers.

Spans (name, start, end, parent span, op id) are kept in memory in packed
arrays and written once, by ``write``, when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = (
    "groups",
    "action",
    "graph",
    "semigroup",
    "corona",
    "periodic",
    "groupoid",
    "builders",
    "specfile",
    "cli",
)

# Dunder methods that are part of a layer's interface. ``Graph.__eq__`` is
# counted only (it is called millions of times from inside other layers);
# ``GermContext.__init__`` is the freeness gate and gets a span like any
# public function.
_COUNT_ONLY = {("graph", "Graph", "__eq__")}
_DUNDER_SPANS = {("groupoid", "GermContext", "__init__")}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = 0
        self.calls: Counter = Counter()  # qualified function name -> calls
        self.raised: Counter = Counter()  # layer -> exceptions leaving the layer
        self.span_time: Counter = Counter()  # layer -> total span duration
        self.child_time: Counter = Counter()  # layer -> duration of its child spans
        self.gate_s = 0.0
        self.unknown: Counter = Counter()  # "groups.eq" or "groupoid" -> unknown answers
        self.zero_products = 0
        self.estar_products = 0
        self.periodic_orbits = 0
        self.bounded_orbits = 0
        self._estar_depth = 0
        self._stack: list[tuple[int, str]] = []
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_name = array("I")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_parent = array("i")
        self._span_op = array("I")
        self._gate_id = self._name_id("groupoid.GermContext.__init__")

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every layer of an imported ``selfsim`` package."""
        layers = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        modules = [m for name, m in sys.modules.items() if name == package.__name__
                   or name.startswith(package.__name__ + ".")]
        replaced: dict[int, object] = {}
        for layer, mod in layers.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self._wrap(obj, layer, name)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
        # Rebind wrapped functions wherever a module imported them by name.
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(mod, name, wrapper)

    def _wrap_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            key = (layer, cls.__name__, name)
            qual = f"{cls.__name__}.{name}"
            if name.startswith("_") and key not in _COUNT_ONLY and key not in _DUNDER_SPANS:
                continue
            if isinstance(attr, staticmethod):
                wrapped = staticmethod(self._wrap(attr.__func__, layer, qual))
            elif inspect.isfunction(attr):
                if key in _COUNT_ONLY:
                    wrapped = self._wrap_count(attr, f"{layer}.{qual}")
                else:
                    wrapped = self._wrap(attr, layer, qual)
            else:
                continue  # properties, class attributes
            setattr(cls, name, wrapped)

    def _wrap_count(self, fn, key: str):
        calls = self.calls

        def counted(*args, **kwargs):
            if self.enabled:
                calls[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _wrap(self, fn, layer: str, qual: str):
        tracer = self
        calls = self.calls
        stack = self._stack
        key = f"{layer}.{qual}"
        name_id = self._name_id(key)
        observe = _OBSERVERS.get(key)
        is_estar = qual == "check_e_star_unitary"

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            calls[key] += 1
            if is_estar:
                tracer._estar_depth += 1
            try:
                if stack and stack[-1][1] == layer:
                    result = fn(*args, **kwargs)
                else:
                    result = tracer._span(fn, args, kwargs, layer, name_id)
            finally:
                if is_estar:
                    tracer._estar_depth -= 1
            if observe is not None:
                observe(tracer, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _span(self, fn, args, kwargs, layer: str, name_id: int):
        stack = self._stack
        idx = len(self._span_name)
        self._span_name.append(name_id)
        self._span_parent.append(stack[-1][0] if stack else -1)
        self._span_op.append(self.op)
        stack.append((idx, layer))
        start = time.perf_counter()
        self._span_start.append(start)
        self._span_end.append(start)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.raised[layer] += 1
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self._span_end[idx] = end
            duration = end - start
            self.span_time[layer] += duration
            if stack:
                self.child_time[stack[-1][1]] += duration
            if name_id == self._gate_id:
                self.gate_s += duration

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, self times and the extra ratios, by metric name."""
        c = self.calls
        out: dict[str, float] = {}
        for layer in LAYERS:
            prefix = layer + "."
            out[f"{layer}.calls"] = sum(n for q, n in c.items() if q.startswith(prefix))
            out[f"{layer}.self_s"] = max(self.span_time[layer] - self.child_time[layer], 0.0)
            out[f"{layer}.raised"] = self.raised[layer]
        eq_calls = _sum(c, "groups.", ".eq")
        out["groups.eq_calls"] = eq_calls
        out["groups.mul_calls"] = _sum(c, "groups.", ".mul")
        out["groups.step_calls"] = c["groups.AutomatonGroup.step"]
        out["groups.eq_unknown_share"] = _share(self.unknown["groups.eq"], eq_calls)
        out["action.act_path_calls"] = c["action.SelfSimilarTriple.act_path"]
        out["action.edge_steps"] = (
            c["action.SelfSimilarTriple.act_edge"] + c["action.SelfSimilarTriple.edge_cocycle"]
        )
        out["action.orbit_periodic_share"] = _share(
            self.periodic_orbits, self.periodic_orbits + self.bounded_orbits
        )
        out["graph.prefix_compare_calls"] = c["graph.prefix_compare"]
        out["graph.concat_calls"] = c["graph.concat"]
        out["graph.graph_eq_calls"] = c["graph.Graph.__eq__"]
        mul_calls = c["semigroup.mul"]
        out["semigroup.mul_calls"] = mul_calls
        out["semigroup.zero_share"] = _share(self.zero_products, mul_calls)
        out["semigroup.estar_products"] = self.estar_products
        out["groupoid.gate_s"] = self.gate_s
        out["groupoid.gate_calls"] = c["groupoid.GermContext.__init__"]
        tri_calls = sum(c[f"groupoid.GermContext.{n}"] for n in _GROUPOID_TRI)
        out["groupoid.unknown_share"] = _share(self.unknown["groupoid"], tri_calls)
        out["specfile.load_calls"] = c["specfile.load_spec_file"]
        return out

    def span_time_of(self, name: str) -> float:
        """Total duration of the spans of one traced function."""
        target = self._name_ids.get(name)
        return sum(
            self._span_end[i] - self._span_start[i]
            for i, n in enumerate(self._span_name)
            if n == target
        )

    def write(self, path: Path, seed: int) -> None:
        """Write the spans: a JSON header line, then the packed columns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "seed": seed,
            "names": self._names,
            "spans": len(self._span_name),
            "columns": [
                ["name", "I"], ["start", "d"], ["end", "d"], ["parent", "i"], ["op", "I"],
            ],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (
                self._span_name, self._span_start, self._span_end, self._span_parent, self._span_op,
            ):
                column.tofile(handle)


_GROUPOID_TRI = ("germ_eq", "model_check", "open_set_member")


def _sum(calls: Counter, prefix: str, suffix: str) -> int:
    return sum(n for q, n in calls.items() if q.startswith(prefix) and q.endswith(suffix))


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _observe_eq(tracer: Tracer, result) -> None:
    if result.is_unknown:
        tracer.unknown["groups.eq"] += 1


def _observe_groupoid_tri(tracer: Tracer, result) -> None:
    if result.is_unknown:
        tracer.unknown["groupoid"] += 1


def _observe_mul(tracer: Tracer, result) -> None:
    if type(result).__name__ == "Zero":
        tracer.zero_products += 1
    if tracer._estar_depth:
        tracer.estar_products += 1


def _observe_orbit(tracer: Tracer, result) -> None:
    if type(result).__name__ in ("PeriodicPath", "PeriodicSeq"):
        tracer.periodic_orbits += 1
    else:
        tracer.bounded_orbits += 1


_OBSERVERS = {
    "groups.IntegerGroup.eq": _observe_eq,
    "groups.FiniteGroup.eq": _observe_eq,
    "groups.AutomatonGroup.eq": _observe_eq,
    "semigroup.mul": _observe_mul,
    "action.act_inf_path": _observe_orbit,
    "action.phi_corona": _observe_orbit,
    **{f"groupoid.GermContext.{n}": _observe_groupoid_tri for n in _GROUPOID_TRI},
}
