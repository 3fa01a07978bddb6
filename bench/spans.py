"""Span tracing of spintransfer from outside the package, for the traced benchmark run.

`Tracer.install` wraps every public module-level function of the nine layer
modules in a span named ``<module>.<function>`` and puts the wrapper at every
place the package holds a reference to the function: its own module, each
``from .x import`` site and module-level dicts such as the CLI command table.
Calls made inside the package are therefore traced too.  Each span records
its start and end as seen by the caller (outer) and by the wrapped call
(inner), its parent span and the benchmark operation id; spans stay in memory
until `layer_metrics` and `write_spans` read them after the timed region.

Self time of a span is its inner duration minus the outer durations of its
child spans.  Everything else inside the timed operations (wrapper
bookkeeping, the benchmark's own calls) is harness time, so the module self
times plus harness time add up to the timed region exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from time import perf_counter

LAYERS = ("linalg", "chain", "basis", "amplitudes", "protocol", "oracle", "dynmap", "fidelity", "cli")

# Functions evaluated at one time point; such a call made directly by
# find_optimal_time is one evaluation of its refinement objective.
_SINGLE_TIME = ("amplitudes.transition_matrix", "amplitudes.chain_transition_matrix")
_TIME_GRIDS = {"amplitudes.transfer_amplitude_series": "times", "protocol.scan_values": "times"}


class Span:
    __slots__ = ("name", "parent", "op", "outer0", "inner0", "inner1", "outer1", "attrs")

    def __init__(self, name, parent, op, outer0):
        self.name = name
        self.parent = parent
        self.op = op
        self.outer0 = outer0
        self.inner0 = self.inner1 = self.outer1 = 0.0
        self.attrs = None


class Tracer:
    """Installs span wrappers into the imported spintransfer package and collects spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self.sector_builds = 0
        self.sector_dim_max = 0
        self.functions = {"dynmap.evaluate"}  # span names; the evaluator is wrapped when created
        self._stack: list[int] = []
        self._undo: list = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer0 = perf_counter()
            span = Span(name, stack[-1] if stack else -1, self.op, outer0)
            stack.append(len(spans))
            spans.append(span)
            builds = self.sector_builds
            span.inner0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.inner1 = perf_counter()
                stack.pop()
            if after is not None:
                replaced = after(span, fn, args, kwargs, result, self.sector_builds - builds)
                if replaced is not None:
                    result = replaced
            span.outer1 = perf_counter()
            return result

        return wrapper

    def _after_evaluator(self, span, fn, args, kwargs, result, builds):
        """Traces the callable fidelity_evaluator returns as its own span."""
        return self._wrap("dynmap.evaluate", result, _after_evaluate)

    def _hooks(self) -> dict:
        """Per-span hooks that record work counts; a hook may return a replacement result."""
        hooks = {name: _after_points for name in (*_SINGLE_TIME, *_TIME_GRIDS)}
        hooks["oracle.receiver_amplitude_tensor"] = _after_tensor
        hooks["dynmap.fidelity_evaluator"] = self._after_evaluator
        hooks["cli.main"] = _after_cli
        return hooks

    def _count_sector(self, fn):
        """Counts builds of the private sector cache when the oracle has one."""

        @functools.wraps(fn)
        def counted(spec, k):
            misses = fn.cache_info().misses
            result = fn(spec, k)
            if fn.cache_info().misses > misses:
                self.sector_builds += 1
                self.sector_dim_max = max(self.sector_dim_max, len(result[0]))
            return result

        return counted

    def install(self) -> None:
        hooks = self._hooks()
        replacement = {}
        for layer in LAYERS:
            module = importlib.import_module(f"spintransfer.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) or callable(getattr(obj, "cache_info", None)):
                    name = f"{layer}.{attr}"
                    self.functions.add(name)
                    replacement[id(obj)] = self._wrap(name, obj, hooks.get(name))
        oracle = sys.modules["spintransfer.oracle"]
        sector = getattr(oracle, "_sector", None)
        if callable(getattr(sector, "cache_info", None)):
            replacement[id(sector)] = self._count_sector(sector)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "spintransfer" and not mod_name.startswith("spintransfer."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in replacement:
                    self._undo.append((setattr, module, attr, obj))
                    setattr(module, attr, replacement[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if id(value) in replacement:
                            self._undo.append((dict.__setitem__, obj, key, value))
                            obj[key] = replacement[id(value)]

    def remove(self) -> None:
        while self._undo:
            restore, target, key, original = self._undo.pop()
            restore(target, key, original)

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> list[float]:
        child_outer = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_outer[s.parent] += s.outer1 - s.outer0
        return [s.inner1 - s.inner0 - c for s, c in zip(self.spans, child_outer)]

    def layer_metrics(self, names, timed_s: float, passes: int) -> dict[str, float]:
        """The named per-layer metrics over the traced run; `timed_s` is the summed time of the operations.

        Values are per pass, except `oracle.sector_dim_max` (a maximum), the
        `receiver_amplitude_tensor` cold and warm times (mean per call), the
        ratio and the rates.  A name ``<layer>.self_s`` or ``<layer>.calls``
        sums over the layer's functions, ``<layer>.<function>.self_s`` or
        ``.calls`` covers that function alone; other names are computed below.
        """
        selfs = self.self_times()
        totals: dict[str, float] = {}
        calls: dict[str, int] = {}
        wrapper_s = 0.0
        for s, own in zip(self.spans, selfs):
            totals[s.name] = totals.get(s.name, 0.0) + own
            calls[s.name] = calls.get(s.name, 0) + 1
            wrapper_s += (s.outer1 - s.outer0) - (s.inner1 - s.inner0)

        def attr_sum(name, key, parent=None):
            total = 0
            for s in self.spans:
                if s.name == name and s.attrs and (
                    parent is None or (s.parent >= 0 and self.spans[s.parent].name == parent)
                ):
                    total += s.attrs.get(key, 0)
            return total

        per = 1.0 / passes
        tensors = [s for s in self.spans if s.name == "oracle.receiver_amplitude_tensor"]
        assembly = attr_sum("oracle.receiver_amplitude_tensor", "assembly_flop", "dynmap.map_from_evolution")
        evaluate = attr_sum("dynmap.evaluate", "flop")
        objective_calls = sum(
            1
            for s in self.spans
            if s.parent >= 0
            and self.spans[s.parent].name == "protocol.find_optimal_time"
            and s.attrs
            and s.attrs.get("points") == 1
        )
        computed = {
            "amplitudes.points": attr_sum("amplitudes.transfer_amplitude_series", "points") * per,
            "amplitudes.dets": attr_sum("amplitudes.transfer_amplitude_series", "dets") * per,
            "protocol.objective_calls": objective_calls * per,
            "cli.bytes_out": attr_sum("cli.main", "bytes") * per,
            "oracle.receiver_amplitude_tensor.cold_s": _mean_inner([s for s in tensors if s.attrs["cold"]]),
            "oracle.receiver_amplitude_tensor.warm_s": _mean_inner([s for s in tensors if not s.attrs["cold"]]),
            "oracle.sector_builds": self.sector_builds * per,
            "oracle.sector_dim_max": self.sector_dim_max,
            "dynmap.assembly_gflop": assembly * 1e-9 * per,
            "dynmap.assembly_gflops_computed": _rate(assembly, totals.get("dynmap.map_from_evolution", 0.0)),
            "dynmap.evaluate.states": attr_sum("dynmap.evaluate", "states") * per,
            "dynmap.evaluate_gflop": evaluate * 1e-9 * per,
            "dynmap.evaluate_gflops_computed": _rate(evaluate, totals.get("dynmap.evaluate", 0.0)),
            "traced_region_s": timed_s * per,
            "harness_s": (timed_s - sum(totals.values())) * per,
            "trace_overhead_ratio": wrapper_s / (timed_s - wrapper_s) if timed_s > wrapper_s else 0.0,
        }

        def value(name):
            if name in computed:
                return computed[name]
            base, _, field = name.rpartition(".")
            table = {"self_s": totals, "calls": calls}[field]
            if base in LAYERS:
                return sum(v for k, v in table.items() if k.startswith(base + ".")) * per
            if base not in self.functions:
                raise KeyError(f"no traced function {base!r} for metric {name!r}")
            return table.get(base, 0) * per

        return {name: value(name) for name in names}

    def write_spans(self, path: str) -> None:
        """Writes every span as one CSV line: id, operation, parent, name, outer times, self time."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,op,parent,name,start_s,end_s,self_s\n")
            for i, (s, own) in enumerate(zip(self.spans, self.self_times())):
                fh.write(f"{i},{s.op},{s.parent},{s.name},{s.outer0:.9f},{s.outer1:.9f},{own:.9f}\n")


def _mean_inner(spans) -> float:
    return sum(s.inner1 - s.inner0 for s in spans) / len(spans) if spans else 0.0


def _rate(flop: float, seconds: float) -> float:
    return flop * 1e-9 / seconds if seconds > 0 else 0.0


def _argument(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _after_points(span, fn, args, kwargs, result, builds):
    grid = _TIME_GRIDS.get(span.name)
    if grid is None:
        span.attrs = {"points": 1}
        return
    points = len(_argument(fn, args, kwargs, grid))
    span.attrs = {"points": points}
    if span.name == "amplitudes.transfer_amplitude_series":
        span.attrs["dets"] = points * (2 ** _argument(fn, args, kwargs, "n") - 1)


def _after_tensor(span, fn, args, kwargs, result, builds):
    d, n_env = result.shape[0], result.shape[1]
    # One complex multiply-add (8 flop) per map element and environment state.
    span.attrs = {"cold": builds > 0, "assembly_flop": 8 * d**4 * n_env}


def _after_evaluate(span, fn, args, kwargs, result, builds):
    states = args[0] if args else kwargs["states"]
    rows = 1 if getattr(states, "ndim", 2) == 1 else len(states)
    d = states.shape[-1]
    # u^H A u with a d^2 x d^2 map: d^4 complex multiply-adds per state.
    span.attrs = {"states": rows, "flop": 8 * d**4 * rows}


def _after_cli(span, fn, args, kwargs, result, builds):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            span.attrs = {"bytes": os.path.getsize(path)}
