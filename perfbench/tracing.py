"""Call tracing of the sgphase layers, installed from outside the package.

`install` wraps every public function of the layer modules (and the
public methods of their classes) and rebinds each name under which another
sgphase module imported it, so calls between modules are seen as well.
It also wraps `numpy.fft.fft`/`ifft` and `scipy.integrate.solve_ivp`.
Nothing inside `src/` is changed on disk.

A wrapper records only while `Tracer.active` is true, so the harness can
keep its own checks out of the trace.  For each span name the tracer keeps
every duration (so the call count), the self time (duration minus the
time of traced children) and the calls nested under a few scope spans.
Spans are aggregated in memory and written out at the end.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import importlib
import inspect
import json
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("params", "trajectories", "potential", "gaussian", "phase",
          "oracle", "cli")
# spans under which every traced call is also counted, e.g. the FFT calls
# made inside the grid solver
SCOPES = frozenset({"oracle.evolve_grid"})


class Tracer:
    """Aggregated spans of the wrapped calls."""

    def __init__(self):
        self.active = False
        self._stack: list[list[float]] = []  # time covered by children
        self._open_scopes: list[str] = []
        self.durations: dict[str, array] = defaultdict(lambda: array("d"))
        self.self_time: dict[str, list[float]] = defaultdict(lambda: [0.0])
        self.nested_calls: Counter = Counter()  # (scope, name) -> calls
        self.extra: Counter = Counter()         # counts read off results

    def wrap(self, name: str, fn, on_result=None):
        tracer = self
        stack = self._stack
        open_scopes = self._open_scopes
        nested = self.nested_calls
        record = self.durations[name].append
        self_acc = self.self_time[name]
        is_scope = name in SCOPES
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            for scope in open_scopes:
                nested[scope, name] += 1
            if is_scope:
                open_scopes.append(name)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                record(dur)
                self_acc[0] += dur - frame[0]
                if is_scope:
                    open_scopes.pop()
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    # -- queries -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def total(self, name: str) -> float:
        return float(sum(self.durations.get(name, ())))

    def layer_self_time(self, layer: str) -> float:
        return sum(acc[0] for name, acc in self.self_time.items()
                   if name.split(".", 1)[0] == layer)

    def dump(self, path) -> None:
        rows = {name: {"calls": self.calls(name),
                       "total_s": self.total(name),
                       "self_s": self.self_time[name][0]}
                for name in sorted(self.durations) if self.calls(name)}
        nested = {f"{a} > {n}": c
                  for (a, n), c in sorted(self.nested_calls.items())}
        with open(path, "w") as f:
            json.dump({"spans": rows, "nested_calls": nested,
                       "extra": dict(self.extra)}, f, indent=1)
            f.write("\n")


def _count_intervals(tracer: Tracer, result) -> None:
    tracer.extra["gaussian.regime_intervals.intervals"] += len(result)


def _count_samples(tracer: Tracer, result) -> None:
    tracer.extra["phase.phase_curve.samples"] += len(result.t)


def _count_steps(tracer: Tracer, result) -> None:
    tracer.extra["oracle.evolve_grid.steps"] += result.n_steps


def _count_nfev(tracer: Tracer, result) -> None:
    tracer.extra["phase.solve_ivp.nfev"] += result.nfev


ON_RESULT = {
    "gaussian.regime_intervals": _count_intervals,
    "phase.phase_curve": _count_samples,
    "oracle.evolve_grid": _count_steps,
    "phase.solve_ivp": _count_nfev,
}


def _public_methods(cls):
    for name, fn in vars(cls).items():
        if not inspect.isfunction(fn):
            continue
        if name.startswith("_") and not (
                name == "__init__" and not dataclasses.is_dataclass(cls)):
            continue
        yield name, fn


def install(tracer: Tracer) -> None:
    """Wrap the layer functions, numpy.fft.fft/ifft and solve_ivp."""
    import numpy.fft
    import scipy.integrate

    import sgphase

    modules = {layer: importlib.import_module(f"sgphase.{layer}")
               for layer in LAYERS}
    wrapped: dict = {}   # original function -> wrapper
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) \
                    != mod.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{layer}.{attr}"
                wrapped[obj] = tracer.wrap(name, obj, ON_RESULT.get(name))
            elif inspect.isclass(obj) and not issubclass(
                    obj, (enum.Enum, BaseException)):
                for mname, fn in _public_methods(obj):
                    setattr(obj, mname,
                            tracer.wrap(f"{layer}.{attr}.{mname}", fn))
    for fname in ("fft", "ifft"):
        fn = getattr(numpy.fft, fname)
        wrapped[fn] = tracer.wrap(f"fft.{fname}", fn)
        setattr(numpy.fft, fname, wrapped[fn])
    solve = scipy.integrate.solve_ivp
    wrapped[solve] = tracer.wrap("phase.solve_ivp", solve,
                                 ON_RESULT["phase.solve_ivp"])
    scipy.integrate.solve_ivp = wrapped[solve]

    # rebind every name bound to a wrapped function, including the names
    # that one module imported from another (`from .gaussian import ...`)
    for mod in (sgphase, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
