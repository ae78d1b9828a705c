"""Layer spans for the traced run, recorded from outside the program.

``Tracer.install`` replaces every public function of the six layer modules
(``cli``, ``verify``, ``series``, ``families``, ``bounds``, ``numerics``),
plus ``verify._family_peak`` and minus two per-point helpers, with a wrapper
that records a span.  A function imported elsewhere with ``from .x import f``
is replaced under every name any layer module (and the package) binds it to,
so calls made through those names are recorded too.  ``uninstall`` puts the originals back.

Each thread appends its spans to its own compact buffer: name id, parent
span, start and end on the thread's CPU clock (busy time; a thread waiting
for the interpreter lock uses none), and start and end on the wall clock.
Nothing is aggregated until the run ends.  A span's self time is its busy
time minus that of the spans nested directly in it on the same thread.
"""

from __future__ import annotations

import importlib
import threading
import time
import types
from array import array
from typing import Callable, Dict, List

LAYERS = ("cli", "verify", "series", "families", "bounds", "numerics")
_PRIVATE = {"verify": ("_family_peak",)}
# Per-point helpers of the family functionals, called about 300,000 times in
# a sweep round: a span costs more than their body, and that cost would land
# in their callers' self time.  No metric reads them.
_UNWRAPPED = {"families": ("a_of_x", "b2_max")}
CLOSED_FORMS = (
    "bounds.bound_basic",
    "bounds.bound_prop1",
    "bounds.bound_thm1_B",
    "bounds.bound_thm1_B2",
    "bounds.bound_cor1",
    "bounds.thm_rhs",
)


class _Buffer:
    __slots__ = ("name", "parent", "cpu0", "cpu1", "wall0", "wall1", "stack", "iterations")

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.cpu0 = array("d")
        self.cpu1 = array("d")
        self.wall0 = array("d")
        self.wall1 = array("d")
        self.stack: List[int] = []
        self.iterations = 0  # sum of RootResult.iterations of numerics.bisect


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._restore: List[tuple] = []

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            self._buffers.append(buf)
        return buf

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn: Callable) -> Callable:
        fixed = self._id(name)
        by_suite = name == "verify.run_suite"
        is_bisect = name == "numerics.bisect"
        cpu, wall = time.thread_time, time.perf_counter

        def traced(*args, **kwargs):
            buf = self._buffer()
            idx = len(buf.name)
            buf.name.append(self._id(f"{name}.{args[0]}") if by_suite else fixed)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.wall0.append(wall())
            buf.cpu0.append(cpu())
            buf.cpu1.append(0.0)
            buf.wall1.append(0.0)
            buf.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.cpu1[idx] = cpu()
                buf.wall1[idx] = wall()
                buf.stack.pop()
            if is_bisect:
                buf.iterations += result.iterations
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"blochsums.{layer}") for layer in LAYERS]
        wrappers: Dict[int, Callable] = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if not isinstance(obj, types.FunctionType) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in _PRIVATE.get(layer, ()):
                    continue
                if attr in _UNWRAPPED.get(layer, ()):
                    continue
                wrappers[id(obj)] = self._wrap(f"{layer}.{attr.lstrip('_')}", obj)
        modules.append(importlib.import_module("blochsums"))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def calls(self, name: str) -> int:
        """Spans recorded so far under ``name``."""
        if name not in self._ids:
            return 0
        return sum(buf.name.count(self._ids[name]) for buf in self._buffers)

    def spans(self) -> int:
        return sum(len(buf.name) for buf in self._buffers)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive and self busy time, inclusive wall time."""
        out: Dict[str, Dict[str, float]] = {}
        for buf in self._buffers:
            n = len(buf.name)
            busy = [buf.cpu1[i] - buf.cpu0[i] for i in range(n)]
            nested = [0.0] * n
            for i in range(n):
                p = buf.parent[i]
                if p >= 0:
                    nested[p] += busy[i]
            for i in range(n):
                agg = out.setdefault(
                    self._names[buf.name[i]], {"calls": 0, "busy": 0.0, "self": 0.0, "wall": 0.0}
                )
                agg["calls"] += 1
                agg["busy"] += busy[i]
                agg["self"] += busy[i] - nested[i]
                agg["wall"] += buf.wall1[i] - buf.wall0[i]
        return out

    def iterations(self) -> int:
        return sum(buf.iterations for buf in self._buffers)


def layer_metrics(tracer: Tracer, suites) -> Dict[str, float]:
    """The per-layer metrics of one traced round (times in seconds)."""
    spans = tracer.summary()
    empty = {"calls": 0, "busy": 0.0, "self": 0.0, "wall": 0.0}

    def get(name: str) -> Dict[str, float]:
        return spans.get(name, empty)

    m: Dict[str, float] = {}
    for cmd in ("verify", "scan", "table", "root"):
        m[f"cli.cmd_{cmd}_s"] = get(f"cli.cmd_{cmd}")["wall"]
    run_suite_self = 0.0
    for suite in suites:
        span = get(f"verify.run_suite.{suite}")
        m[f"verify.run_suite.{suite}_s"] = span["busy"]
        run_suite_self += span["self"]
    m["verify.run_suite_s"] = run_suite_self
    m["verify.verify_thm1.calls"] = get("verify.verify_thm1")["calls"]
    for name in (
        "verify.make_subordinate",
        "verify.family_peak",
        "series.weighted_power_sum",
        "series.integrate_series",
        "numerics.bisect",
        "numerics.golden_max",
    ):
        m[f"{name}.calls"] = get(name)["calls"]
        m[f"{name}_s"] = get(name)["self"]
    m["numerics.bisect.iterations"] = tracer.iterations()
    m["numerics.trapezoid_s"] = get("numerics.trapezoid")["self"]
    m["numerics.sign_changes_s"] = get("numerics.sign_changes")["self"]
    m["families.g_prime_coeffs_s"] = get("families.g_prime_coeffs")["self"]
    m["families.h_series_s"] = get("families.h_series")["self"]
    m["families.x_of_a.calls"] = get("families.x_of_a")["calls"]
    m["bounds.closed_form.calls"] = sum(get(n)["calls"] for n in CLOSED_FORMS)
    m["bounds.closed_form_s"] = sum(get(n)["self"] for n in CLOSED_FORMS)
    return m
