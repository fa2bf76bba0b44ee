"""Spans around qsdlab's public functions, recorded from outside the package.

``install`` replaces every public function of every qsdlab module by a
wrapper, in every module namespace that binds it: ``cli`` reaches the solver
as ``spectral.principal_eigenpair`` while ``analytics`` imported
``flow_curve`` by name, and both calls must be seen.  ``uninstall`` puts the
original functions back, so traced and untraced passes run the same code.

A span records (request, id, parent, layer, function, bucket, start, end).
Its self time is its duration minus the durations of its direct children;
calls on one thread nest, so children never overlap.  The bucket names the
per-layer metric the span's self time counts towards: a bucket root such as
``principal_eigenpair`` opens one, a callee in the same layer inherits it,
and any other span counts towards ``<layer>.other``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from dataclasses import dataclass

MODULES = ("cli", "analytics", "spectral", "doob", "montecarlo", "potential", "grid_measure")

BUCKET_ROOTS = {
    "spectral.assemble_generator": "spectral.assemble",
    "spectral.principal_eigenpair": "spectral.eigensolve",
    "spectral.spectral_gap": "spectral.eigensolve",
    "doob.flow_curve": "doob.flow",
    "montecarlo.simulate": "montecarlo.simulate",
    "potential.evaluate": "potential.evaluate",
    "grid_measure.tv_distance": "grid_measure.distance",
    "grid_measure.w1_distance": "grid_measure.distance",
    "grid_measure.chi2_divergence": "grid_measure.distance",
}


@dataclass
class Span:
    request: int
    span_id: int
    parent: int | None
    layer: str
    name: str
    bucket: str
    start: float
    end: float = math.nan


def _cn_node_steps(args, kwargs) -> tuple[int, int]:
    """(CN steps, n * steps) of one ``flow_curve(op, mu, times, dt, ...)`` call."""
    op = args[0] if args else kwargs["op"]
    times = args[2] if len(args) > 2 else kwargs["times"]
    dt = args[3] if len(args) > 3 else kwargs["dt"]
    steps, t_prev = 0, 0.0
    for t in times:
        seg = float(t) - t_prev
        if seg > 0.0:
            steps += max(1, math.ceil(seg / dt))
        t_prev = float(t)
    return steps, steps * op.grid.n


def _particle_steps(args, kwargs) -> int:
    """Particle steps requested by one ``simulate(config, ...)`` call."""
    config = args[0] if args else kwargs["config"]
    return config.n_particles * int(round(config.horizon / config.dt))


class Tracer:
    """In-memory span recorder with per-call work counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.request = 0
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def _count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _call(self, fn, layer: str, name: str, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        bucket = BUCKET_ROOTS.get(f"{layer}.{name}")
        if bucket is None:
            bucket = parent.bucket if parent is not None and parent.layer == layer else f"{layer}.other"
        if layer == "doob" and name == "flow_curve":
            steps, node_steps = _cn_node_steps(args, kwargs)
            self._count("doob.cn_steps", steps)
            self._count("doob.node_steps", node_steps)
        elif layer == "montecarlo" and name == "simulate":
            self._count("montecarlo.particle_steps", _particle_steps(args, kwargs))
        span = Span(self.request, len(self.spans), parent.span_id if parent else None,
                    layer, name, bucket, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def install(self) -> None:
        modules = {name: importlib.import_module(f"qsdlab.{name}") for name in MODULES}
        namespaces = [importlib.import_module("qsdlab"), *modules.values()]
        for layer, module in modules.items():
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrapper(fn, layer, name)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patched.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._patched):
            setattr(ns, attr, fn)
        self._patched.clear()

    def _wrapper(self, fn, layer: str, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(fn, layer, name, args, kwargs)
        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per bucket and per layer (``<layer>.self``), in seconds."""
    child_time = [0.0] * len(spans)  # span ids are positions in ``spans``
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out: dict[str, float] = {}
    for s, covered in zip(spans, child_time):
        own = (s.end - s.start) - covered
        out[s.bucket] = out.get(s.bucket, 0.0) + own
        key = f"{s.layer}.self"
        out[key] = out.get(key, 0.0) + own
    return out


def call_counts(spans: list[Span]) -> dict[str, int]:
    """Number of spans per ``layer.function``."""
    out: dict[str, int] = {}
    for s in spans:
        key = f"{s.layer}.{s.name}"
        out[key] = out.get(key, 0) + 1
    return out
