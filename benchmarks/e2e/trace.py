"""Span recorder for the traced benchmark run, installed from outside ``src/``.

``installed(tracer)`` wraps the public callables at the layer boundaries of
the simulated backend for the duration of a ``with`` block and restores them
afterwards.  Nothing under ``src/`` is edited: a later issue may move spans
into the program, and the span names below are the contract it must keep.

A span is ``[name, start, end, parent]`` (``parent`` is an index into the
span list, ``-1`` for none).  Spans stay in memory until :meth:`Tracer.dump`.
A layer's *self time* is its spans' duration minus the part covered by their
child spans; shares are taken of the root span (``Simulator.run_until``).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from statistics import median

ROOT = "sim.event_loop"

#: Spans reported as ``trace.<span>.self_share`` / ``trace.<span>.calls``.
SPANS = (
    "sim.event_loop",
    "sim.network",
    "sim.sources",
    "core.node",
    "spe.engine",
    "core.data_path",
    "statexfer",
    "sim.client",
)

#: Module that defines a scheduled callback or endpoint handler -> its span.
#: Callbacks of any other module (failure injection, the periodic-timer
#: trampoline of the event loop itself) open no span, so their time stays in
#: the parent's self time.
_MODULE_SPAN = {
    "repro.sim.network": "sim.network",
    "repro.sim.sources": "sim.sources",
    "repro.sim.client": "sim.client",
    "repro.core.node": "core.node",
}

#: At most this many spans are written to the trace file (all are aggregated).
_MAX_WRITTEN = 100_000


class Tracer:
    """In-memory span list plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, func, name: str):
        """``func`` with a span named ``name`` around every call."""
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(record)
            try:
                return func(*args, **kwargs)
            finally:
                open_.pop()
                record[2] = clock()

        return traced

    def wrap_callback(self, callback):
        """Wrap a scheduled callback / endpoint handler by its owner's layer."""
        # A ConsistencyManager timer belongs to the node or client that owns it.
        owner = getattr(getattr(callback, "__self__", None), "owner", None)
        module = type(owner).__module__ if owner is not None else callback.__module__
        name = _MODULE_SPAN.get(module)
        return self.wrap(callback, name) if name else callback

    # ------------------------------------------------------------------ results
    def median_ms(self, name: str) -> float:
        return median((end - start) * 1e3 for n, start, end, _ in self.spans if n == name)

    def summary(self) -> dict:
        """Per-span self seconds and calls inside the root span(s)."""
        spans = self.spans
        inside = [False] * len(spans)
        self_s = dict.fromkeys(SPANS, 0.0)
        calls = dict.fromkeys(SPANS, 0)
        root_s = 0.0
        for index, (name, start, end, parent) in enumerate(spans):
            if parent < 0:
                inside[index] = name == ROOT
                if inside[index]:
                    root_s += end - start
            else:
                inside[index] = inside[parent]
            if not inside[index]:
                continue
            self_s[name] += end - start
            calls[name] += 1
            if parent >= 0:
                self_s[spans[parent][0]] -= end - start
        return {"root_s": root_s, "self_s": self_s, "calls": calls}

    def dump(self, path: str) -> None:
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w") as out:
            json.dump(
                {
                    "names": names,
                    "columns": ["name", "start_s", "end_s", "parent"],
                    "spans_total": len(self.spans),
                    "spans": [
                        [index[n], start, end, parent]
                        for n, start, end, parent in self.spans[:_MAX_WRITTEN]
                    ],
                    "summary": self.summary(),
                },
                out,
            )


@contextmanager
def installed(tracer: Tracer):
    """Wrap the layer-boundary callables of the simulated backend."""
    import repro.core.node as node_module
    import repro.deploy.placement as placement_module
    import repro.runtime.runtime as runtime_module
    import repro.statexfer as statexfer
    from repro.core.data_path import OutputStreamManager
    from repro.sim.event_loop import Simulator
    from repro.sim.network import Network
    from repro.spe.engine import LocalEngine

    undo: list[tuple] = []

    def patch(owner, attribute: str, make) -> None:
        original = getattr(owner, attribute)
        undo.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def span(name: str):
        return lambda original: tracer.wrap(original, name)

    def schedule_at(original):
        def traced(self, time, callback, *args, **kwargs):
            return original(self, time, tracer.wrap_callback(callback), *args, **kwargs)

        return traced

    def register(original):
        def traced(self, name, handler):
            return original(self, name, tracer.wrap_callback(handler))

        return traced

    patch(Simulator, "run_until", span(ROOT))
    patch(Simulator, "schedule_at", schedule_at)
    patch(Simulator, "schedule_periodic", schedule_at)  # same (self, x, callback) shape
    patch(Network, "register", register)
    for method in ("send", "send_many"):
        patch(Network, method, span("sim.network"))
    for method in ("push", "push_operator", "push_operator_outputs"):
        patch(LocalEngine, method, span("spe.engine"))
    for method in ("append_all", "pending_batches", "truncate_delivered"):
        patch(OutputStreamManager, method, span("core.data_path"))
    for function in ("capture_checkpoint", "adopt_checkpoint"):
        # The node module binds the functions by name, so both are patched.
        patch(statexfer, function, span("statexfer"))
        patch(node_module, function, lambda _, f=function: getattr(statexfer, f))
    # ``compile`` is bound by name in the runtime module and called through
    # the placement module by the benchmark's own builds.
    patch(runtime_module, "compile_topology", span("deploy.compile"))
    patch(placement_module, "compile", span("deploy.compile"))
    patch(placement_module.Placement, "deploy", span("deploy.deploy"))
    try:
        yield tracer
    finally:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)
