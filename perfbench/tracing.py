"""Benchmark-side span tracing around each layer's public entry points.

A :class:`Tracer` replaces a handful of public functions and methods of the
program with timing wrappers, for the life of one traced window in one
benchmark process, and puts every original back on :meth:`Tracer.uninstall`.
No file of the program changes.

Each call through a wrapper records a span ``[layer, start, end, parent,
extra]``.  Wrapped calls are synchronous and run on one thread, so spans
nest by call stack: ``parent`` is the index of the enclosing wrapped call,
or -1.  Client operations are asynchronous and are recorded by the
workload as root spans (:meth:`Tracer.root_span`) with their opid in
``extra``.  Spans stay in memory until :meth:`Tracer.dump`.

A layer's self time is the sum over its spans of duration minus the
durations of direct child spans.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path


def _frame_bytes(result, args) -> int:
    return len(result)


def _checkpoint_bytes(result, args) -> int:
    store, checkpoint = args[0], args[1]
    return store._path(checkpoint.server_id).stat().st_size


class Tracer:
    """Installs span-recording wrappers and turns spans into layer totals."""

    def __init__(self) -> None:
        #: ``[layer, start, end, parent, extra]`` per wrapped call
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # installation

    def _wrap(self, owner, attr: str, layer: str, measure=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [layer, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if measure is not None:
                span[4] = measure(result, args)
            return result

        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        self._undo.append((owner, attr, raw))

    def install(self) -> None:
        """Wrap every layer boundary that exists in this process.

        The model checker's module is wrapped only if the workload already
        imported it: importing it patches ``LinearCode.__deepcopy__``.
        """
        from repro.ec.code import LinearCode
        from repro.protocol.server_core import ServerCore
        from repro.runtime import asyncio_rt, wire
        from repro.sim.scheduler import Scheduler

        self._wrap(os, "fsync", "fsync")
        self._wrap(asyncio_rt.FileDurableStore, "persist", "persist",
                   _checkpoint_bytes)
        self._wrap(asyncio_rt, "capture_server_state", "capture")
        for name in ("encode_frame", "encode_frames"):
            self._wrap(wire, name, "wire.encode", _frame_bytes)
        self._wrap(wire, "encode", "wire.encode")
        for name in ("decode_body", "decode"):
            self._wrap(wire, name, "wire.decode")
        for name in ("handle_message", "handle_timer"):
            self._wrap(ServerCore, name, "server_core")
        for name in ("encode", "encode_all", "reencode", "reencode_many",
                     "decode", "decode_many"):
            self._wrap(LinearCode, name, "ec")
        self._wrap(Scheduler, "run", "sim")
        explore = sys.modules.get("repro.verification.explore")
        if explore is not None:
            self._wrap(explore.StateExplorer, "explore", "explore")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def root_span(self, layer: str, start: float, end: float, extra=None) -> None:
        """Record an asynchronous span (a client operation) as a root."""
        self.spans.append([layer, start, end, -1, extra])

    # ------------------------------------------------------------------
    # analysis

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: span count, self seconds, inclusive seconds, bytes.

        ``calls`` counts entries into the layer from outside it (a span
        whose parent belongs to another layer or is absent), so nested
        calls inside one layer count once.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "bytes": 0}
        )
        for i, (name, start, end, parent, extra) in enumerate(spans):
            agg = out[name]
            agg["self_s"] += end - start - child[i]
            if parent < 0 or spans[parent][0] != name:
                agg["calls"] += 1
                agg["incl_s"] += end - start
                if isinstance(extra, int):
                    agg["bytes"] += extra
        return dict(out)

    def dump(self, path: Path) -> None:
        """Write the spans out, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, default=str))
                fh.write("\n")
