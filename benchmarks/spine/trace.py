"""Span tracing from outside: wrap the layers' public entry points.

The benchmark attributes time to layers without touching ``src/``: under
``--trace`` every function in :data:`ENTRY_POINTS` is replaced, for the length
of one traced stage, by a wrapper that records a span (name, start, end,
parent, operation id) into a :class:`Recorder`.  A layer's *self time* is its
spans' durations minus the part their child spans cover, so self times
partition the traced time: they add up to the duration of the root spans.

Coroutine entry points (the WebSocket send/receive) are recorded one span per
*resumption*: the time a coroutine spends suspended at an ``await`` is waiting,
not work, and other tasks run meanwhile, so only the stretches between
suspension points are spans.

Wrappers are installed on the defining class or module *and* on every loaded
``repro`` module that imported the function by name, and removed afterwards;
:func:`installed_wrappers` lets the smoke test check that nothing is left.
"""

from __future__ import annotations

import asyncio
import importlib
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Iterator

__all__ = ["ENTRY_POINTS", "Recorder", "tracing", "installed_wrappers"]


# ----------------------------------------------------------------------
# Counter hooks: counts read at the same boundary as the span
# ----------------------------------------------------------------------
def _count_ws_frame_out(rec: "Recorder", args: tuple, result: Any) -> None:
    rec.counters["wire.frames"] += 1
    rec.counters["wire.bytes"] += len(result)


def _count_ws_text_in(rec: "Recorder", args: tuple, result: Any) -> None:
    if result is not None:
        rec.counters["wire.frames"] += 1
        rec.counters["wire.bytes"] += len(result)


def _note_frame_queued(rec: "Recorder", args: tuple, result: Any) -> None:
    rec.queued_at[id(args[0])].append(perf_counter_ns())


def _note_frames_drained(rec: "Recorder", args: tuple, result: Any) -> None:
    waiting = rec.queued_at.pop(id(args[0]), None)
    if waiting:
        now = perf_counter_ns()
        rec.counters["session.queue_wait_ns"] += sum(now - t for t in waiting)
        rec.counters["session.frames_drained"] += len(waiting)


def _count_walker_work(rec: "Recorder", args: tuple, result: Any) -> None:
    stats = result.stats
    counters = rec.counters
    counters["walker.retreats"] += stats.retreats
    counters["walker.advances"] += stats.advances
    if stats.peak_records > counters["walker.peak_records"]:
        counters["walker.peak_records"] = stats.peak_records


def _count_ingested(rec: "Recorder", args: tuple, result: Any) -> None:
    rec.counters["event_graph.events"] += len(result)


def _count_split(rec: "Recorder", args: tuple, result: Any) -> None:
    rec.counters["event_graph.splits"] += 1


#: ``(module, public attribute, layer, counter hook)``.  The span name is the
#: attribute path.  Calls the stages make themselves (``Document.from_bytes``,
#: ``decode_text`` ...) are listed too, so the glue between layers shows up as
#: their self time instead of as untraced time.
ENTRY_POINTS: list[tuple[str, str, str, Callable | None]] = [
    ("repro.server.wire", "WebSocketConnection.send_text", "wire", None),
    ("repro.server.wire", "WebSocketConnection.recv_text", "wire", _count_ws_text_in),
    ("repro.server.wire", "build_ws_frame", "wire", _count_ws_frame_out),
    ("repro.server.protocol", "decode_frame", "protocol", None),
    ("repro.server.protocol", "encode_frame", "protocol", None),
    ("repro.server.protocol", "delta_frame", "protocol", None),
    ("repro.network.causal_broadcast", "CausalBuffer.receive_batch", "causal_buffer", None),
    ("repro.server.session", "DocumentRoom.receive_delta", "session", None),
    ("repro.server.session", "Session.offer_events", "session", None),
    ("repro.server.session", "Session.queue_frame", "session", _note_frame_queued),
    ("repro.server.session", "Session.drain", "session", _note_frames_drained),
    ("repro.core.document", "Document.apply_remote_events", "document", None),
    ("repro.core.document", "Document.from_bytes", "document", None),
    ("repro.core.oplog", "OpLog.ingest_events", "event_graph", _count_ingested),
    ("repro.core.event_graph", "EventGraph.split_event", "event_graph", _count_split),
    ("repro.core.merge_engine", "MergeEngine.integrate", "merge_engine", None),
    ("repro.core.walker", "EgWalker.transform", "walker", _count_walker_work),
    ("repro.rope.rope", "Rope.insert", "rope", None),
    ("repro.rope.rope", "Rope.delete", "rope", None),
    ("repro.server.wal", "RoomStorage.append", "wal", None),
    ("repro.server.wal", "RoomStorage.sync", "wal", None),
    ("repro.server.wal", "recover_document", "wal", None),
    ("repro.storage.container", "encode_event_graph_v3", "storage", None),
    ("repro.storage.container", "decode_text", "storage", None),
    ("repro.storage.container", "parse_header", "storage", None),
    ("repro.storage.compression", "compress", "storage", None),
    ("repro.storage.compression", "decompress", "storage", None),
    ("repro.storage.container", "LazyDecodedFile.column_payload", "storage", None),
    ("repro.storage.container", "LazyDecodedFile.graph", "storage", None),
    ("repro.storage.container", "LazyDecodedFile.text", "storage", None),
    ("repro.history.history", "History.from_bytes", "history", None),
    ("repro.history.history", "History.text_at", "history", None),
]

#: Packages whose ``__init__`` (or app module) re-exports entry points by name.
_IMPORTERS = ("repro.server", "repro.server.app", "repro.storage", "repro.history")

LAYER_OF: dict[str, str] = {attr: layer for _, attr, layer, _ in ENTRY_POINTS}


class Recorder:
    """Spans of one traced stage, kept in memory as parallel arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        #: Set by the harness before each operation (edit or repetition).
        self.op_id = 0
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: Session id -> queue_frame timestamps not yet drained.
        self.queued_at: dict[int, list[int]] = defaultdict(list)

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def begin(self, name_id: int) -> int:
        index = len(self.start)
        stack = self.stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self.stack.pop()

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Per-span-name and per-layer totals.

        ``self_ms`` of a span is its duration minus its children's durations;
        ``root_ms`` (the root spans' durations) equals the sum of all self
        times, which is what coverage compares with the wall clock.
        ``child_overrun`` counts spans whose children claim more time than the
        span itself lasted — always 0 unless the recorder is broken.  Each span
        name also carries the median and 99th percentile of its durations.
        """
        count = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(count)]
        child = [0] * count
        for i in range(count):
            parent = self.parent[i]
            if parent >= 0:
                child[parent] += duration[i]
        spans: dict[str, dict[str, float]] = {}
        layers: dict[str, float] = defaultdict(float)
        root_ns = 0
        overrun = 0
        for i in range(count):
            name = self.names[self.name[i]]
            row = spans.setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            self_ns = duration[i] - child[i]
            if self_ns < 0:
                overrun += 1
            row["count"] += 1
            row["total_ms"] += duration[i] / 1e6
            row["self_ms"] += self_ns / 1e6
            layers[LAYER_OF[name]] += self_ns / 1e6
            if self.parent[i] < 0:
                root_ns += duration[i]
        by_name: dict[str, list[int]] = defaultdict(list)
        for i in range(count):
            by_name[self.names[self.name[i]]].append(duration[i])
        for name, durations in by_name.items():
            durations.sort()
            spans[name]["p50_ms"] = durations[len(durations) // 2] / 1e6
            spans[name]["p99_ms"] = durations[min(len(durations) - 1, len(durations) * 99 // 100)] / 1e6
        return {
            "spans": spans,
            "layers": dict(layers),
            "counters": dict(self.counters),
            "root_ms": root_ns / 1e6,
            "child_overrun": overrun,
        }

    def rows(self) -> Iterator[tuple[str, int, int, int, int]]:
        """Raw spans as ``(name, start_ns, end_ns, parent_index, op_id)``."""
        for i in range(len(self.start)):
            yield (
                self.names[self.name[i]],
                self.start[i],
                self.end[i],
                self.parent[i],
                self.op[i],
            )


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _wrap_function(rec: Recorder, fn: Callable, name_id: int, hook: Callable | None) -> Callable:
    begin, finish = rec.begin, rec.finish

    def traced(*args: Any, **kwargs: Any) -> Any:
        index = begin(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            finish(index)
        if hook is not None:
            hook(rec, args, result)
        return result

    traced.__wrapped__ = fn  # type: ignore[attr-defined]
    traced.__name__ = getattr(fn, "__name__", "traced")
    return traced


class _TracedSteps:
    """Drives a coroutine, recording one span per resumption."""

    def __init__(self, rec: Recorder, coro: Any, name_id: int) -> None:
        self._rec = rec
        self._coro = coro
        self._name_id = name_id

    def __await__(self) -> "_TracedSteps":
        return self

    def __iter__(self) -> "_TracedSteps":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        index = self._rec.begin(self._name_id)
        try:
            return self._coro.send(value)
        finally:
            self._rec.finish(index)

    def throw(self, *exc_info: Any) -> Any:
        index = self._rec.begin(self._name_id)
        try:
            return self._coro.throw(*exc_info)
        finally:
            self._rec.finish(index)

    def close(self) -> None:
        self._coro.close()


def _wrap_coroutine(rec: Recorder, fn: Callable, name_id: int, hook: Callable | None) -> Callable:
    async def traced(*args: Any, **kwargs: Any) -> Any:
        result = await _TracedSteps(rec, fn(*args, **kwargs), name_id)
        if hook is not None:
            hook(rec, args, result)
        return result

    traced.__wrapped__ = fn  # type: ignore[attr-defined]
    return traced


#: ``(owner, attribute, original)`` for every wrapper currently installed.
_installed: list[tuple[Any, str, Any]] = []


def installed_wrappers() -> int:
    """How many wrappers are installed right now (0 outside a traced stage)."""
    return len(_installed)


def _install(rec: Recorder) -> None:
    if _installed:
        raise RuntimeError("tracing is already installed")
    # Import every module that may hold a by-name reference first: one
    # imported after its target was wrapped would keep the wrapper forever.
    for module_name in _IMPORTERS + tuple(entry[0] for entry in ENTRY_POINTS):
        importlib.import_module(module_name)
    for module_name, attr_path, _layer, hook in ENTRY_POINTS:
        module = sys.modules[module_name]
        owner: Any = module
        *path, attr = attr_path.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        name_id = rec.name_id(attr_path)
        if isinstance(original, property):
            wrapped: Any = property(
                _wrap_function(rec, original.fget, name_id, hook), original.fset, original.fdel
            )
        elif isinstance(original, classmethod):
            wrapped = classmethod(_wrap_function(rec, original.__func__, name_id, hook))
        elif asyncio.iscoroutinefunction(original):
            wrapped = _wrap_coroutine(rec, original, name_id, hook)
        else:
            wrapped = _wrap_function(rec, original, name_id, hook)
        targets = [(owner, attr)]
        if owner is module:
            # ``from .protocol import delta_frame`` bound the function in the
            # importer's namespace: rebind it there as well.
            for other_name, other in list(sys.modules.items()):
                if other is module or other is None or not other_name.startswith("repro"):
                    continue
                for global_name, value in list(vars(other).items()):
                    if value is original:
                        targets.append((other, global_name))
        for target, name in targets:
            _installed.append((target, name, original))
            setattr(target, name, wrapped)


def _uninstall() -> None:
    while _installed:
        target, name, original = _installed.pop()
        setattr(target, name, original)


@contextmanager
def tracing() -> Iterator[Recorder]:
    """Install the wrappers around a block; the recorder outlives it."""
    rec = Recorder()
    _install(rec)
    try:
        yield rec
    finally:
        _uninstall()
