"""The four stages every workload is taken through.

* ``live``  — sockets, **open loop**: a durable server (``fsync=group``) in its
  own subprocess; one writer connection sends the workload's live history, one
  run event per ``delta`` frame, at a fixed 100 edits/s, each edit timed from when
  it was *due*; one thin reader connection only timestamps arrivals and decodes
  and merges them after the clock has stopped.  Ends with ``SIGKILL`` and
  ``recover_document`` from the data directory.
* ``room``  — in-process, **closed loop**: the same frames through
  ``decode_frame → DocumentRoom.receive_delta → per-session drain() +
  encode_frame`` with the workload's number of sessions and no WAL.
* ``merge`` — in-process, closed loop: a fresh ``Document`` receives the whole
  stored history in one ``apply_remote_events`` call.
* ``open``  — in-process, closed loop: the stored history is saved as a v3
  container with a snapshot column and opened three ways, reads beside the
  write.

Each closed loop is an *operation* (one recovery, one room pass, one merge,
one save-and-open cycle) that :func:`run_rounds` takes in turn, round after
round, each for a short time slice — so every timing's
samples are spread over the whole run and a slow phase of the machine touches
a part of each instead of all of one.  Every text a stage produces is compared
with the per-character oracle computed in set-up.

A stage given a :class:`~trace.Recorder` is running with the wrappers
installed; it only tells the recorder which operation the next spans belong to.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.core.document import Document
from repro.history import History
from repro.server import protocol, wal
from repro.server.protocol import hello_frame, presence_frame
from repro.server.session import DocumentRoom
from repro.server.wire import connect_websocket
from repro.storage import container
from repro.storage.container import ContainerOptions, LazyDecodedFile

from .trace import Recorder
from .workloads import LIVE_RATE, Inputs

__all__ = [
    "StageResult",
    "Operation",
    "Stage",
    "run_rounds",
    "live_stage",
    "room_stage",
    "merge_stage",
    "open_stage",
]

#: An edit delivered later than this after it was due counts as failed.
LATE_EDIT_S = 1.0
#: How long one operation runs before the next one takes its turn.
SLICE_S = 0.4
#: Every operation gets at least this many turns, whatever the time budget.
MIN_ROUNDS = 3
#: The sender stops sleeping and starts yielding this long before an edit is due.
SPIN_S = 0.002
ROOM_NAME = "spine"
_HERE = os.path.dirname(os.path.abspath(__file__))
_CHECKOUT = os.path.abspath(os.path.join(_HERE, os.pardir, os.pardir))
#: Scratch space for the server's data directories, inside the checkout.
SCRATCH_ROOT = os.path.join(_CHECKOUT, ".spine_scratch")


@dataclass(slots=True)
class StageResult:
    """Raw samples of one stage: lists of per-repetition (or per-edit) values
    keyed by metric, exact values, and the operations attempted and failed."""

    samples: dict[str, list[float]] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Wall-clock seconds spent inside the timed repetitions.
    wall_s: float = 0.0
    #: Public counters read at the stage boundary (traced runs use them).
    stats: dict[str, Any] = field(default_factory=dict)

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)


@dataclass(slots=True)
class Operation:
    """One repeatable, timed step of a closed loop; ``run`` is given the
    number of repetitions made so far."""

    run: Callable[[int], None]
    repetitions: int = 0


@dataclass(slots=True)
class Stage:
    result: StageResult
    operation: Operation
    #: Untimed passes made once after the rounds (memory, read accounting).
    finish: Callable[[], None] = lambda: None


def run_rounds(operations: list[Operation], budget_s: float) -> None:
    """The closed loops, interleaved: every operation in turn repeats for one
    time slice (at least once), round after round until the budget is used up.
    Each timing's samples are thereby spread over the whole budget."""
    slice_s = min(SLICE_S, budget_s / (MIN_ROUNDS * len(operations)))
    deadline = time.perf_counter() + budget_s
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for operation in operations:
            slice_end = time.perf_counter() + slice_s
            while True:
                operation.run(operation.repetitions)
                operation.repetitions += 1
                if time.perf_counter() >= slice_end:
                    break
        rounds += 1


def _measure_memory(build: Callable[[], Any]) -> tuple[int, int]:
    """Peak and steady-state bytes allocated by ``build()`` (untimed pass).

    Steady state is what is still allocated, after a collection, while the
    built object is alive — what must stay resident to keep editing.
    """
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        built = build()
        peak = tracemalloc.get_traced_memory()[1] - base
        gc.collect()
        steady = tracemalloc.get_traced_memory()[0] - base
        del built
    finally:
        tracemalloc.stop()
    return peak, steady


# ----------------------------------------------------------------------
# room: in-process fan-out, closed loop
# ----------------------------------------------------------------------
def room_stage(inputs: Inputs, rec: Recorder | None = None) -> Stage:
    result = StageResult()
    frames = inputs.frames
    session_count = inputs.workload.sessions
    edits = len(frames)

    def one_pass(repetition: int) -> None:
        room = DocumentRoom(ROOM_NAME)
        sessions = [room.connect(f"member{i}", "ws", ()) for i in range(session_count)]
        for session in sessions:
            session.drain()  # the welcome frame is not an edit
        uploader = sessions[0]
        wire_bytes = 0
        delta_frames = 0
        started = time.perf_counter()
        for index, text in enumerate(frames):
            if rec is not None:
                rec.op_id = repetition * edits + index
            frame = protocol.decode_frame(text)
            room.receive_delta(uploader, frame["events"])
            for session in sessions:
                for queued in session.drain():
                    wire_bytes += len(protocol.encode_frame(queued).encode("utf-8"))
                    delta_frames += 1
        elapsed = time.perf_counter() - started
        result.wall_s += elapsed
        result.add("room_pass_s", elapsed)
        result.values["wire_bytes_per_edit"] = wire_bytes / edits
        result.attempted += edits
        delivered_everywhere = delta_frames == edits * (session_count - 1)
        if room.text != inputs.live_oracle_text or not delivered_everywhere:
            result.failed += edits
        result.stats = {
            "room": room.stats,
            "merge": room.document.merge_stats,
            "buffers": [room.inbound.stats] + [s.outbound.stats for s in sessions],
            "deltas": edits,
        }

    return Stage(result, Operation(one_pass))


# ----------------------------------------------------------------------
# merge: one bulk merge, closed loop
# ----------------------------------------------------------------------
def merge_stage(inputs: Inputs, rec: Recorder | None = None) -> Stage:
    result = StageResult()
    events = inputs.events

    def merge() -> Document:
        document = Document("spine-merge")
        document.apply_remote_events(events)
        return document

    def one_merge(repetition: int) -> None:
        if rec is not None:
            rec.op_id = repetition
        started = time.perf_counter()
        document = merge()
        elapsed = time.perf_counter() - started
        result.wall_s += elapsed
        result.add("merge_s", elapsed)
        result.attempted += 1
        if document.text != inputs.oracle_text:
            result.failed += 1
        result.stats = {"merge": document.merge_stats, "events": len(events)}

    def memory_pass() -> None:
        peak, steady = _measure_memory(merge)
        result.values["merge_mem_peak_bytes"] = peak
        result.values["merge_mem_steady_bytes"] = steady

    return Stage(result, Operation(one_merge), memory_pass)


# ----------------------------------------------------------------------
# open: save once per repetition, open three ways
# ----------------------------------------------------------------------
def open_stage(inputs: Inputs, rec: Recorder | None = None) -> Stage:
    result = StageResult()
    graph = inputs.source.oplog.graph
    text = inputs.oracle_text

    def save() -> bytes:
        return container.encode_event_graph_v3(
            graph, ContainerOptions(include_snapshot=True, final_text=text)
        )

    def open_editable(data: bytes) -> Document:
        document = Document.from_bytes(data, "spine-opener")
        seq = document.oplog.graph.next_seq_for("spine-opener")
        document.insert(0, "x")
        if len(document.oplog.export_since_seq("spine-opener", seq)) != 1:
            raise AssertionError("the first local edit exported no event")
        return document

    def timed(metric: str, call: Callable[[], Any]) -> Any:
        started = time.perf_counter()
        value = call()
        elapsed = time.perf_counter() - started
        result.wall_s += elapsed
        result.add(metric, elapsed * 1e3)
        return value

    def one_cycle(repetition: int) -> None:
        if rec is not None:
            rec.op_id = repetition
        data = timed("save_ms", save)
        opened_text = timed("open_text_ms", lambda: container.decode_text(data))
        document = timed("open_edit_ms", lambda: open_editable(data))
        past_text = timed(
            "open_history_ms",
            lambda: History.from_bytes(data).text_at(inputs.middle_version),
        )
        result.values["file_bytes_per_text_byte"] = len(data) / len(text.encode("utf-8"))
        # Four operations: the save is as good as the text read back from it.
        result.attempted += 4
        result.failed += (
            2 * (opened_text != text)
            + (document.text != "x" + text)
            + (past_text != inputs.middle_oracle_text)
        )

    def untimed_passes() -> None:
        # Memory of the editable open, and what a text-only and a full open
        # read (``ReadStats``, ``MergeEngineStats``).
        data = save()
        peak, _ = _measure_memory(lambda: open_editable(data))
        result.values["open_mem_peak_bytes"] = peak
        lazy = LazyDecodedFile(data)
        lazy.selective_text()
        text_only_bytes = lazy.stats.bytes_read
        lazy.graph
        history = History.from_bytes(data)
        history.text_at(inputs.middle_version)
        result.stats = {
            "file_bytes": len(data),
            "text_only_bytes": text_only_bytes,
            "events_materialised": lazy.stats.events_materialised,
            "history_window_events": history.engine.stats.history_window_events,
        }

    return Stage(result, Operation(one_cycle), untimed_passes)


# ----------------------------------------------------------------------
# live: sockets, open loop, crash and recovery
# ----------------------------------------------------------------------
@dataclass(slots=True)
class _LiveRun:
    due: list[float] = field(default_factory=list)
    send_lag: list[float] = field(default_factory=list)
    arrivals: list[tuple[float, str]] = field(default_factory=list)


async def _hello(port: int, agent: str) -> Any:
    ws = await connect_websocket("127.0.0.1", port, "/v1/ws")
    await ws.send_text(protocol.encode_frame(hello_frame(ROOM_NAME, agent)))
    welcome = await ws.recv_text()
    if welcome is None or protocol.decode_frame(welcome)["type"] != "welcome":
        raise ConnectionError(f"server refused {agent}: {welcome!r}")
    return ws


async def _drive(port: int, frames: list[str]) -> _LiveRun:
    """The load generator: one task sends on schedule, one only timestamps."""
    run = _LiveRun()
    writer = await _hello(port, "spine-writer")
    reader = await _hello(port, "spine-reader")
    sentinel = protocol.encode_frame(presence_frame("spine-writer", ()))

    async def read_until_sentinel() -> None:
        while True:
            text = await reader.recv_text()
            now = time.perf_counter()
            if text is None:
                return
            if text.startswith('{"type":"presence"'):
                # Queued behind every delta of the writer, so all have arrived.
                return
            run.arrivals.append((now, text))

    reading = asyncio.create_task(read_until_sentinel())
    try:
        first_due = time.perf_counter() + 0.05
        for index, frame in enumerate(frames):
            due = first_due + index / LIVE_RATE
            # Sleep most of the gap, then yield in a tight loop: a timer
            # wake-up alone lands up to a few milliseconds late.
            delay = due - time.perf_counter() - SPIN_S
            if delay > 0:
                await asyncio.sleep(delay)
            while time.perf_counter() < due:
                await asyncio.sleep(0)
            run.due.append(due)
            run.send_lag.append(time.perf_counter() - due)
            await writer.send_text(frame)
        await writer.send_text(sentinel)
        await asyncio.wait_for(reading, timeout=LATE_EDIT_S + 5.0)
    except asyncio.TimeoutError:
        pass  # undelivered edits are counted below
    finally:
        reading.cancel()
        await asyncio.gather(reading, return_exceptions=True)
        await writer.close()
        await reader.close()
    return run


def _start_server(data_dir: str, trace_out: str | None) -> tuple[subprocess.Popen, int]:
    command = [sys.executable, os.path.join(_HERE, "run.py"), "serve", "--data-dir", data_dir]
    if trace_out is not None:
        command += ["--trace-out", trace_out]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=_CHECKOUT)
    assert process.stdout is not None
    line = process.stdout.readline()
    if not line.strip().isdigit():
        process.kill()
        process.wait()
        raise RuntimeError(f"server launcher did not report a port: {line!r}")
    return process, int(line)


def _score_deliveries(result: StageResult, run: _LiveRun, inputs: Inputs) -> None:
    """The clock has stopped: decode and merge what the reader received, and
    turn arrival times into per-edit latencies (or failures)."""
    arrived_at: dict[Any, float] = {}
    replica = Document("spine-reader")
    for at, text in run.arrivals:
        frame = protocol.decode_frame(text)
        if frame["type"] == "delta":
            for event in frame["events"]:
                arrived_at.setdefault(event.id, at)
            replica.apply_remote_events(frame["events"])
    result.attempted += len(inputs.frames)
    for index, event in enumerate(inputs.live_events):
        at = arrived_at.get(event.id)
        if index >= len(run.due) or at is None or at - run.due[index] > LATE_EDIT_S:
            result.failed += 1
        else:
            result.add("edit_latency_ms", (at - run.due[index]) * 1e3)
    result.attempted += 1
    if replica.text != inputs.live_oracle_text:
        result.failed += 1
    result.samples["loadgen_lag_ms"] = [lag * 1e3 for lag in run.send_lag]


@contextmanager
def live_stage(inputs: Inputs, traced: bool = False) -> Iterator[Stage]:
    """One live run, then the crash.  Yields the stage with the run scored
    and, as its operation, one ``recover_document`` of what the killed server
    left behind (recovery only reads, so it is a closed loop of its own);
    the data directory is removed on the way out.

    With ``traced`` the launcher installs the wrappers in the server process
    and, on ``SIGTERM``, dumps its span table before it kills itself; an
    untraced server is killed from here."""
    result = StageResult()
    os.makedirs(SCRATCH_ROOT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="live-", dir=SCRATCH_ROOT)
    trace_out = os.path.join(scratch, "server-trace.json") if traced else None
    data_dir = os.path.join(scratch, "data")
    process, port = _start_server(data_dir, trace_out)
    try:
        # A collection in this process would make the generator send late
        # (tens of milliseconds over a heap this size) and charge the delay
        # to the server; the generator itself allocates next to nothing.
        gc.disable()
        try:
            started = time.perf_counter()
            run = asyncio.run(_drive(port, inputs.frames))
            result.wall_s = time.perf_counter() - started
        finally:
            gc.enable()
        process.send_signal(signal.SIGTERM if traced else signal.SIGKILL)
        process.wait(timeout=30)

        _score_deliveries(result, run, inputs)
        if trace_out is not None:
            with open(trace_out, encoding="utf-8") as handle:
                result.stats["server"] = json.load(handle)

        directory = wal.room_directory(data_dir, ROOM_NAME)

        def recover(repetition: int) -> None:
            started = time.perf_counter()
            document, info = wal.recover_document(directory, f"server::{ROOM_NAME}")
            result.add("recover_ms", (time.perf_counter() - started) * 1e3)
            result.attempted += 1
            if document.text != inputs.live_oracle_text:
                result.failed += 1
            result.stats["recovery"] = info

        yield Stage(result, Operation(recover))
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        if process.stdout is not None:
            process.stdout.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH_ROOT)
        except OSError:
            pass  # another run is using it
