"""The two workloads: seeded inputs, their oracle texts and their identity.

A workload is a pair of editing histories and the room the first one happens
in: the **live** history is what the two server stages replay, one run event
per ``delta`` frame; the **stored** history is what the merge stage merges in
one call and the open stage saves and opens.  Both workloads go through the
same four stages (see ``stages.py``); which layer dominates which stage depends
on the workload, which is the point — each mechanism has a workload that
exercises it and one that bypasses it.

Inputs come from ``repro.traces.generator`` with seeds derived from ``--seed``
(never ``get_trace``'s fixed seeds, never ``REPRO_TRACE_SCALE``).  The system
under test only ever sees the generated events.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.document import Document
from repro.core.event_graph import EventGraph, expand_to_chars
from repro.core.oplog import RemoteEvent
from repro.core.walker import EgWalker
from repro.history import Version
from repro.server.protocol import delta_frame, encode_frame
from repro.server.wal import graph_to_remote_events
from repro.traces.generator import (
    TypingModel,
    generate_async,
    generate_concurrent,
    generate_sequential,
)
from repro.traces.trace import Trace

__all__ = ["WORKLOADS", "LIVE_RATE", "Shape", "Workload", "Inputs", "build_inputs"]

#: Open-loop send rate of the live stage (edits per second).
LIVE_RATE = 100.0


@dataclass(frozen=True, slots=True)
class Shape:
    """A family of traces: a generator, its options and how much to keep."""

    #: One of ``repro.traces.generator``'s ``generate_*`` functions.
    generator: Callable[..., Trace]
    #: Per size: ``(run events kept, per-character events asked of the
    #: generator)``.  The generator is sized in characters and its run count
    #: varies by several percent from seed to seed, so it is asked for a little
    #: more than needed and the trace is cut to a fixed number of run events.
    size: dict[str, tuple[int, int]]
    #: Extra keyword arguments of the generator.
    options: tuple[tuple[str, Any], ...] = ()
    #: Full size only: ``(characters inserted or deleted, length of the final
    #: text)`` of a typical trace.  Cut to the same number of run events, two
    #: seeds still differ by 4-7 % in how long the document ends up — and file
    #: size, open and save times follow — so a stored history is drawn
    #: ``draws`` times from the seed and the draw closest to both is kept:
    #: every seed then gives the same amount of work, differently arranged.
    typical: tuple[int, int] | None = None
    draws: int = 1


@dataclass(frozen=True, slots=True)
class Workload:
    name: str
    why: str
    #: What the live and room stages replay.  At ``LIVE_RATE`` the full size
    #: (600 run events) keeps the live stage sending for 6 seconds.
    live: Shape
    #: What the merge stage merges and the open stage saves and opens.
    stored: Shape
    #: Sessions in the room stage's ``DocumentRoom`` (the uploader included).
    sessions: int


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="concurrent",
        why="two authors typing at once (C2 shape), then six long-lived branches merged in one call "
        "(A2 shape): merge_engine+walker carry every stage; fan-out is 1",
        live=Shape(
            generate_concurrent,
            size={"full": (600, 8500), "tiny": (20, 400)},
            options=(("events_per_exchange", 80),),
        ),
        stored=Shape(
            generate_async,
            size={"full": (900, 18000), "tiny": (60, 1200)},
            options=(("concurrent_branches", 6), ("authors", 48)),
            typical=(15270, 9650),
            draws=4,
        ),
        sessions=2,
    ),
    Workload(
        name="sequential",
        why="authors taking turns in a 16-session room (S3 shape), then one author's long, heavily "
        "rewritten document: no walker, so per-receiver protocol/session work and storage dominate",
        live=Shape(
            generate_sequential,
            size={"full": (600, 12000), "tiny": (20, 500)},
            options=(("authors", 2),),
        ),
        stored=Shape(
            generate_sequential,
            size={"full": (2800, 43000), "tiny": (80, 1500)},
            options=(("authors", 1), ("model", TypingModel(delete_probability=0.35))),
            typical=(37740, 13260),
            draws=4,
        ),
        sessions=16,
    ),
)


@dataclass(slots=True)
class Inputs:
    """Everything one workload's stages need, built by :func:`build_inputs`."""

    workload: Workload
    #: The live history, and one pre-encoded ``delta`` frame per event of it.
    live_events: list[RemoteEvent]
    frames: list[str]
    live_oracle_text: str
    #: The stored history and a replica holding it: what ``save`` serialises.
    events: list[RemoteEvent]
    source: Document
    oracle_text: str
    #: The version after the first half of the stored history — the history
    #: stage's time-travel target — and the text the oracle gives for it.
    middle_version: Version
    middle_oracle_text: str
    sha256: str

    def sizes(self) -> dict[str, int]:
        return {
            "live_events": len(self.live_events),
            "live_chars": sum(e.op.length for e in self.live_events),
            "stored_events": len(self.events),
            "stored_chars": sum(e.op.length for e in self.events),
            "text_chars": len(self.oracle_text),
            "sessions": self.workload.sessions,
        }


def _derive_seed(seed: int, name: str, draw: int) -> int:
    return random.Random(f"spine:{seed}:{name}:{draw}").getrandbits(31)


def _draw(shape: Shape, size: str, seed: int) -> list[RemoteEvent]:
    """One trace, cut to the shape's number of run events (a prefix of a
    causally ordered list is causally closed, so it is a history of its own)."""
    keep, target = shape.size[size]
    options = dict(shape.options)
    events: list[RemoteEvent] = []
    while len(events) < keep:
        if shape.generator is generate_async:
            # Branch length follows the trace size (as the A2 trace's does).
            options["events_per_branch"] = max(60, target // 16)
        graph = shape.generator("spine", target_events=target, seed=seed, **options).graph
        events = graph_to_remote_events(graph)[:keep]
        # The targets leave a margin; a seed that still comes up short asks
        # the generator for more (same seed, so still the same inputs).
        target += target // 4
    return events


def _replica(events: list[RemoteEvent]) -> Document:
    document = Document("spine-source")
    document.apply_remote_events(events)
    return document


def _size_matched(shape: Shape, size: str, seed: int, name: str) -> tuple[list[RemoteEvent], Document]:
    """The draw whose size is closest to typical, with the replica that holds
    it.  Only the full size is matched (and only a shape that says what is
    typical); always ``draws`` draws, so that set-up takes the same time for
    every seed."""
    best: tuple[float, list[RemoteEvent], Document] | None = None
    for draw in range(shape.draws if size == "full" else 1):
        events = _draw(shape, size, _derive_seed(seed, name, draw))
        source = _replica(events)
        off = 0.0
        if shape.typical is not None:
            sizes = (sum(e.op.length for e in events), len(source.text))
            off = max(abs(got / usual - 1.0) for got, usual in zip(sizes, shape.typical))
        if best is None or off < best[0]:
            best = (off, events, source)
    assert best is not None
    return best[1], best[2]


def oracle_text(graph: EventGraph) -> str:
    """The per-character oracle: expand every run and replay char by char."""
    return EgWalker(expand_to_chars(graph)).replay_text()


def _sha256(*streams: list[RemoteEvent]) -> str:
    digest = hashlib.sha256()
    for events in streams:
        for event in events:
            op = event.op
            payload = op.content if op.is_insert else str(op.length)
            digest.update(
                f"{event.id.agent}\x1f{event.id.seq}\x1f"
                f"{','.join(f'{p.agent}:{p.seq}' for p in event.parents)}\x1f"
                f"{int(op.kind)}\x1f{op.pos}\x1f{payload}\x1e".encode("utf-8")
            )
        digest.update(b"\x1d")
    return digest.hexdigest()


def build_inputs(workload: Workload, size: str, seed: int) -> Inputs:
    """One complete set-up: generate both histories, cut them to size, compute
    the oracle texts, pre-encode the frames and build the replica that ``save``
    serialises."""
    live_events, live = _size_matched(workload.live, size, seed, f"{workload.name}:live")
    events, source = _size_matched(workload.stored, size, seed, f"{workload.name}:stored")
    middle = _replica(events[: len(events) // 2])
    return Inputs(
        workload=workload,
        live_events=live_events,
        frames=[encode_frame(delta_frame([event])) for event in live_events],
        live_oracle_text=oracle_text(live.oplog.graph),
        events=events,
        source=source,
        oracle_text=oracle_text(source.oplog.graph),
        middle_version=middle.version(),
        middle_oracle_text=oracle_text(middle.oplog.graph),
        sha256=_sha256(live_events, events),
    )
