"""Server-side state: documents as rooms, connections as sessions.

A :class:`DocumentRoom` is the server's :class:`~repro.network.replica.Replica`:
one live :class:`~repro.core.document.Document` behind an **inbound**
:class:`~repro.network.causal_broadcast.CausalBuffer`.  Every delta a client
uploads goes through the buffer, which re-orders out-of-causal-order arrivals,
drops duplicates (reconnect replays, however they are re-carved) and hands the
document one causally ordered batch per upload — the same amortisation the
network simulator's relay hub enjoys.

That batch order is the room's one causal order (paper §2.1), and every
session shares it: :meth:`DocumentRoom.deliver` fans each batch out to every
connection as it stands.  No session parks or re-orders — a parent of a
fanned-out event is in the client's ``hello`` version, in the catch-up queued
at connect, in an earlier batch or among the client's own uploads — and each
drops, per event, the spans its own client uploaded (:class:`UploadFilter`),
framing the rest as one ``delta`` on its queue.  The queue is
transport-agnostic: the WebSocket handler pumps it over the socket, the
long-poll handler drains it per poll.

Presence (cursors as id-frontier positions) rides the same queues but is only
delivered to WebSocket sessions: the long-polling fallback skips cursor
traffic, exactly like sysreptor's production fallback.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable

from ..core.document import Document
from ..core.ids import EventId
from ..core.oplog import RemoteEvent
from ..core.range_map import SpanSet
from ..faults import InjectedCrash
from ..history import Version
from ..network.causal_broadcast import DeliveryStats
from ..network.replica import Replica
from .protocol import bye_frame, delta_frame, presence_frame, welcome_frame
from .wal import RoomStorage

__all__ = ["Session", "DocumentRoom", "RoomStats", "UploadFilter"]

#: Idle seconds after which a long-poll session is reaped (a vanished poll
#: client never says ``bye``; WebSocket sessions die with their socket).
POLL_SESSION_TIMEOUT = 60.0

_session_counter = itertools.count(1)


@dataclass(slots=True)
class RoomStats:
    """Counters for one room (exposed via the ``/v1/stats`` endpoint)."""

    events_ingested: int = 0
    chars_ingested: int = 0
    deltas_received: int = 0
    duplicates_dropped: int = 0
    frames_queued: int = 0
    presence_updates: int = 0
    sessions_opened: int = 0
    sessions_closed: int = 0
    #: Frames still queued when a disconnecting socket's final flush gave up
    #: (slow socket); the client recovers them by reconnect + replay.
    frames_abandoned: int = 0
    #: Sessions dropped by backpressure shedding (queue over the cap).
    sessions_shed: int = 0
    #: Frames discarded when those sessions were shed.
    frames_shed: int = 0
    #: Idle long-poll sessions reclaimed by the periodic reaper.
    sessions_reaped: int = 0


class UploadFilter:
    """The id spans one client uploaded, which fan-out must not echo back.
    Its ``stats`` count as a causal buffer's do; it never parks an event."""

    def __init__(self) -> None:
        self._uploaded: dict[str, SpanSet] = {}
        self.stats = DeliveryStats()

    def mark_uploaded(self, events: Iterable[RemoteEvent]) -> None:
        for event in events:
            agent, seq = event.id
            self._uploaded.setdefault(agent, SpanSet()).add(seq, event.op.length)

    def fresh(self, events: list[RemoteEvent]) -> list[RemoteEvent]:
        """The events of one room batch that the client did not upload."""
        stats = self.stats
        stats.received += len(events)
        uploaded = self._uploaded
        if uploaded:  # a client that uploaded nothing (a reader) gets all
            fresh = [
                e
                for e in events
                if (spans := uploaded.get(e.id.agent)) is None
                or not spans.covers(e.id.seq, e.op.length)
            ]
            stats.duplicates += len(events) - len(fresh)
        else:
            fresh = events
        if fresh:
            stats.delivered += len(fresh)
            stats.batches += 1
        return fresh


class Session:
    """One client connection (WebSocket or long-polling) to one room.

    Args:
        room: the owning :class:`DocumentRoom`.
        agent: the client's replica name (as announced in ``hello``).
        transport: ``"ws"`` or ``"poll"``; poll sessions are excluded from
            presence traffic.
        max_queued_frames: backpressure cap — when the queue outgrows it the
            session is **shed** (queue dropped, one resumable ``bye`` queued,
            session closed) instead of growing without bound behind a slow
            consumer.  0 disables shedding.
    """

    def __init__(
        self,
        room: "DocumentRoom",
        agent: str,
        transport: str,
        *,
        max_queued_frames: int = 0,
    ) -> None:
        self.id = f"s{next(_session_counter)}"
        self.room = room
        self.agent = agent
        self.transport = transport
        self.max_queued_frames = max_queued_frames
        self.closed = False
        #: True once backpressure shed this session (it got a resumable bye).
        self.shed = False
        self.last_seen = time.monotonic()
        #: Frames waiting for this client, in delivery order.
        self._queue: list[dict[str, Any]] = []
        self._wakeup = asyncio.Event()
        #: Drops this client's own uploads from the room's batches.
        self.outbound = UploadFilter()

    # ------------------------------------------------------------------
    @property
    def wants_presence(self) -> bool:
        return self.transport == "ws"

    @property
    def queued_frames(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    def offer_events(self, events: list[RemoteEvent]) -> None:
        """Offer one causally ordered room batch; the events this client did
        not upload are framed and queued as one ``delta``."""
        fresh = self.outbound.fresh(events)
        if fresh:
            self.queue_frame(delta_frame(fresh))

    def queue_frame(self, frame: dict[str, Any]) -> None:
        """Queue one non-delta frame (welcome / presence / error / bye)."""
        self._queue.append(frame)
        self.room.stats.frames_queued += 1
        if (
            self.max_queued_frames
            and not self.shed
            and len(self._queue) > self.max_queued_frames
        ):
            self._shed()
        self._wakeup.set()

    def _shed(self) -> None:
        """Backpressure: this client fell too far behind — drop its queue,
        hand it one structured *resumable* ``bye`` and close the session.

        The client's reconnect path replays from its locally applied version,
        so nothing is lost; the room only sheds the memory.  The transport
        handler observes ``closed``/``shed`` and performs the actual
        ``disconnect`` — shedding fires inside the ingest fan-out, which is
        iterating ``room.sessions``.
        """
        self.room.stats.frames_shed += len(self._queue)
        self.room.stats.sessions_shed += 1
        self._queue.clear()
        self.shed = True
        self._queue.append(bye_frame(reason="slow-consumer", resume=True))
        self.close()

    def requeue(self, frames: list[dict[str, Any]]) -> None:
        """Put undelivered frames back at the queue head (a flush failed
        mid-way); they are retried or counted as abandoned by the caller."""
        if frames:
            self._queue[0:0] = frames
            self._wakeup.set()

    # ------------------------------------------------------------------
    def drain(self) -> list[dict[str, Any]]:
        """Take every queued frame (long-poll response / WS pump step)."""
        self.last_seen = time.monotonic()
        frames = self._queue
        self._queue = []
        self._wakeup.clear()
        return frames

    async def wait_for_frames(self, timeout: float) -> list[dict[str, Any]]:
        """Wait up to ``timeout`` seconds for frames, then drain.

        Returns an empty list on timeout — the long-poll contract: the client
        immediately re-polls.
        """
        if not self._queue:
            try:
                await asyncio.wait_for(self._wakeup.wait(), timeout)
            except asyncio.TimeoutError:
                self.last_seen = time.monotonic()
                return []
        return self.drain()

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._wakeup.set()


class DocumentRoom(Replica):
    """One hosted document plus everything connected to it.

    The room is the server's :class:`~repro.network.replica.Replica`: uploads
    from every session funnel through its inbound buffer (:meth:`receive_delta`),
    so the document sees causally ordered, deduplicated batches, and
    :meth:`deliver` logs each batch and fans it out.

    Args:
        document: a pre-built server replica (the recovery path passes the
            document rebuilt from snapshot + WAL); default is a fresh one.
        storage: a :class:`~repro.server.wal.RoomStorage` — every ingested
            batch is WAL-appended *before* it is fanned out to sessions.
        faults: a :class:`~repro.faults.FaultInjector` consulted for injected
            crash points around the WAL append.
        on_crash: called (synchronously) when an injected crash fires, before
            :class:`~repro.faults.InjectedCrash` is raised — the server binds
            this to its abrupt-teardown path.
        max_queued_frames: per-session backpressure cap (see
            :class:`Session`).
        poll_session_timeout: idle seconds after which a long-poll session
            is reaped (the server passes its own setting).
    """

    def __init__(
        self,
        name: str,
        *,
        document: Document | None = None,
        storage: RoomStorage | None = None,
        faults: Any | None = None,
        on_crash: Callable[[], None] | None = None,
        max_queued_frames: int = 0,
        poll_session_timeout: float = POLL_SESSION_TIMEOUT,
    ) -> None:
        super().__init__(Document(f"server::{name}") if document is None else document)
        self.name = name
        self.storage = storage
        self.faults = faults
        self.on_crash = on_crash
        self.max_queued_frames = max_queued_frames
        self.poll_session_timeout = poll_session_timeout
        self.sessions: dict[str, Session] = {}
        #: Last announced cursor per agent (id-frontier positions).
        self.presence: dict[str, tuple[EventId, ...]] = {}
        self.stats = RoomStats()

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    def connect(self, agent: str, transport: str, version_ids: Iterable[EventId]) -> Session:
        """Open a session: queue ``welcome``, the catch-up ``delta`` of every
        event outside the client's version, and current presence frames.
        Live fan-out to the session starts right after, in the same step."""
        self.reap_idle_sessions(self.poll_session_timeout)
        session = Session(
            self, agent, transport, max_queued_frames=self.max_queued_frames
        )
        self.sessions[session.id] = session
        self.stats.sessions_opened += 1
        session.queue_frame(
            welcome_frame(self.name, session.id, self.document.version().ids)
        )
        catchup = self.document.events_since(tuple(version_ids))
        if catchup:
            session.offer_events(catchup)
        if session.wants_presence:
            for other_agent, cursor in self.presence.items():
                if other_agent != agent:
                    session.queue_frame(presence_frame(other_agent, cursor))
        return session

    def disconnect(self, session: Session) -> None:
        if self.sessions.pop(session.id, None) is not None:
            self.stats.sessions_closed += 1
        session.close()
        self.presence.pop(session.agent, None)

    def reap_idle_sessions(self, timeout: float) -> list[Session]:
        """Drop long-poll sessions that stopped polling (vanished clients).

        Returns the reaped sessions so the server can purge its own routing
        entries for them (the periodic reaper task does exactly that).
        """
        deadline = time.monotonic() - timeout
        reaped = []
        for session in list(self.sessions.values()):
            if session.transport == "poll" and session.last_seen < deadline:
                self.disconnect(session)
                self.stats.sessions_reaped += 1
                reaped.append(session)
        return reaped

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def receive_delta(self, session: Session, events: list[RemoteEvent]) -> int:
        """Ingest one uploaded delta; returns how many events reached the
        document (0 for a pure duplicate replay)."""
        self.stats.deltas_received += 1
        session.last_seen = time.monotonic()
        session.outbound.mark_uploaded(events)
        before = self.inbound.stats.duplicates
        delivered = self.receive(events)
        self.stats.duplicates_dropped += self.inbound.stats.duplicates - before
        return delivered

    def deliver(self, events: list[RemoteEvent]) -> None:
        """Inbound-buffer delivery: apply one causally ordered batch to the
        server replica, WAL-append it, then fan it out to every session.

        The write-ahead append happens *before* any session sees the batch:
        a crash after the append loses only unacknowledged fan-out (clients
        re-fetch on reconnect), never durable state a client observed.
        Injected crash points fire around the append — ``before-wal`` loses
        the batch, ``torn-wal`` truncates its record mid-write, ``after-wal``
        crashes with the record intact.
        """
        super().deliver(events)
        self.stats.events_ingested += len(events)
        self.stats.chars_ingested += sum(e.op.length for e in events)
        crash = self.faults.crash_due() if self.faults is not None else None
        if crash != "before-wal" and self.storage is not None:
            self.storage.append(events, torn=crash == "torn-wal")
            if crash is None:
                self.storage.maybe_compact(self.document)
        if crash is not None:
            if self.on_crash is not None:
                self.on_crash()
            raise InjectedCrash(f"injected server crash at {crash}")
        for session in self.sessions.values():
            if not session.closed:
                session.offer_events(events)

    def receive_presence(self, session: Session, cursor: tuple[EventId, ...]) -> None:
        """Update an agent's cursor and fan it out to WebSocket sessions."""
        self.stats.presence_updates += 1
        session.last_seen = time.monotonic()
        self.presence[session.agent] = cursor
        frame = presence_frame(session.agent, cursor)
        for other in self.sessions.values():
            if other is not session and other.wants_presence and not other.closed:
                other.queue_frame(frame)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def version(self) -> Version:
        return self.document.version()

    def buffer_pending(self) -> dict[str, int]:
        """Parked-event counts for the leak check: all zero once the room has
        quiesced (no in-flight uploads).  Sessions park nothing."""
        return {"inbound": self.pending_count}

    def summary(self) -> dict[str, Any]:
        summary = {
            "doc": self.name,
            "sessions": len(self.sessions),
            "run_events": len(self.document.oplog.graph),
            "chars": self.document.oplog.graph.num_chars,
            "text_len": len(self.document.rope),
            "resident_walker_records": self.document.engine.resident_record_count(),
            "version": [[a, s] for a, s in self.document.version().as_tuples()],
            "buffer_pending": self.buffer_pending(),
            "stats": asdict(self.stats),
        }
        if self.storage is not None:
            summary["durability"] = self.storage.stats.as_dict()
        return summary
