"""Server-side state: documents as rooms, connections as sessions.

A :class:`DocumentRoom` owns one live server replica
(:class:`~repro.core.document.Document`) plus an **inbound**
:class:`~repro.network.causal_broadcast.CausalBuffer`: every delta a client
uploads goes through the buffer, which re-orders out-of-causal-order arrivals,
drops duplicates (reconnect replays, however they are re-carved) and hands the
document one causally ordered batch per upload — the same amortisation the
network simulator's relay hub enjoys.

Each connection is a :class:`Session` with an **outbound** ``CausalBuffer`` of
its own, seeded with the spans the client already has (computed from the
``hello`` version's ancestor closure).  Everything the room ingests is offered
to every session; a session's buffer dedups what that client already holds —
its own uploads, catch-up overlap after a reconnect, re-carved duplicates —
and frames the rest as ``delta`` messages on the session's queue.  The queue
is transport-agnostic: the WebSocket handler pumps it over the socket, the
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
from ..faults import InjectedCrash
from ..history import Version
from ..network.causal_broadcast import CausalBuffer
from .protocol import bye_frame, delta_frame, presence_frame, welcome_frame
from .wal import RoomStorage

__all__ = ["Session", "DocumentRoom", "RoomStats"]

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
        #: Outbound causal buffer: offered every room ingest, delivers (as
        #: one ``delta`` frame per batch) only what this client is missing.
        self.outbound = CausalBuffer(deliver_batch=self._queue_delta)

    # ------------------------------------------------------------------
    @property
    def wants_presence(self) -> bool:
        return self.transport == "ws"

    @property
    def pending_count(self) -> int:
        """Events parked in the outbound buffer (0 after quiescence)."""
        return self.outbound.pending_count

    @property
    def queued_frames(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    def seed_known(self, spans: Iterable[tuple[EventId, int]]) -> None:
        """Mark the spans the client already holds (its ``hello`` version's
        ancestor closure), so catch-up and live traffic dedup against them."""
        self.outbound.mark_known_spans(spans)

    def mark_uploaded(self, events: Iterable[RemoteEvent]) -> None:
        """Record that the client itself sent ``events``: the room's ingest
        loop will offer them back, and the buffer must treat the echo as
        already-known (a clean no-op, whatever the carving)."""
        self.outbound.mark_known_spans((e.id, e.op.length) for e in events)

    def offer_events(self, events: list[RemoteEvent]) -> None:
        """Offer newly ingested room events; only the genuinely new ones (for
        this client) are framed and queued."""
        self.outbound.receive_batch(events)

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

    def _queue_delta(self, events: list[RemoteEvent]) -> None:
        self.queue_frame(delta_frame(events))

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


class DocumentRoom:
    """One hosted document plus everything connected to it.

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
    """

    def __init__(
        self,
        name: str,
        document_options: dict | None = None,
        *,
        document: Document | None = None,
        storage: RoomStorage | None = None,
        faults: Any | None = None,
        on_crash: Callable[[], None] | None = None,
        max_queued_frames: int = 0,
    ) -> None:
        self.name = name
        if document is None:
            document = Document(f"server::{name}", **(document_options or {}))
        self.document = document
        self.storage = storage
        self.faults = faults
        self.on_crash = on_crash
        self.max_queued_frames = max_queued_frames
        self.sessions: dict[str, Session] = {}
        #: Last announced cursor per agent (id-frontier positions).
        self.presence: dict[str, tuple[EventId, ...]] = {}
        self.stats = RoomStats()
        #: Inbound causal buffer: uploads from every session funnel through
        #: here, so the document sees causally ordered, deduplicated batches.
        self.inbound = CausalBuffer(deliver_batch=self._ingest)
        # A room can be created over a pre-loaded document; everything already
        # in the graph counts as known.
        self._seed_inbound()

    def _seed_inbound(self) -> None:
        self.inbound.mark_known_spans(self.document.oplog.graph.id_spans())

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    def connect(self, agent: str, transport: str, version_ids: Iterable[EventId]) -> Session:
        """Open a session: seed its dedup state from the client's version and
        queue ``welcome`` + catch-up ``delta`` + current presence frames."""
        self.reap_idle_sessions()
        session = Session(
            self, agent, transport, max_queued_frames=self.max_queued_frames
        )
        self.sessions[session.id] = session
        self.stats.sessions_opened += 1
        version_ids = tuple(version_ids)
        session.seed_known(self._spans_at(version_ids))
        session.queue_frame(
            welcome_frame(self.name, session.id, self.document.version().ids)
        )
        catchup = self.document.events_since(version_ids)
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

    def reap_idle_sessions(self, timeout: float = POLL_SESSION_TIMEOUT) -> list[Session]:
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

    def _spans_at(self, version_ids: tuple[EventId, ...]) -> list[tuple[EventId, int]]:
        """The id spans covered by ``Events(version)`` — what a client at that
        version already holds.  Unknown ids (the client is ahead of us on a
        branch) contribute nothing; its uploads will fill the gap."""
        graph = self.document.oplog.graph
        known = [eid for eid in version_ids if graph.contains_id(eid)]
        if not known:
            return []
        indices = tuple(sorted({graph.dependency_index(eid) for eid in known}))
        return graph.id_spans(self.document.oplog.causal.ancestors(indices))

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def receive_delta(self, session: Session, events: list[RemoteEvent]) -> int:
        """Ingest one uploaded delta; returns how many events reached the
        document (0 for a pure duplicate replay)."""
        self.stats.deltas_received += 1
        session.last_seen = time.monotonic()
        session.mark_uploaded(events)
        before = self.inbound.stats.duplicates
        delivered = self.inbound.receive_batch(events)
        self.stats.duplicates_dropped += self.inbound.stats.duplicates - before
        return delivered

    def _ingest(self, events: list[RemoteEvent]) -> None:
        """Inbound-buffer delivery: apply one causally ordered batch to the
        server replica, WAL-append it, then fan it out to every session's
        outbound buffer.

        The write-ahead append happens *before* any session sees the batch:
        a crash after the append loses only unacknowledged fan-out (clients
        re-fetch on reconnect), never durable state a client observed.
        Injected crash points fire around the append — ``before-wal`` loses
        the batch, ``torn-wal`` truncates its record mid-write, ``after-wal``
        crashes with the record intact.
        """
        self.document.apply_remote_events(events)
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
    @property
    def text(self) -> str:
        return self.document.text

    def version(self) -> Version:
        return self.document.version()

    def buffer_pending(self) -> dict[str, int]:
        """Parked-event counts for the leak check: all zero once the room has
        quiesced (no in-flight uploads, every session caught up)."""
        pending = {"inbound": self.inbound.pending_count}
        for session in self.sessions.values():
            pending[f"outbound:{session.id}"] = session.pending_count
        return pending

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
