"""Reliable causal broadcast (paper §2.1–2.2).

Eg-walker assumes a replication layer that delivers every event to every
replica, with each event delivered only after all of its parents.  This module
implements that layer for the simulated network: a :class:`CausalBuffer` holds
incoming events whose parents have not arrived yet and releases them (in
causal order) as soon as they become deliverable, which is exactly the "simple
causal broadcast protocol" the paper describes.

Because run boundaries are a local encoding detail, the buffer reasons about
**character id spans**, not whole-event ids: a parent reference names one
character (the last one the event depends on), an event covers the span of
characters its run carries, and peers may carve the same characters into
different runs.  Known ids are therefore tracked per agent in a
:class:`~repro.core.range_map.SpanSet` — O(runs) memory, any carving.

The buffer is transport-agnostic: the in-process network simulator, the relay
server and the gossip topology in :mod:`repro.network.simulator` all push
events through it.

Deliveries are **batched**: the buffer hands everything a top-level call makes
deliverable — a whole network tick's messages plus any unblocking cascades —
to its ``deliver_batch`` callback in one causally ordered list.  A replica's
merge engine integrates such a list as a single merge, so a relay hub fanning
in one event per peer per tick pays one ``integrate`` per batch instead of one
per event.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..core.ids import EventId
from ..core.oplog import RemoteEvent
from ..core.range_map import SpanSet

__all__ = ["CausalBuffer", "DeliveryStats"]


@dataclass(slots=True)
class DeliveryStats:
    """Counters describing the buffer's behaviour (exposed for tests/examples).
    ``received == delivered + duplicates + superseded + pending_count``."""

    received: int = 0
    delivered: int = 0
    duplicates: int = 0
    #: Parked events replaced by a coarser carving of the same run.
    superseded: int = 0
    buffered_high_water: int = 0
    #: Delivery batches handed to ``deliver_batch``.  ``delivered / batches``
    #: is the fan-in amortisation a batching consumer (the merge engine)
    #: enjoys.
    batches: int = 0


class CausalBuffer:
    """Re-orders incoming events so that parents are delivered before children.

    Args:
        deliver_batch: delivery callback.  Every top-level call into the
            buffer (:meth:`receive_batch`, :meth:`mark_known_spans`) hands
            **all** events it makes deliverable — including whole unblocking
            cascades — to ``deliver_batch`` in one causally ordered list.  A
            consumer that pays per integration (the merge engine costs one
            merge per batch) therefore pays once per network tick, not once
            per event: the relay-hub fan-in amortisation.
    """

    def __init__(self, *, deliver_batch: Callable[[list[RemoteEvent]], None]) -> None:
        self._deliver_batch = deliver_batch
        #: Per-agent coverage of character ids already delivered (or locally
        #: generated).  Span-based so that re-carved runs dedup correctly.
        self._known: dict[str, SpanSet] = {}
        self._pending: dict[EventId, RemoteEvent] = {}
        self._waiting_on: dict[EventId, list[EventId]] = {}
        #: Sorted waiting-parent seqs per agent, so a delivered run can find
        #: every waiter inside its span with a bisect instead of a char loop.
        self._waiting_seqs: dict[str, list[int]] = {}
        self.stats = DeliveryStats()

    # ------------------------------------------------------------------
    def _known_spans(self, agent: str) -> SpanSet:
        spans = self._known.get(agent)
        if spans is None:
            spans = self._known[agent] = SpanSet()
        return spans

    def mark_known_spans(self, spans: Iterable[tuple[EventId, int]]) -> int:
        """Tell the buffer about known id runs (locally generated events, or
        events ingested out of band, e.g. a state-transfer sync).

        Buffered events that only waited on the marked spans become
        deliverable and are flushed as a single batch; returns how many got
        delivered.
        """
        ready: list[RemoteEvent] = []
        for start_id, length in spans:
            self._known_spans(start_id.agent).add(start_id.seq, length)
            ready.extend(self._collect_ready(start_id.agent, start_id.seq, length))
        return self._dispatch(self._collect_cascade(ready[::-1]))  # first ready first

    def _knows(self, event_id: EventId) -> bool:
        spans = self._known.get(event_id.agent)
        return spans is not None and spans.contains(event_id.seq)

    def _covers(self, event: RemoteEvent) -> bool:
        spans = self._known.get(event.id.agent)
        return spans is not None and spans.covers(event.id.seq, event.op.length)

    def _receive_collect(self, event: RemoteEvent, out: list[RemoteEvent]) -> None:
        """Accept one event, appending what it makes deliverable (itself plus
        any unblocked cascade) to ``out`` instead of dispatching it, so
        :meth:`receive_batch` can flush once.

        One pass: the author's span set is looked up once, coverage and
        parents are checked once, and a deliverable event is marked known
        inline; the cascade runs only when something waits on the author.

        An event whose characters are all known is a duplicate regardless of
        how its sender carved the run; a partially known run is *not* — it is
        passed through and the event graph's split-on-ingest keeps only the
        new characters.
        """
        self.stats.received += 1
        event_id = event.id
        agent, seq = event_id
        length = event.op.length
        spans = self._known_spans(agent)
        pending = self._pending.get(event_id) if self._pending else None
        if spans.covers(seq, length) or (
            pending is not None and pending.op.length >= length
        ):
            self.stats.duplicates += 1
            return
        missing = [
            p
            for p in event.parents
            if not (spans.contains(p.seq) if p.agent == agent else self._knows(p))
        ]
        if not missing and pending is not None:
            # A deliverable coarser carving supersedes the buffered finer
            # one: drop the stale entry now, or it lingers as a phantom
            # pending event (a leak) until some parent span is re-touched.
            del self._pending[event_id]
            self.stats.superseded += 1
        if missing:
            if pending is not None:
                # A coarser carving of an already-buffered run (same first
                # character, so the same original edit and the same parents):
                # keep the longer event; the existing waiter registrations
                # still apply.
                self._pending[event_id] = event
                self.stats.superseded += 1
                return
            self._pending[event_id] = event
            for parent in missing:
                waiters = self._waiting_on.setdefault(parent, [])
                if not waiters:
                    bisect.insort(
                        self._waiting_seqs.setdefault(parent.agent, []), parent.seq
                    )
                waiters.append(event_id)
            if len(self._pending) > self.stats.buffered_high_water:
                self.stats.buffered_high_water = len(self._pending)
            return
        out.append(event)
        spans.add(seq, length)
        self.stats.delivered += 1
        if self._waiting_seqs.get(agent):
            out.extend(self._collect_cascade(self._collect_ready(agent, seq, length)))

    def receive_batch(self, events: Iterable[RemoteEvent]) -> int:
        """Accept events from the network (e.g. everything a network tick
        delivered); returns how many got delivered.

        Everything the whole batch makes deliverable reaches
        ``deliver_batch`` as **one** call — this is the per-tick amortisation
        a relay hub's fan-in relies on (one merge-engine integration per
        batch, not per event).
        """
        batch: list[RemoteEvent] = []
        for event in events:
            self._receive_collect(event, batch)
        return self._dispatch(batch)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    def _waiters_in_span(self, agent: str, start: int, length: int) -> list[EventId]:
        """Pop every waiting parent id inside ``agent``'s span ``start..+length``."""
        seqs = self._waiting_seqs.get(agent)
        if not seqs:
            return []
        lo = bisect.bisect_left(seqs, start)
        hi = bisect.bisect_left(seqs, start + length)
        hits = [EventId(agent, seq) for seq in seqs[lo:hi]]
        del seqs[lo:hi]
        return hits

    def _collect_ready(self, agent: str, start: int, length: int) -> list[RemoteEvent]:
        """Pending events made deliverable by ``agent``'s span becoming known."""
        ready: list[RemoteEvent] = []
        for parent in self._waiters_in_span(agent, start, length):
            for waiting_id in self._waiting_on.pop(parent, []):
                waiting = self._pending.get(waiting_id)
                if waiting is None:
                    continue
                if all(self._knows(p) for p in waiting.parents):
                    del self._pending[waiting_id]
                    ready.append(waiting)
        return ready

    def _collect_cascade(self, stack: list[RemoteEvent]) -> list[RemoteEvent]:
        """Mark the deliverable events on ``stack`` (last first) and
        everything they unblock delivered; return them in causal order (the
        dispatch to the consumer happens at the top-level entry point, once
        per call)."""
        out: list[RemoteEvent] = []
        while stack:
            current = stack.pop()
            if self._covers(current):
                self.stats.duplicates += 1
                continue
            out.append(current)
            self._known_spans(current.id.agent).add(current.id.seq, current.op.length)
            self.stats.delivered += 1
            stack.extend(
                self._collect_ready(current.id.agent, current.id.seq, current.op.length)
            )
        return out

    def _dispatch(self, events: list[RemoteEvent]) -> int:
        """Hand delivered events to the consumer in one ``deliver_batch``
        call."""
        if not events:
            return 0
        self.stats.batches += 1
        self._deliver_batch(events)
        return len(events)
