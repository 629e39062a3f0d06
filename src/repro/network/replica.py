"""A replica on a causal-delivery network (paper §2.1).

:class:`Replica` is a :class:`~repro.core.document.Document` behind its
inbound :class:`~repro.network.causal_broadcast.CausalBuffer`.  The network
simulator's peers, the server's rooms, WAL recovery and the load generator's
clients are all built on it, so the rule they depend on lives here once: the
inbound buffer knows exactly what the graph covers.  It is seeded from the
graph's id spans (a replica may start from a loaded or recovered document),
and each local edit's exported suffix is marked known before it leaves.  A
peer event is therefore parked only while a parent is truly missing, and a
redelivered event, however its sender carved the run, is a duplicate.
"""

from __future__ import annotations

from typing import Iterable

from ..core.document import Document
from ..core.oplog import RemoteEvent
from .causal_broadcast import CausalBuffer

__all__ = ["Replica"]


class Replica:
    """A :class:`Document` behind its inbound :class:`CausalBuffer`.

    Subclasses extend :meth:`deliver` (the buffer's callback) to act on each
    causally ordered batch after it is applied — the server's rooms log and
    fan it out.
    """

    def __init__(self, document: Document) -> None:
        self.document = document
        self.inbound = CausalBuffer(deliver_batch=self.deliver)
        self.inbound.mark_known_spans(document.oplog.graph.id_spans())

    @property
    def agent(self) -> str:
        return self.document.agent

    @property
    def text(self) -> str:
        return self.document.text

    @property
    def pending_count(self) -> int:
        """Events parked in the inbound buffer (0 once the network is quiet)."""
        return self.inbound.pending_count

    # -- inbound --------------------------------------------------------
    def receive(self, events: Iterable[RemoteEvent]) -> int:
        """Accept peer events in any order, carving or multiplicity; returns
        how many reached the document (as one batch)."""
        return self.inbound.receive_batch(events)

    def deliver(self, events: list[RemoteEvent]) -> None:
        """Apply one causally ordered, deduplicated batch."""
        self.document.apply_remote_events(events)

    # -- local edits ----------------------------------------------------
    def local_insert(self, pos: int, content: str) -> list[RemoteEvent]:
        """Insert locally; returns the events to send, already marked known."""
        before = self.document.oplog.graph.next_seq_for(self.agent)
        self.document.insert(pos, content)
        return self._exported(before)

    def local_delete(self, pos: int, length: int = 1) -> list[RemoteEvent]:
        """Delete locally; returns the events to send, already marked known."""
        before = self.document.oplog.graph.next_seq_for(self.agent)
        self.document.delete(pos, length)
        return self._exported(before)

    def own_history(self) -> list[RemoteEvent]:
        """Every event this replica authored: the replay a reconnecting
        client ships so a server that lost some of them is restored."""
        return self.document.oplog.export_since_seq(self.agent, 0)

    def _exported(self, before_seq: int) -> list[RemoteEvent]:
        # Export by id span, not by event index: run coalescing may have
        # extended an existing event, and only the new suffix travels.
        events = self.document.oplog.export_since_seq(self.agent, before_seq)
        self.inbound.mark_known_spans((e.id, e.op.length) for e in events)
        return events
