"""The operation log: a replica's durable editing history (paper §3, §2.1).

The :class:`OpLog` is the part of a replica's state that is persisted and
replicated: the event graph.  It offers the editor-facing operations (insert /
delete runs of text, stored as **one event per run** — the run-length encoding
the paper attributes most of its "Faster, Smaller" wins to), the
replication-facing operations (enumerate events missing from a remote
version, ingest remote events), and version bookkeeping.

It deliberately does *not* hold the document text — that lives in
:class:`repro.core.document.Document` — nor any CRDT metadata, which is the
whole point of Eg-walker: in the steady state only the plain text and the
(on-disk) event graph exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .causal_graph import CausalGraph
from .event_graph import Event, EventGraph, Version
from .ids import EventId, Operation, OpKind, delete_op, insert_op

__all__ = [
    "OpLog",
    "RemoteEvent",
    "graph_to_remote_events",
    "split_remote_event",
    "merge_remote_events",
    "recarve_events",
]


@dataclass(frozen=True, slots=True)
class RemoteEvent:
    """A portable, self-contained description of one event.

    This is what gets sent over the network (and what the storage encoder
    serialises): the event id, the ids of its parents, and the operation.
    Local indices are never exchanged between replicas.

    Parent ids name the **last** character the event depends on (see
    :meth:`~repro.core.event_graph.EventGraph.dependency_id`): run boundaries
    are a local encoding detail, so a receiver whose graph carves the parent's
    history differently resolves the id to exactly the intended causal
    coverage, splitting its stored run at the boundary if necessary.
    """

    id: EventId
    parents: tuple[EventId, ...]
    op: Operation

    @property
    def last_char_id(self) -> EventId:
        """Id of the run's last character (what a child's parent ref names)."""
        return self.id.advance(self.op.length - 1)


def graph_to_remote_events(
    graph: EventGraph, indices: Iterable[int] | None = None
) -> list[RemoteEvent]:
    """Events of ``graph`` (all of them by default) in portable form: parents
    as the ids of their last characters, never local indices."""
    dependency_id = graph.dependency_id
    return [
        RemoteEvent(id=event_id, parents=tuple(map(dependency_id, parents)), op=op)
        for event_id, parents, op in zip(*graph.to_columns(indices))
    ]


def split_remote_event(event: RemoteEvent, offset: int) -> tuple[RemoteEvent, RemoteEvent]:
    """Re-carve one portable run event into two at ``offset``.

    The result is a legal re-encoding of the same history: the left half keeps
    the event's id and parents, the right half starts ``offset`` characters in
    and depends on the left half's last character.  Receivers treat either
    carving identically (split-on-ingest).
    """
    op = event.op
    if offset <= 0 or offset >= op.length:
        raise ValueError(f"cannot split a run of length {op.length} at {offset}")
    left = RemoteEvent(id=event.id, parents=event.parents, op=op.slice(0, offset))
    right = RemoteEvent(
        id=event.id.advance(offset),
        parents=(left.last_char_id,),
        op=op.slice(offset, op.length - offset),
    )
    return left, right


def merge_remote_events(left: RemoteEvent, right: RemoteEvent) -> RemoteEvent | None:
    """Coalesce two portable events into one run, if they form one.

    ``right`` must continue ``left`` exactly: contiguous ids, ``right``
    depending only on ``left``'s last character, and an operation that extends
    the run (an insert continuing at the end, or a delete at the same index).
    Returns ``None`` when the pair is not mergeable.  This is the sender-side
    inverse of split-on-ingest, used to emulate peers that batch runs
    differently (e.g. diamond-types' oplog coalescing).
    """
    if right.id != left.id.advance(left.op.length):
        return None
    if right.parents != (left.last_char_id,):
        return None
    lop, rop = left.op, right.op
    if lop.kind is not rop.kind:
        return None
    if lop.is_insert:
        if rop.pos != lop.pos + lop.length:
            return None
        merged = insert_op(lop.pos, lop.content + rop.content)
    else:
        if rop.pos != lop.pos:
            return None
        merged = delete_op(lop.pos, lop.length + rop.length)
    return RemoteEvent(id=left.id, parents=left.parents, op=merged)


def recarve_events(
    events: Iterable[RemoteEvent],
    *,
    splits: Callable[[RemoteEvent], Iterable[int]] | None = None,
    merge_adjacent: bool = False,
) -> list[RemoteEvent]:
    """Re-encode a causally ordered event list with different run boundaries.

    ``splits`` maps each event to the offsets at which to cut it; with
    ``merge_adjacent`` set, consecutive events that form one run are coalesced
    first (then split at the requested offsets).  The output carries exactly
    the same per-character history in the same causal order — feeding it to
    any replica converges to the same document as the original list, which is
    what the convergence fuzzer exercises.
    """
    merged: list[RemoteEvent] = []
    for event in events:
        if merge_adjacent and merged:
            combined = merge_remote_events(merged[-1], event)
            if combined is not None:
                merged[-1] = combined
                continue
        merged.append(event)
    if splits is None:
        return merged
    out: list[RemoteEvent] = []
    for event in merged:
        offsets = sorted(
            {o for o in splits(event) if 0 < o < event.op.length}, reverse=True
        )
        pieces = [event]
        for offset in offsets:
            left, right = split_remote_event(pieces[0], offset)
            pieces[0:1] = [left, right]
        out.extend(pieces)
    return out


class OpLog:
    """A replica's event graph plus convenience editing / replication APIs.

    When a local edit *continues* the frontier run — same agent, an insert
    picking up exactly where the run ended or a delete at the run's index —
    the log extends that run event in place instead of appending a new event.
    This is the sender-side counterpart of split-on-ingest (diamond-types'
    oplog coalescing): a keystroke-at-a-time session stores O(runs) events at
    the source, and the extension is a legal re-encoding of the same history
    (:func:`merge_remote_events` accepts exactly these pairs), so peers
    holding the shorter run are reconciled by the usual carving machinery.

    Args:
        agent: default agent name for local edits.
        graph: an existing event graph to **adopt** as this log's history
            (e.g. one decoded from storage) instead of starting empty.  The
            log becomes its sole owner: nobody else may hold or mutate it.
    """

    def __init__(
        self,
        agent: str | None = None,
        *,
        graph: EventGraph | None = None,
    ) -> None:
        self.graph = EventGraph() if graph is None else graph
        self.causal = CausalGraph(self.graph)
        self.agent = agent

    # ------------------------------------------------------------------
    # Local editing
    # ------------------------------------------------------------------
    def add_insert(self, pos: int, content: str, *, agent: str | None = None) -> Event:
        """Record a local insertion of ``content`` at index ``pos``.

        The whole run is stored as a single event whose id names its first
        character — O(1) events and id-map entries per run instead of
        O(chars).  The per-character view is recoverable with
        :func:`repro.core.event_graph.expand_to_chars`.  The event may be
        the *extended* frontier run rather than a new event.
        """
        agent_name = self._agent(agent)
        op = insert_op(pos, content)
        extended = self._try_extend_frontier_run(agent_name, op)
        if extended is not None:
            return extended
        return self.graph.add_local_event(agent_name, op)

    def add_delete(self, pos: int, length: int = 1, *, agent: str | None = None) -> Event:
        """Record a local deletion of ``length`` characters starting at ``pos``.

        Stored as a single run event: deleting ``length`` characters at
        ``pos`` removes ``pos .. pos+length-1`` of the version the event was
        generated against (each character lands on the same index once its
        predecessors are gone).  A delete at the frontier delete run's index
        extends that run in place (holding the Delete key produces one
        event).
        """
        agent_name = self._agent(agent)
        op = delete_op(pos, length)
        extended = self._try_extend_frontier_run(agent_name, op)
        if extended is not None:
            return extended
        return self.graph.add_local_event(agent_name, op)

    def _try_extend_frontier_run(self, agent: str, op: Operation) -> Event | None:
        """Extend the frontier run in place if ``op`` continues it."""
        frontier = self.graph.frontier
        if len(frontier) != 1:
            return None
        event = self.graph[frontier[0]]
        if (
            event.id.agent != agent
            or self.graph.next_seq_for(agent) != event.end_seq
            or event.op.kind is not op.kind
        ):
            return None
        if op.is_insert and op.pos != event.op.pos + event.op.length:
            return None
        if op.is_delete and op.pos != event.op.pos:
            return None
        return self.graph.extend_event(event.index, op)

    def _agent(self, agent: str | None) -> str:
        name = agent if agent is not None else self.agent
        if name is None:
            raise ValueError("no agent configured for this OpLog; pass agent= explicitly")
        return name

    # ------------------------------------------------------------------
    # Versions
    # ------------------------------------------------------------------
    @property
    def local_version(self) -> Version:
        """The current frontier as *local event indices*.

        Internal representation: only meaningful inside this replica, and
        only until the graph mutates (in-place run extension makes an index
        cover more characters; interop splits shift indices).  Id-based
        handles (:meth:`Document.version
        <repro.core.document.Document.version>` one layer up) are the stable
        currency.  O(1).
        """
        return self.graph.frontier

    def __len__(self) -> int:
        return len(self.graph)

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------
    def export_events(self, indices: Iterable[int] | None = None) -> list[RemoteEvent]:
        """Export events (all of them by default) in portable form."""
        return graph_to_remote_events(self.graph, indices)

    def export_since_seq(self, agent: str, seq: int) -> list[RemoteEvent]:
        """Portable events covering ``agent``'s own characters from ``seq`` on.

        The broadcast-after-edit helper for sender-side run coalescing: a
        local edit may have *extended* an existing event instead of creating
        one, in which case only the new suffix must travel.  A mid-run suffix
        is exported exactly like :func:`split_remote_event` would carve it —
        depending on the previous character of the run — which receivers
        already handle (run boundaries are a local encoding detail).
        """
        out: list[RemoteEvent] = []
        end = self.graph.next_seq_for(agent)
        while seq < end:
            index, offset = self.graph.locate(EventId(agent, seq))
            event = self.graph[index]
            if offset == 0:
                out.append(
                    RemoteEvent(
                        id=event.id,
                        parents=tuple(
                            self.graph.dependency_id(p) for p in event.parents
                        ),
                        op=event.op,
                    )
                )
            else:
                out.append(
                    RemoteEvent(
                        id=event.id.advance(offset),
                        parents=(event.id.advance(offset - 1),),
                        op=event.op.slice(offset, event.op.length - offset),
                    )
                )
            seq = event.end_seq
        return out

    def events_since(self, remote_version: Sequence[EventId]) -> list[RemoteEvent]:
        """Events the remote replica (at ``remote_version``) is missing.

        Accepts a raw id sequence (the wire representation) or a
        :class:`repro.history.Version` handle (anything with an ``ids``
        attribute).  A version id the local graph does not know means the
        remote is ahead of us on that agent's line (it typed offline, or we
        lost its last characters in a crash); an agent's characters are
        causally ordered, so the id stands for the agent's last character we
        know.  An agent we have never seen contributes nothing.  A version id
        that lands mid-run (the remote carved, or saw, only a prefix of one of
        our runs) splits the stored run at the boundary so the unseen suffix
        is exported and the seen prefix is not re-sent.  Cost: the causal diff
        between the two frontiers plus the export of the missing events.
        """
        ids = getattr(remote_version, "ids", remote_version)
        known: list[EventId] = []
        for eid in ids:
            if not self.graph.contains_id(eid):
                end = self.graph.next_seq_for(eid.agent)
                if not 0 < end <= eid.seq:
                    continue  # an agent we have never seen
                eid = EventId(eid.agent, end - 1)
            known.append(eid)
        # Resolve to Event objects first: each dependency_index call may split
        # a stored run, shifting every later index (Event.index stays live).
        local_events = [self.graph[self.graph.dependency_index(eid)] for eid in known]
        local_version = tuple(sorted({e.index for e in local_events}))
        _, missing = self.causal.diff(local_version, self.graph.frontier)
        return self.export_events(missing)

    def ingest_events(self, events: Iterable[RemoteEvent]) -> range:
        """Add remote events to the graph (idempotently).

        Events must arrive with their parents either already known or earlier
        in the same batch (the causal-broadcast layer guarantees this).  Runs
        may be carved differently than this replica's graph; partial overlaps
        are resolved by splitting on either side (see
        :meth:`EventGraph.ingest_runs`).

        Returns:
            The tail of the local order that covers the spans that were
            actually new (:attr:`EventGraph.batch_tail`).  If an event is
            refused, the events before it stay in the graph and the graph's
            ``batch_tail`` names them.
        """
        return self.graph.ingest_runs(
            (remote.id, remote.parents, remote.op) for remote in events
        )

    def merge_from(self, other: "OpLog") -> range:
        """Union this log with another replica's log (paper §2.2); returns
        the tail :meth:`ingest_events` returns."""
        return self.graph.merge_from(other.graph)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, int]:
        return self.graph.summary()
