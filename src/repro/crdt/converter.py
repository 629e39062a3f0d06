"""Convert index-based event graphs into ID-based CRDT operations.

Traditional CRDT libraries consume operations that reference character ids
rather than indexes.  To benchmark them against an index-based editing trace
(and to cross-check Eg-walker against an independent CRDT implementation), the
trace must first be converted, which is what the paper's ``crdt-converter``
tool does by simulating a set of collaborating peers (Appendix A.5).

:func:`event_graph_to_crdt_ops` performs that conversion: it replays the
**run-event** graph once (full replay, no state clearing) and expands every
run into per-character CRDT operations — for an insert run, the first
character takes the run record's origins and each later character chains onto
the previous one; for a delete run, the internal state reports the id spans
it removed and each deleted character yields one targeted delete op.  The
resulting operation list can be fed to :class:`repro.crdt.SimpleListCRDT`
replicas — in any causal order — and to the Automerge-like / Yjs-like
baselines.

The conversion itself is not part of any timed benchmark (the paper likewise
performs it offline in experiment E1).
"""

from __future__ import annotations

from ..core.causal_graph import CausalGraph
from ..core.event_graph import EventGraph
from ..core.ids import EventId
from ..core.internal_state import InternalState
from ..core.records import OriginRef
from ..core.topo_sort import sort_branch_aware
from .list_crdt import CrdtDeleteOp, CrdtInsertOp, CrdtOp

__all__ = ["event_graph_to_crdt_ops"]


def _origin_id(ref: OriginRef) -> EventId | None:
    """Map an internal-state origin reference to a character id (or None)."""
    if ref is None:
        return None
    if isinstance(ref, EventId):
        return ref
    raise TypeError(
        "unexpected placeholder origin during conversion; the converter always "
        "replays the full graph so placeholders cannot occur"
    )


def event_graph_to_crdt_ops(graph: EventGraph) -> list[CrdtOp]:
    """Convert every character of ``graph`` into an ID-based CRDT operation.

    The returned list is in a topologically sorted order, so applying it
    sequentially to a single replica is always possible; causal-order
    permutations of it are exercised by the tests.
    """
    causal = CausalGraph(graph)
    # Span re-merging is disabled: each event's record (with that event's own
    # origins) is read back right after applying it, and a merge would replace
    # those origins with the absorbing run's.
    state = InternalState(merge_spans=False)
    order = sort_branch_aware(graph, range(len(graph)))

    ops: list[CrdtOp] = []
    prepare_version: tuple[int, ...] = ()
    for idx in order:
        event = graph[idx]
        op = event.op
        if prepare_version != event.parents:
            only_prepare, only_target = causal.diff(prepare_version, event.parents)
            for other in reversed(only_prepare):
                other_op = graph[other].op
                state.retreat(graph.id_of(other), other_op.is_insert, other_op.length)
            for other in only_target:
                other_op = graph[other].op
                state.advance(graph.id_of(other), other_op.is_insert, other_op.length)
        if op.is_insert:
            state.apply_insert(event.id, op.pos, op.length)
            record = state.record_for(event.id)
            origin_left = _origin_id(record.origin_left)
            origin_right = _origin_id(record.origin_right)
            for offset in range(op.length):
                ops.append(
                    CrdtInsertOp(
                        id=event.id_at(offset),
                        origin_left=origin_left if offset == 0 else event.id_at(offset - 1),
                        origin_right=origin_right,
                        content=op.content[offset],
                    )
                )
        else:
            segments = state.apply_delete(event.id, op.pos, op.length)
            offset = 0
            for segment in segments:
                for k in range(segment.length):
                    ops.append(
                        CrdtDeleteOp(
                            id=event.id_at(offset + k),
                            target=segment.target.advance(k),
                        )
                    )
                offset += segment.length
        prepare_version = (idx,)
    return ops
