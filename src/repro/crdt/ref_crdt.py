"""The reference CRDT baseline (paper §4.2, "Ref CRDT" / DT-CRDT).

The paper compares Eg-walker against a reference CRDT implementation that
shares most of its code with the Eg-walker implementation, so that the
difference measured is the *algorithmic* one — a traditional CRDT must build
and retain per-character metadata (ids, origins, tombstones) for the whole
document, persist it, and reload it before any editing can happen — rather
than incidental implementation differences.  This module follows the same
methodology: the reference CRDT replays an event graph with the same internal
machinery as the walker, but

* never clears its state (there is no critical-version optimisation in a
  traditional CRDT),
* retains every record, including tombstones, as its steady-state document
  (this is what Figure 10 measures),
* persists that state — not the event graph — as its file format, and
* must rebuild the full structure when loading a document from disk, which is
  why CRDT loads cost the same as merges in Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.causal_graph import CausalGraph
from ..core.event_graph import EventGraph
from ..core.ids import EventId
from ..core.internal_state import InternalState
from ..core.records import CrdtRecord, OriginRef
from ..core.topo_sort import sort_branch_aware
from ..storage.varint import ByteReader, ByteWriter

__all__ = ["RefCRDTDocument"]

_MAGIC = b"RCDT"


@dataclass(slots=True)
class _StoredItem:
    """One persisted CRDT item: a character plus its metadata."""

    agent: str
    seq: int
    origin_left: EventId | None
    origin_right: EventId | None
    content: str
    deleted: bool


class RefCRDTDocument:
    """A full, persistent list-CRDT document built from an event graph."""

    def __init__(self) -> None:
        self.items: list[_StoredItem] = []
        self.by_id: dict[EventId, _StoredItem] = {}
        self.text = ""

    # ------------------------------------------------------------------
    # Merging (the timed operation of Figure 8)
    # ------------------------------------------------------------------
    def merge_event_graph(self, graph: EventGraph) -> str:
        """Integrate an entire remote editing history into this document.

        The replay itself is run-length encoded (the shared Eg-walker
        machinery); the *retained* state is expanded to one item per
        character, because that is exactly the cost profile of a traditional
        CRDT that this baseline exists to measure.
        """
        causal = CausalGraph(graph)
        # Like the converter, the materialisation step reads per-run origins
        # out of the final record sequence, so spans must not be re-merged.
        state = InternalState(merge_spans=False)
        order = sort_branch_aware(graph, range(len(graph)))
        # Per-character content of every insert run, keyed by the run's first
        # character id (content of character (agent, seq+k) is content[k]).
        content_of: dict[EventId, str] = {}

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
                content_of[event.id] = op.content
            else:
                state.apply_delete(event.id, op.pos, op.length)
            prepare_version = (idx,)

        self._materialise(graph, state, content_of)
        return self.text

    def _materialise(
        self, graph: EventGraph, state: InternalState, content_of: dict[EventId, str]
    ) -> None:
        """Turn the replay's record sequence into the persistent CRDT state.

        Record runs are expanded into per-character items: the first character
        of a run keeps the run's origins, each later character chains onto its
        predecessor (the same expansion the converter performs).
        """
        items: list[_StoredItem] = []
        text_parts: list[str] = []
        for record in state.iter_records():
            if not isinstance(record, CrdtRecord):  # pragma: no cover - defensive
                raise RuntimeError("placeholders cannot appear in a full replay")
            run_event_index, run_offset = graph.locate(record.id)
            run_start = graph[run_event_index].id
            run_content = content_of.get(run_start, "")
            for k in range(record.length):
                char_id = record.id.advance(k)
                offset_in_run = run_offset + k
                content = (
                    run_content[offset_in_run] if offset_in_run < len(run_content) else ""
                )
                item = _StoredItem(
                    agent=char_id.agent,
                    seq=char_id.seq,
                    origin_left=(
                        _origin_id(record.origin_left)
                        if k == 0
                        else EventId(char_id.agent, char_id.seq - 1)
                    ),
                    origin_right=_origin_id(record.origin_right),
                    content=content,
                    deleted=record.ever_deleted,
                )
                items.append(item)
                if not item.deleted:
                    text_parts.append(content)
        self.items = items
        self.by_id = {EventId(i.agent, i.seq): i for i in items}
        self.text = "".join(text_parts)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def item_count(self) -> int:
        return len(self.items)

    def tombstone_count(self) -> int:
        return sum(1 for item in self.items if item.deleted)

    # ------------------------------------------------------------------
    # Persistence (the CRDT file format + the timed load of Figure 8)
    # ------------------------------------------------------------------
    def save(self) -> bytes:
        """Serialise the full CRDT state (including tombstones)."""
        writer = ByteWriter()
        writer.write_bytes(_MAGIC)
        agents: list[str] = []
        agent_index: dict[str, int] = {}
        for item in self.items:
            if item.agent not in agent_index:
                agent_index[item.agent] = len(agents)
                agents.append(item.agent)
        writer.write_uvarint(len(agents))
        for agent in agents:
            writer.write_string(agent)
        writer.write_uvarint(len(self.items))
        for item in self.items:
            writer.write_uvarint(agent_index[item.agent])
            writer.write_uvarint(item.seq)
            _write_origin(writer, agent_index, item.origin_left)
            _write_origin(writer, agent_index, item.origin_right)
            writer.write_uvarint(1 if item.deleted else 0)
            writer.write_string(item.content)
        return writer.getvalue()

    @classmethod
    def load(cls, data: bytes) -> "RefCRDTDocument":
        """Rebuild the document (items, id index and text) from disk bytes.

        This is the operation the CRDT rows of Figure 8 label "load": the full
        per-character structure must be reconstructed before the document can
        be edited.
        """
        reader = ByteReader(data)
        if reader.read_bytes(4) != _MAGIC:
            raise ValueError("not a reference-CRDT document file")
        agent_count = reader.read_uvarint()
        agents = [reader.read_string() for _ in range(agent_count)]
        count = reader.read_uvarint()
        doc = cls()
        items: list[_StoredItem] = []
        text_parts: list[str] = []
        for _ in range(count):
            agent = agents[reader.read_uvarint()]
            seq = reader.read_uvarint()
            origin_left = _read_origin(reader, agents)
            origin_right = _read_origin(reader, agents)
            deleted = bool(reader.read_uvarint())
            content = reader.read_string()
            item = _StoredItem(
                agent=agent,
                seq=seq,
                origin_left=origin_left,
                origin_right=origin_right,
                content=content,
                deleted=deleted,
            )
            items.append(item)
            if not deleted:
                text_parts.append(content)
        doc.items = items
        doc.by_id = {EventId(i.agent, i.seq): i for i in items}
        doc.text = "".join(text_parts)
        return doc


def _origin_id(ref: OriginRef) -> EventId | None:
    if ref is None:
        return None
    if isinstance(ref, EventId):
        return ref
    raise TypeError("unexpected placeholder origin in a full replay")


def _write_origin(writer: ByteWriter, agent_index: dict[str, int], origin: EventId | None) -> None:
    if origin is None:
        writer.write_uvarint(0)
        return
    writer.write_uvarint(1)
    writer.write_uvarint(agent_index.setdefault(origin.agent, len(agent_index)))
    writer.write_uvarint(origin.seq)


def _read_origin(reader: ByteReader, agents: list[str]) -> EventId | None:
    if not reader.read_uvarint():
        return None
    agent = agents[reader.read_uvarint()]
    seq = reader.read_uvarint()
    return EventId(agent, seq)
