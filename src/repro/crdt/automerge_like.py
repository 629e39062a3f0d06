"""An Automerge-like CRDT baseline.

Automerge keeps the *full operation history* of a document: every operation —
including deletions and the content of deleted characters — is stored in the
document file together with its actor, counter and causal dependencies, and
loading a document means replaying that history to rebuild the CRDT state.
This module reproduces those characteristics on top of the reference CRDT
engine:

* ``merge_event_graph`` behaves like the reference CRDT (full per-character
  state, no critical-version optimisations),
* ``save`` serialises the complete operation history (per-operation actor /
  counter / kind / position / dependency columns plus all inserted text,
  whether or not it was later deleted) — the format whose size Figure 11
  compares against the Eg-walker event-graph encoding, and
* ``load`` parses that history and replays it, which is why loading costs as
  much as merging for Automerge in Figure 8.

It is a stand-in, not a byte-compatible reimplementation of the Automerge
columnar format; the figures compare it through :mod:`repro.bench.adapters`
(the README's Benchmarks section says how to run them).
"""

from __future__ import annotations

from ..core.event_graph import EventGraph, expand_to_chars
from ..core.ids import EventId, OpKind, delete_op, insert_op
from ..storage.varint import ByteReader, ByteWriter
from .ref_crdt import RefCRDTDocument

__all__ = ["AutomergeLikeDocument"]

_MAGIC = b"AMLK"


class AutomergeLikeDocument(RefCRDTDocument):
    """Full-history CRDT document in the style of Automerge."""

    def __init__(self) -> None:
        super().__init__()
        self.source_graph: EventGraph | None = None

    def merge_event_graph(self, graph: EventGraph) -> str:
        self.source_graph = graph
        return super().merge_event_graph(graph)

    # ------------------------------------------------------------------
    # Persistence: the full operation history
    # ------------------------------------------------------------------
    def save(self) -> bytes:
        if self.source_graph is None:
            raise RuntimeError("nothing to save: merge an event graph first")
        # Automerge stores one row per *operation* — per character — so the
        # run-event graph is expanded to the per-character oracle form first
        # (runs are only formed over the actor column, matching the real
        # format's cost profile that Figure 11 measures).
        graph = expand_to_chars(self.source_graph)
        writer = ByteWriter()
        writer.write_bytes(_MAGIC)

        # Actor table.
        actors: list[str] = []
        actor_index: dict[str, int] = {}
        for event in graph.events():
            if event.id.agent not in actor_index:
                actor_index[event.id.agent] = len(actors)
                actors.append(event.id.agent)
        writer.write_uvarint(len(actors))
        for actor in actors:
            writer.write_string(actor)

        # Per-operation columns.  Automerge stores one row per operation with
        # actor, counter, action, position reference, a lamport timestamp and
        # the value; runs are only formed over the actor column.
        writer.write_uvarint(len(graph))
        content_parts: list[str] = []
        for event in graph.events():
            writer.write_uvarint(actor_index[event.id.agent])
            writer.write_uvarint(event.id.seq)
            writer.write_uvarint(int(event.op.kind))
            writer.write_svarint(event.op.pos)
            writer.write_uvarint(event.index)  # lamport-style op counter
            writer.write_uvarint(len(event.parents))
            for parent in event.parents:
                writer.write_uvarint(event.index - parent)
            if event.op.is_insert:
                content_parts.append(event.op.content)
        writer.write_string("".join(content_parts))
        return writer.getvalue()

    @classmethod
    def load(cls, data: bytes) -> "AutomergeLikeDocument":
        """Parse the stored history and replay it to rebuild the document."""
        graph = cls.decode_history(data)
        doc = cls()
        doc.merge_event_graph(graph)
        return doc

    @staticmethod
    def decode_history(data: bytes) -> EventGraph:
        reader = ByteReader(data)
        if reader.read_bytes(4) != _MAGIC:
            raise ValueError("not an Automerge-like document file")
        actor_count = reader.read_uvarint()
        actors = [reader.read_string() for _ in range(actor_count)]
        count = reader.read_uvarint()
        rows: list[tuple[EventId, OpKind, int, tuple[int, ...]]] = []
        for index in range(count):
            actor = actors[reader.read_uvarint()]
            seq = reader.read_uvarint()
            kind = OpKind(reader.read_uvarint())
            pos = reader.read_svarint()
            reader.read_uvarint()  # lamport counter (redundant with the index)
            parent_count = reader.read_uvarint()
            parents = tuple(
                sorted(index - reader.read_uvarint() for _ in range(parent_count))
            )
            rows.append((EventId(actor, seq), kind, pos, parents))
        content = reader.read_string()
        graph = EventGraph()
        content_iter = iter(content)
        for event_id, kind, pos, parents in rows:
            if kind is OpKind.INSERT:
                op = insert_op(pos, next(content_iter))
            else:
                op = delete_op(pos)
            graph.add_event(event_id, parents, op, parents_are_indices=True)
        return graph
