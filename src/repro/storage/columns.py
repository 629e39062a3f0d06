"""The column layouts of the event-graph file (paper §3.8).

``docs/SPEC.md`` is the byte-level reference.  In short: the graph is
run-length encoded (one event per run of consecutive insertions or deletions),
so a file holds **one row per run** — O(runs), not O(chars); ``ops`` keeps
kinds, positions and lengths in three sub-streams, with positions *relative
to where the previous op left the cursor* (typing on encodes as 0) so that
deflate sees same-typed, mostly-zero values together; ``content`` is the
inserted text; ``parents`` lists only the exceptions to "parent = previous
event"; ``agents`` + ``ids`` store event ids as runs of ``(agent, first_seq,
char_count)`` spanning consecutive events.

Every integer column goes through the whole-column kernels
(:func:`~repro.storage.varint.pack_uvarints` / ``unpack_uvarints``): the
encoders take the graph's columns (:meth:`EventGraph.to_columns`), the
decoders hand back plain integer lists.  A decoder raises ``ValueError`` on a
payload it cannot have written; the container reports it as
``StorageError("column-decode")``.

Run boundaries are a local encoding detail, and the format is carving-neutral
by construction: a run split in two costs one extra row in the ops sub-streams
and nothing elsewhere — the right half hits the default parent rule and its
ids re-coalesce with the left half's.  Decoding reproduces the writer's
carving exactly; merging the decoded graph into a replica that carved the
same history differently is :meth:`EventGraph.merge_from`'s job (pruned files
excluded — their blanked characters no longer content-verify).
"""

from __future__ import annotations

from itertools import islice
from typing import Sequence

from ..core.event_graph import EventGraph
from ..core.ids import EventId, Operation, OpKind, delete_op, insert_op
from .varint import ByteReader, ByteWriter, pack_uvarints, unpack_uvarints

__all__ = [
    "PRUNED_CHAR",
    "build_graph",
    "check_snapshot_length",
    "decode_id_columns",
    "decode_ops_column",
    "decode_parents_column",
    "encode_content_column",
    "encode_id_columns",
    "encode_ops_column",
    "encode_parents_column",
]

#: Character substituted for deleted characters when decoding a pruned file.
PRUNED_CHAR = "\x00"

_INSERT = int(OpKind.INSERT)
_DELETE = int(OpKind.DELETE)
_KIND_BYTES = bytes((_INSERT, _DELETE))


# ----------------------------------------------------------------------
# ops
# ----------------------------------------------------------------------
def encode_ops_column(ops: Sequence[Operation]) -> bytes:
    kinds = bytearray()
    moves: list[int] = []
    lengths: list[int] = []
    cursor = 0
    insert = OpKind.INSERT
    for op in ops:
        pos, length = op.pos, op.length
        move = pos - cursor  # zig-zag inline: this loop is the save's hot spot
        moves.append(move << 1 if move >= 0 else (-move << 1) - 1)
        lengths.append(length)
        if op.kind is insert:
            kinds.append(_INSERT)
            cursor = pos + length
        else:
            kinds.append(_DELETE)
            cursor = pos
    writer = ByteWriter()
    for stream in (bytes(kinds), pack_uvarints(moves), pack_uvarints(lengths)):
        writer.write_length_prefixed(stream)
    return writer.getvalue()


def decode_ops_column(
    data: bytes, num_events: int
) -> tuple[bytes, list[int], list[int]]:
    """``(kinds, positions, lengths)``, one entry per event; positions are
    absolute again."""
    reader = ByteReader(data)
    kinds = reader.read_length_prefixed()
    moves = unpack_uvarints(reader.read_length_prefixed(), num_events)
    lengths = unpack_uvarints(reader.read_length_prefixed(), num_events)
    if not reader.at_end():
        raise ValueError("ops column has trailing bytes")
    if len(kinds) != num_events:
        raise ValueError(f"ops column holds {len(kinds)} kinds for {num_events} events")
    if kinds.translate(None, _KIND_BYTES):
        raise ValueError("ops column holds an unknown operation kind")
    positions: list[int] = []
    cursor = 0
    for kind, move, length in zip(kinds, moves, lengths):
        pos = cursor + ((move >> 1) ^ -(move & 1))
        if pos < 0:
            raise ValueError("ops column moves the cursor before the document start")
        positions.append(pos)
        cursor = pos + length if kind == _INSERT else pos
    return kinds, positions, lengths


# ----------------------------------------------------------------------
# content (and its pruned mode)
# ----------------------------------------------------------------------
def encode_content_column(
    graph: EventGraph, ops: Sequence[Operation], prune_deleted: bool
) -> bytes:
    if not prune_deleted:
        return "".join([op.content for op in ops]).encode("utf-8")
    survived = _surviving_insertions(graph)
    return "".join(
        "".join(c for c, keep in zip(ops[index].content, mask) if keep)  # lint: disable=per-char-hot-path -- Pruned mode computes a per-character survival mask; the output is O(surviving chars) by definition, and encode runs once per snapshot, off the merge hot path.
        for index, mask in survived.items()
    ).encode("utf-8")


def _surviving_insertions(graph: EventGraph) -> dict[int, list[bool]]:
    """Per-character survival masks for every insertion event, by index.

    ``mask[k]`` is True iff the ``k``-th character of the run was never
    deleted.  Deleted characters are found by replaying the graph once with
    the walker's conversion machinery (cheap relative to encoding, and exact).
    """
    from ..crdt.converter import event_graph_to_crdt_ops
    from ..crdt.list_crdt import CrdtDeleteOp

    deleted_ids: set[EventId] = set()
    for op in event_graph_to_crdt_ops(graph):
        if isinstance(op, CrdtDeleteOp):
            deleted_ids.add(op.target)
    survived: dict[int, list[bool]] = {}
    for event in graph.events():
        if event.op.is_insert:
            survived[event.index] = [
                event.id_at(k) not in deleted_ids for k in range(event.op.length)  # lint: disable=per-char-hot-path -- Pruned mode tests each character id against the deleted set to build the survival mask; inherently per-char, runs once per encode, off the merge hot path.
            ]
    return survived


def _fill_pruned_content(graph: EventGraph, surviving_content: str) -> None:
    """Assign surviving characters to the insertions that were never deleted."""
    survived = _surviving_insertions(graph)
    content_iter = iter(surviving_content)
    for event in graph.events():
        if not event.op.is_insert:
            continue
        mask = survived.get(event.index, [])
        chars = [
            next(content_iter, PRUNED_CHAR) if keep else PRUNED_CHAR for keep in mask
        ]
        object.__setattr__(event.op, "content", "".join(chars))  # lint: disable=frozen-dataclass-mutation -- Pruned decode back-fills surviving characters into ops after construction; the graph is private to the decoder at that point, no holder can observe the mutation.


# ----------------------------------------------------------------------
# parents
# ----------------------------------------------------------------------
def encode_parents_column(parents: Sequence[tuple[int, ...]]) -> bytes:
    values = [0]
    previous = 0
    for index, refs in enumerate(parents):
        # Split right-halves (parents = the left half directly before them)
        # land on this default, so ingest-time splits cost no parent bytes.
        if refs == (index - 1,) or (index == 0 and not refs):
            continue
        values[0] += 1
        values.append(index - previous)
        previous = index
        values.append(len(refs))
        # Back-references (always smaller than the event's own index) keep
        # the numbers tiny for short-lived branches.
        values.extend([index - parent for parent in refs])
    return pack_uvarints(values)


def decode_parents_column(
    data: bytes, num_events: int
) -> tuple[list[tuple[int, ...]], int]:
    """Per-event parent indices, plus the column's exception count (0 ⇔ the
    history is linear)."""
    parents: list[tuple[int, ...]] = [(index - 1,) for index in range(num_events)]
    if parents:
        parents[0] = ()
    values = iter(unpack_uvarints(data))
    try:
        exception_count = next(values)
        index = 0
        for _ in range(exception_count):
            index += next(values)
            if index >= num_events:
                raise ValueError(f"parents column names event {index} of {num_events}")
            count = next(values)
            refs = [index - back for back in islice(values, count)]
            if len(refs) != count:
                raise ValueError("parents column cut short")
            parents[index] = tuple(sorted(refs))
    except StopIteration:
        raise ValueError("parents column cut short") from None
    if next(values, None) is not None:
        raise ValueError("parents column has trailing values")
    return parents, exception_count


# ----------------------------------------------------------------------
# agents + ids
# ----------------------------------------------------------------------
def encode_id_columns(
    ids: Sequence[EventId], ops: Sequence[Operation]
) -> tuple[bytes, bytes]:
    """The agent name table (first-appearance order) and the
    ``(agent_index, first_seq, char_count)`` runs."""
    agent_index: dict[str, int] = {}
    runs: list[int] = [0]
    run_agent: str | None = None
    run_end = -1
    for (agent, seq), op in zip(ids, ops):
        if agent == run_agent and seq == run_end:
            runs[-1] += op.length
        else:
            runs[0] += 1
            runs += (agent_index.setdefault(agent, len(agent_index)), seq, op.length)
            run_agent = agent
        run_end = seq + op.length
    agents = ByteWriter()
    agents.write_uvarint(len(agent_index))
    for agent in agent_index:
        agents.write_string(agent)
    return agents.getvalue(), pack_uvarints(runs)


def decode_id_columns(
    agents_payload: bytes, ids_payload: bytes, lengths: Sequence[int]
) -> list[EventId]:
    """Slice the id runs back into per-event start ids using event lengths."""
    reader = ByteReader(agents_payload)
    agents = [reader.read_string() for _ in range(reader.read_uvarint())]
    if not reader.at_end():
        raise ValueError("agents column has trailing bytes")

    runs = unpack_uvarints(ids_payload)
    if not runs or len(runs) != 1 + 3 * runs[0]:
        raise ValueError("ids column does not hold the runs it declares")
    ids: list[EventId] = []
    event = 0
    num_events = len(lengths)
    for at in range(1, len(runs), 3):
        agent_idx, seq, remaining = runs[at : at + 3]
        if agent_idx >= len(agents):
            raise ValueError("ids column references an unknown agent")
        agent = agents[agent_idx]
        while remaining > 0:
            if event >= num_events:
                raise ValueError("ids column does not match event count")
            length = lengths[event]
            if length > remaining:
                raise ValueError("id run does not align with event boundaries")
            ids.append(EventId(agent, seq))
            seq += length
            remaining -= length
            event += 1
    if event != num_events:
        raise ValueError("ids column does not match event count")
    return ids


# ----------------------------------------------------------------------
# columns -> graph
# ----------------------------------------------------------------------
def build_graph(
    ops: tuple[bytes, list[int], list[int]],
    parents: list[tuple[int, ...]],
    ids: list[EventId],
    content: str,
    pruned: bool,
) -> EventGraph:
    """Materialise decoded columns as an event graph, in bulk
    (:meth:`EventGraph.from_columns`, which keeps ``add_event``'s checks)."""
    operations: list[Operation] = []
    content_pos = 0
    kinds, positions, lengths = ops
    for kind, pos, length in zip(kinds, positions, lengths):
        if kind != _INSERT:
            operations.append(delete_op(pos, length))
        elif pruned:
            # Which characters were deleted is only known after a replay, so
            # every character decodes as the sentinel and the surviving ones
            # are filled in afterwards.
            operations.append(insert_op(pos, PRUNED_CHAR * length))
        else:
            end = content_pos + length
            operations.append(insert_op(pos, content[content_pos:end]))
            content_pos = end
    if not pruned and content_pos != len(content):
        raise ValueError(
            f"content column has {len(content)} chars, events consume {content_pos}"
        )
    graph = EventGraph.from_columns(ids, parents, operations)
    if pruned:
        _fill_pruned_content(graph, content)
    return graph


def check_snapshot_length(
    snapshot: str | None, kinds: bytes, lengths: Sequence[int], *, linear: bool
) -> None:
    """Refuse a snapshot the ops column cannot have produced.

    A loaded document *adopts* the snapshot as its text, so a file written
    with a stale ``final_text`` would diverge silently.  The final text holds
    every inserted character not deleted since: at most ``inserted`` of them,
    at least ``inserted - deleted`` (two branches may delete the same
    character), and exactly that many in a linear history.
    """
    if snapshot is None:
        return
    inserted = sum([length for kind, length in zip(kinds, lengths) if kind == _INSERT])
    deleted = sum(lengths) - inserted
    low = inserted - deleted
    high = low if linear else inserted
    if not low <= len(snapshot) <= high:
        raise ValueError(
            f"snapshot column has {len(snapshot)} chars; the ops column allows {low}..{high}"
        )
