"""Columnar event-graph file format (paper §3.8).

The event graph is stored in column-oriented form, exploiting how people type:
the graph itself is run-length encoded (one event per run of consecutive
insertions or deletions, see :mod:`repro.core.event_graph`), so the file
stores **one row per run** — O(runs), not O(chars) — parents are implicit for
the (overwhelmingly common) case of a linear history, and event ids compress
to runs of ``(agent, first_seq, char_count)`` spanning consecutive events.

Columns (each length-prefixed in the file, after a small header):

``ops``
    One ``(kind, start_position, length)`` row per run event.
``content``
    The UTF-8 concatenation of all inserted characters, in event order
    (optionally LZ-compressed, and optionally restricted to characters that
    were never deleted — the "pruned" mode of Figure 12).
``parents``
    Exceptions to the default "parent = previous event" rule, as
    ``(event_index, parent_count, parent_back_references...)``.
``agents`` / ``ids``
    The agent name table and runs of character ids; one id run can span many
    consecutive events by the same agent (the decoder slices it back into
    per-event start ids using the ops column's lengths).
``snapshot`` (optional)
    A cached copy of the final document text so documents can be loaded
    without replaying the graph (§3.8, "Replicas can optionally also store a
    copy of the final document state").

The decoder reconstructs an :class:`~repro.core.event_graph.EventGraph` (full
mode) or the graph structure with deleted characters blanked out (pruned
mode), and the cached snapshot when present.

Run boundaries are a local encoding detail (split-on-ingest interop), and the
format is carving-neutral by construction: a run split in two costs one extra
``ops`` row but nothing elsewhere — the right half sits directly after the
left half, so it hits the default "parent = previous event" rule and its ids
re-coalesce with the left half's in the ids column.  Decoding reproduces the
writer's carving exactly; merging the decoded graph into a replica that
carved the same history differently is handled by
:meth:`~repro.core.event_graph.EventGraph.merge_from` (pruned files excluded
— their blanked characters no longer content-verify against a full copy).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.event_graph import EventGraph
from ..core.ids import EventId, Operation, OpKind, delete_op, insert_op
from . import compression
from .varint import ByteReader, ByteWriter

__all__ = ["EncodeOptions", "DecodedFile", "encode_event_graph", "decode_event_graph"]

_MAGIC = b"EGWK"
#: Version 2: run-length encoded rows (one per run event).  Version 1 stored
#: one row per character and is no longer produced or accepted.
_FORMAT_VERSION = 2

_FLAG_COMPRESS_CONTENT = 1
_FLAG_PRUNED = 2
_FLAG_SNAPSHOT = 4

#: Character substituted for deleted characters when decoding a pruned file.
PRUNED_CHAR = "\x00"


@dataclass(frozen=True, slots=True)
class EncodeOptions:
    """Options controlling the on-disk representation.

    Attributes:
        compress_content: LZ-compress the inserted-text column (the paper's
            LZ4 option; disabled by default to mirror the like-for-like file
            size comparison of §4.5).
        prune_deleted_content: omit the text of characters that were deleted
            (what Yjs does); the graph structure is kept, so merging still
            works, but old versions can no longer be reconstructed verbatim.
        include_snapshot: store the final document text so loading does not
            require a replay.
        final_text: the final document text (required when
            ``include_snapshot`` is set, and used to decide which characters
            survive in pruned mode when provided).
    """

    compress_content: bool = False
    prune_deleted_content: bool = False
    include_snapshot: bool = False
    final_text: str | None = None


@dataclass(slots=True)
class DecodedFile:
    """Result of :func:`decode_event_graph`."""

    graph: EventGraph
    snapshot: str | None
    pruned: bool


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def encode_event_graph(graph: EventGraph, options: EncodeOptions | None = None) -> bytes:
    """Serialise ``graph`` into the columnar format described above."""
    options = options or EncodeOptions()
    if options.include_snapshot and options.final_text is None:
        raise ValueError("include_snapshot requires final_text")

    ops_col = _encode_ops_column(graph)
    content_col = _encode_content_column(graph, options)
    parents_col = _encode_parents_column(graph)
    ids_col = _encode_ids_column(graph)
    snapshot_col = b""
    if options.include_snapshot:
        snapshot_col = (options.final_text or "").encode("utf-8")

    flags = 0
    if options.compress_content:
        flags |= _FLAG_COMPRESS_CONTENT
    if options.prune_deleted_content:
        flags |= _FLAG_PRUNED
    if options.include_snapshot:
        flags |= _FLAG_SNAPSHOT

    writer = ByteWriter()
    writer.write_bytes(_MAGIC)
    writer.write_uvarint(_FORMAT_VERSION)
    writer.write_uvarint(flags)
    writer.write_uvarint(len(graph))
    for column in (ops_col, content_col, parents_col, ids_col, snapshot_col):
        writer.write_length_prefixed(column)
    return writer.getvalue()


def _encode_ops_column(graph: EventGraph) -> bytes:
    """One (kind, start_pos, length) row per run event — O(runs) rows."""
    writer = ByteWriter()
    for event in graph.events():
        op = event.op
        writer.write_uvarint(int(op.kind))
        writer.write_svarint(op.pos)
        writer.write_uvarint(op.length)
    return writer.getvalue()


def _encode_content_column(graph: EventGraph, options: EncodeOptions) -> bytes:
    survived: dict[int, list[bool]] | None = None
    if options.prune_deleted_content:
        survived = _surviving_insertions(graph)
    parts: list[str] = []
    for event in graph.events():
        if not event.op.is_insert:
            continue
        if survived is None:
            parts.append(event.op.content)
            continue
        mask = survived.get(event.index)
        if mask is None:
            continue
        parts.append("".join(c for c, keep in zip(event.op.content, mask) if keep))
    raw = "".join(parts).encode("utf-8")
    if options.compress_content:
        raw = compression.compress(raw)
    return raw


def _surviving_insertions(graph: EventGraph) -> dict[int, list[bool]]:
    """Per-character survival masks for every insertion event.

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
                event.id_at(k) not in deleted_ids for k in range(event.op.length)
            ]
    return survived


def _encode_parents_column(graph: EventGraph) -> bytes:
    writer = ByteWriter()
    exceptions: list[tuple[int, tuple[int, ...]]] = []
    for event in graph.events():
        # Split right-halves (parents = the left half directly before them)
        # land on this default, so ingest-time splits cost no parent bytes.
        default = (event.index - 1,) if event.index > 0 else ()
        if event.parents != default:
            exceptions.append((event.index, event.parents))
    writer.write_uvarint(len(exceptions))
    prev_index = 0
    for index, parents in exceptions:
        writer.write_uvarint(index - prev_index)
        prev_index = index
        writer.write_uvarint(len(parents))
        for parent in parents:
            # Parents are encoded as back-references (always smaller than the
            # event's own index), which keeps the numbers tiny for short-lived
            # branches.
            writer.write_uvarint(index - parent)
    return writer.getvalue()


def _encode_ids_column(graph: EventGraph) -> bytes:
    """Runs of (agent, first_seq, char_count), possibly spanning many events."""
    writer = ByteWriter()
    runs: list[tuple[str, int, int]] = []
    for event in graph.events():
        agent, seq = event.id
        length = event.op.length
        if runs and runs[-1][0] == agent and runs[-1][1] + runs[-1][2] == seq:
            runs[-1] = (agent, runs[-1][1], runs[-1][2] + length)
        else:
            runs.append((agent, seq, length))
    agents: list[str] = []
    agent_index: dict[str, int] = {}
    for agent, _, _ in runs:
        if agent not in agent_index:
            agent_index[agent] = len(agents)
            agents.append(agent)
    writer.write_uvarint(len(agents))
    for agent in agents:
        writer.write_string(agent)
    writer.write_uvarint(len(runs))
    for agent, start_seq, count in runs:
        writer.write_uvarint(agent_index[agent])
        writer.write_uvarint(start_seq)
        writer.write_uvarint(count)
    return writer.getvalue()


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def decode_event_graph(data: bytes) -> DecodedFile:
    """Parse a file produced by :func:`encode_event_graph`."""
    reader = ByteReader(data)
    if reader.read_bytes(4) != _MAGIC:
        raise ValueError("not an Eg-walker event graph file")
    version = reader.read_uvarint()
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version}")
    flags = reader.read_uvarint()
    num_events = reader.read_uvarint()
    ops_col = reader.read_length_prefixed()
    content_col = reader.read_length_prefixed()
    parents_col = reader.read_length_prefixed()
    ids_col = reader.read_length_prefixed()
    snapshot_col = reader.read_length_prefixed()

    pruned = bool(flags & _FLAG_PRUNED)
    if flags & _FLAG_COMPRESS_CONTENT:
        content_col = compression.decompress(content_col)

    ops = _decode_ops_column(ops_col, num_events)
    parents, exceptions = _decode_parents_column(parents_col, num_events)
    ids = _decode_ids_column(ids_col, [length for _, _, length in ops])
    snapshot = snapshot_col.decode("utf-8") if flags & _FLAG_SNAPSHOT else None
    _check_snapshot_length(snapshot, ops, linear=exceptions == 0)
    graph = _build_graph(ops, parents, ids, content_col.decode("utf-8"), pruned)
    return DecodedFile(graph=graph, snapshot=snapshot, pruned=pruned)


def _build_graph(
    ops: list[tuple[OpKind, int, int]],
    parents: list[tuple[int, ...]],
    ids: list[EventId],
    content: str,
    pruned: bool,
) -> EventGraph:
    """Materialise decoded columns as an event graph, in bulk
    (:meth:`EventGraph.from_columns`, which keeps ``add_event``'s checks).

    Raises ``ValueError`` when the columns are inconsistent; the v3 reader
    reports it as ``StorageError("column-decode")``.
    """
    operations: list[Operation] = []
    content_pos = 0
    for kind, pos, length in ops:
        if kind is OpKind.INSERT:
            if pruned:
                # Which characters were deleted is only known after a replay,
                # so every character decodes as the sentinel and the
                # surviving ones are filled in afterwards.
                text = PRUNED_CHAR * length
            else:
                text = content[content_pos : content_pos + length]
                content_pos += length
            operations.append(insert_op(pos, text))
        else:
            operations.append(delete_op(pos, length))
    if not pruned and content_pos != len(content):
        raise ValueError(
            f"content column has {len(content)} chars, events consume {content_pos}"
        )
    graph = EventGraph.from_columns(ids, parents, operations)
    if pruned:
        _fill_pruned_content(graph, content)
    return graph


def _check_snapshot_length(
    snapshot: str | None, ops: list[tuple[OpKind, int, int]], *, linear: bool
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
    inserted = sum(length for kind, _, length in ops if kind is OpKind.INSERT)
    deleted = sum(length for kind, _, length in ops if kind is OpKind.DELETE)
    low = inserted - deleted
    high = low if linear else inserted
    if not low <= len(snapshot) <= high:
        raise ValueError(
            f"snapshot column has {len(snapshot)} chars; the ops column allows {low}..{high}"
        )


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
        object.__setattr__(event.op, "content", "".join(chars))


def _decode_ops_column(data: bytes, num_events: int) -> list[tuple[OpKind, int, int]]:
    reader = ByteReader(data)
    ops: list[tuple[OpKind, int, int]] = []
    for _ in range(num_events):
        kind = OpKind(reader.read_uvarint())
        pos = reader.read_svarint()
        length = reader.read_uvarint()
        ops.append((kind, pos, length))
    return ops


def _decode_parents_column(
    data: bytes, num_events: int
) -> tuple[list[tuple[int, ...]], int]:
    """Per-event parent indices, plus the column's exception count (0 ⇔ the
    history is linear)."""
    reader = ByteReader(data)
    parents: list[tuple[int, ...]] = [
        (index - 1,) if index > 0 else () for index in range(num_events)
    ]
    exception_count = reader.read_uvarint()
    index = 0
    for _ in range(exception_count):
        index += reader.read_uvarint()
        if index >= num_events:
            raise ValueError(f"parents column names event {index} of {num_events}")
        count = reader.read_uvarint()
        refs = tuple(sorted(index - reader.read_uvarint() for __ in range(count)))
        parents[index] = refs
    return parents, exception_count


def _decode_ids_column(data: bytes, lengths: list[int]) -> list[EventId]:
    """Slice the id runs back into per-event start ids using event lengths."""
    reader = ByteReader(data)
    agent_count = reader.read_uvarint()
    agents = [reader.read_string() for _ in range(agent_count)]
    run_count = reader.read_uvarint()
    ids: list[EventId] = []
    event = 0
    for _ in range(run_count):
        agent = agents[reader.read_uvarint()]
        seq = reader.read_uvarint()
        remaining = reader.read_uvarint()
        while remaining > 0:
            if event >= len(lengths):
                raise ValueError("ids column does not match event count")
            length = lengths[event]
            if length > remaining:
                raise ValueError("id run does not align with event boundaries")
            ids.append(EventId(agent, seq))
            seq += length
            remaining -= length
            event += 1
    if event != len(lengths):
        raise ValueError("ids column does not match event count")
    return ids
