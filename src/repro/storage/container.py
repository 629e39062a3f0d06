"""Storage format v3: a columnar container with selective column reads.

Version 2 (:mod:`repro.storage.encoder`) already stores the event graph in
column-oriented form, but the columns are length-prefixed and *interleaved* in
one stream: a reader must walk past every earlier column to reach a later one,
so a cold load pays for the whole file before the first byte of text renders.

Version 3 re-layouts the same columns as a **random-access container**::

    +------+---------+-------+------------+-------------+
    | EGW3 | version | flags | num_events | num_columns |
    +------+---------+-------+------------+-------------+
    | column table: one entry per column                |
    |   (id, col_flags, offset, stored_len, raw_len,    |
    |    crc32 of the stored bytes)                     |
    +---------------------------------------------------+
    | header crc32 (over everything above)              |
    +---------------------------------------------------+
    | column blocks, contiguous, in table order         |
    +---------------------------------------------------+

Each column block is independently compressed (the repo's LZ77, stored raw
when compression does not help) and CRC-framed, so a reader can

* **selectively read** just the columns it needs — :func:`decode_text`
  reconstructs the current document text from the snapshot column (or, for
  linear histories, from the ops+content columns via span replay) without
  materialising a single :class:`~repro.core.event_graph.EventGraph` event;
* **lazily hydrate** the rest — :class:`LazyDecodedFile` parses the header up
  front and decodes the history columns (parents, agents, ids) only on first
  :attr:`~LazyDecodedFile.graph` / :attr:`~LazyDecodedFile.history` access,
  with byte-read accounting (:class:`ReadStats`) so tests can assert exactly
  which blocks were touched;
* **fail loudly** — every malformed input raises :class:`StorageError` with a
  stable :attr:`~StorageError.code`; a flipped bit is caught by the header or
  column CRC, never silently decoded into a wrong graph.

Unknown column ids are skipped (the header CRC still covers their table
entries), which keeps the format extensible: a future writer can add, say, a
formatting-spans column without breaking old readers.

Version 2 files remain readable through :func:`decode_file`, which sniffs the
magic and dispatches; v2 is now a read-only legacy format.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from ..core.event_graph import EventGraph
from ..core.ids import EventId, OpKind
from ..core.walker import EgWalker
from . import compression
from .encoder import (
    DecodedFile,
    EncodeOptions,
    _build_graph,
    _check_snapshot_length,
    _decode_ops_column,
    _decode_parents_column,
    _encode_content_column,
    _encode_ops_column,
    _encode_parents_column,
    decode_event_graph,
)
from .varint import ByteReader, ByteWriter

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..core.document import Document
    from ..history.history import History

__all__ = [
    "MAGIC_V2",
    "MAGIC_V3",
    "COLUMN_NAMES",
    "ContainerOptions",
    "ColumnInfo",
    "ContainerHeader",
    "LazyDecodedFile",
    "ReadStats",
    "StorageError",
    "decode_event_graph_v3",
    "decode_file",
    "decode_text",
    "encode_event_graph_v3",
    "parse_header",
]

MAGIC_V2 = b"EGWK"
MAGIC_V3 = b"EGW3"
_FORMAT_VERSION = 3

#: File-level flags (column-level concerns like compression live per column).
_FLAG_PRUNED = 1

#: Column ids.  v3 splits v2's combined agents+ids column in two so a reader
#: resolving only *who edited* never pays for the id runs (and vice versa).
COL_OPS = 1
COL_CONTENT = 2
COL_PARENTS = 3
COL_AGENTS = 4
COL_IDS = 5
COL_SNAPSHOT = 6

COLUMN_NAMES: Mapping[int, str] = {
    COL_OPS: "ops",
    COL_CONTENT: "content",
    COL_PARENTS: "parents",
    COL_AGENTS: "agents",
    COL_IDS: "ids",
    COL_SNAPSHOT: "snapshot",
}

#: Column-level flags.
_COL_FLAG_COMPRESSED = 1

#: Columns every v3 file must carry (snapshot is optional).
_REQUIRED_COLUMNS = (COL_OPS, COL_CONTENT, COL_PARENTS, COL_AGENTS, COL_IDS)

#: Columns :func:`decode_text` may touch on the no-snapshot path.  ``parents``
#: is included only to *check* linearity (for a linear history the column is a
#: single zero byte); the history columns proper (agents, ids) are never read.
TEXT_COLUMNS = (COL_SNAPSHOT, COL_OPS, COL_CONTENT, COL_PARENTS)


class StorageError(ValueError):
    """A malformed storage file, with a stable machine-readable ``code``.

    Codes:

    ``bad-magic``             not an event-graph file at all
    ``unsupported-version``   a version this reader does not speak
    ``truncated-header``      header/column table cut short
    ``header-crc-mismatch``   header or column table corrupted
    ``duplicate-column``      the same column id appears twice
    ``stale-column-offset``   table offsets are not contiguous / out of range
    ``truncated-column``      column blocks cut short
    ``trailing-data``         bytes after the last column block
    ``column-crc-mismatch``   a column block corrupted
    ``column-decode``         a column's payload failed to parse
    ``missing-column``        a required column is absent
    ``text-requires-graph``   selective text read impossible for this file
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code


@dataclass(frozen=True, slots=True)
class ContainerOptions:
    """Options controlling the v3 on-disk representation.

    Attributes:
        compress_columns: LZ-compress each column independently, storing the
            raw bytes whenever compression does not shrink them.  On by
            default — same-typed columns compress far better than v2's
            interleaved rows, which is where "v3 ≤ v2" comes from.
        prune_deleted_content: omit the text of deleted characters (Figure 12
            mode); the graph structure is kept, so merging still works.
        include_snapshot: store the final document text as its own column so
            text loads never replay anything.
        final_text: the final document text (required with
            ``include_snapshot``).
    """

    compress_columns: bool = True
    prune_deleted_content: bool = False
    include_snapshot: bool = False
    final_text: str | None = None


@dataclass(frozen=True, slots=True)
class ColumnInfo:
    """One column table entry."""

    column_id: int
    flags: int
    offset: int
    stored_length: int
    raw_length: int
    crc32: int

    @property
    def compressed(self) -> bool:
        return bool(self.flags & _COL_FLAG_COMPRESSED)

    @property
    def name(self) -> str:
        return COLUMN_NAMES.get(self.column_id, f"column-{self.column_id}")


@dataclass(frozen=True, slots=True)
class ContainerHeader:
    """The parsed, CRC-verified header of a v3 file."""

    flags: int
    num_events: int
    columns: tuple[ColumnInfo, ...]
    header_length: int

    @property
    def pruned(self) -> bool:
        return bool(self.flags & _FLAG_PRUNED)

    def find(self, column_id: int) -> ColumnInfo | None:
        for column in self.columns:
            if column.column_id == column_id:
                return column
        return None

    def require(self, column_id: int) -> ColumnInfo:
        column = self.find(column_id)
        if column is None:
            name = COLUMN_NAMES.get(column_id, str(column_id))
            raise StorageError("missing-column", f"required column {name!r} absent")
        return column


@dataclass(slots=True)
class ReadStats:
    """Byte-read accounting for a :class:`LazyDecodedFile`.

    ``column_reads`` counts *physical* block reads (cache hits do not count),
    so tests can assert a column was decoded exactly once.
    ``events_materialised`` counts events added to an in-memory
    :class:`EventGraph` — the cold-load benchmark gates on it staying zero.
    """

    header_bytes: int = 0
    column_bytes: dict[str, int] = field(default_factory=dict)
    column_reads: dict[str, int] = field(default_factory=dict)
    events_materialised: int = 0
    hydrations: int = 0

    @property
    def bytes_read(self) -> int:
        return self.header_bytes + sum(self.column_bytes.values())

    def record_column(self, name: str, stored_length: int) -> None:
        self.column_bytes[name] = self.column_bytes.get(name, 0) + stored_length
        self.column_reads[name] = self.column_reads.get(name, 0) + 1


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def encode_event_graph_v3(
    graph: EventGraph, options: ContainerOptions | None = None
) -> bytes:
    """Serialise ``graph`` as a v3 columnar container.

    The output is deterministic for a given graph and options (agent table in
    first-appearance order, deterministic compressor), so re-encoding a
    decoded file reproduces it byte for byte.
    """
    options = options or ContainerOptions()
    if options.include_snapshot and options.final_text is None:
        raise ValueError("include_snapshot requires final_text")

    legacy = EncodeOptions(prune_deleted_content=options.prune_deleted_content)
    agents_col, ids_col = _encode_agent_and_id_columns(graph)
    payloads: list[tuple[int, bytes]] = [
        (COL_OPS, _encode_ops_column(graph)),
        (COL_CONTENT, _encode_content_column(graph, legacy)),
        (COL_PARENTS, _encode_parents_column(graph)),
        (COL_AGENTS, agents_col),
        (COL_IDS, ids_col),
    ]
    if options.include_snapshot:
        payloads.append((COL_SNAPSHOT, (options.final_text or "").encode("utf-8")))

    flags = _FLAG_PRUNED if options.prune_deleted_content else 0

    blocks: list[tuple[int, int, bytes, int]] = []
    for column_id, raw in payloads:
        stored = raw
        col_flags = 0
        if options.compress_columns:
            packed = compression.compress(raw)
            if len(packed) < len(raw):
                stored = packed
                col_flags = _COL_FLAG_COMPRESSED
        blocks.append((column_id, col_flags, stored, len(raw)))

    header = ByteWriter()
    header.write_bytes(MAGIC_V3)
    header.write_uvarint(_FORMAT_VERSION)
    header.write_uvarint(flags)
    header.write_uvarint(len(graph))
    header.write_uvarint(len(blocks))
    offset = 0
    for column_id, col_flags, stored, raw_length in blocks:
        header.write_uvarint(column_id)
        header.write_uvarint(col_flags)
        header.write_uvarint(offset)
        header.write_uvarint(len(stored))
        header.write_uvarint(raw_length)
        header.write_bytes(zlib.crc32(stored).to_bytes(4, "big"))
        offset += len(stored)
    header_bytes = header.getvalue()

    out = ByteWriter()
    out.write_bytes(header_bytes)
    out.write_bytes(zlib.crc32(header_bytes).to_bytes(4, "big"))
    for _, _, stored, _ in blocks:
        out.write_bytes(stored)
    return out.getvalue()


def _encode_agent_and_id_columns(graph: EventGraph) -> tuple[bytes, bytes]:
    """v2's combined ids column, split in two: the agent name table and the
    ``(agent_index, first_seq, char_count)`` runs (one run can span many
    consecutive events by the same agent)."""
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

    agents_writer = ByteWriter()
    agents_writer.write_uvarint(len(agents))
    for agent in agents:
        agents_writer.write_string(agent)

    ids_writer = ByteWriter()
    ids_writer.write_uvarint(len(runs))
    for agent, start_seq, count in runs:
        ids_writer.write_uvarint(agent_index[agent])
        ids_writer.write_uvarint(start_seq)
        ids_writer.write_uvarint(count)
    return agents_writer.getvalue(), ids_writer.getvalue()


# ----------------------------------------------------------------------
# Header parsing
# ----------------------------------------------------------------------
def parse_header(data: bytes) -> ContainerHeader:
    """Parse and fully validate a v3 header + column table.

    Raises :class:`StorageError` on any malformation; after this returns, all
    column table entries are in range and contiguous, so block slicing cannot
    fail (block *contents* are still CRC-checked on read).
    """
    if len(data) < 4:
        raise StorageError("truncated-header", "file shorter than the magic")
    if data[:4] != MAGIC_V3:
        raise StorageError("bad-magic", "not a v3 event graph container")
    reader = ByteReader(data)
    try:
        reader.read_bytes(4)
        version = reader.read_uvarint()
        if version != _FORMAT_VERSION:
            raise StorageError("unsupported-version", f"format version {version}")
        flags = reader.read_uvarint()
        num_events = reader.read_uvarint()
        num_columns = reader.read_uvarint()
        entries: list[ColumnInfo] = []
        for _ in range(num_columns):
            column_id = reader.read_uvarint()
            col_flags = reader.read_uvarint()
            offset = reader.read_uvarint()
            stored_length = reader.read_uvarint()
            raw_length = reader.read_uvarint()
            crc = int.from_bytes(reader.read_bytes(4), "big")
            entries.append(
                ColumnInfo(column_id, col_flags, offset, stored_length, raw_length, crc)
            )
        table_end = len(data) - reader.remaining()
        header_crc = int.from_bytes(reader.read_bytes(4), "big")
    except StorageError:
        raise
    except ValueError as exc:
        raise StorageError("truncated-header", str(exc)) from exc

    if zlib.crc32(data[:table_end]) != header_crc:
        raise StorageError("header-crc-mismatch", "header or column table corrupted")

    seen: set[int] = set()
    expected_offset = 0
    for entry in entries:
        if entry.column_id in seen:
            raise StorageError(
                "duplicate-column", f"column {entry.name!r} appears twice"
            )
        seen.add(entry.column_id)
        if entry.offset != expected_offset:
            raise StorageError(
                "stale-column-offset",
                f"column {entry.name!r} at offset {entry.offset}, "
                f"expected {expected_offset}",
            )
        expected_offset += entry.stored_length

    header_length = table_end + 4
    blocks_length = len(data) - header_length
    if blocks_length < expected_offset:
        raise StorageError(
            "truncated-column",
            f"column blocks cut short ({blocks_length} of {expected_offset} bytes)",
        )
    if blocks_length > expected_offset:
        raise StorageError(
            "trailing-data",
            f"{blocks_length - expected_offset} bytes after the last column block",
        )
    return ContainerHeader(
        flags=flags,
        num_events=num_events,
        columns=tuple(entries),
        header_length=header_length,
    )


def _read_column(data: bytes, header: ContainerHeader, column: ColumnInfo) -> bytes:
    """Slice, CRC-check, and (if needed) decompress one column block."""
    start = header.header_length + column.offset
    stored = data[start : start + column.stored_length]
    if zlib.crc32(stored) != column.crc32:
        raise StorageError(
            "column-crc-mismatch", f"column {column.name!r} block corrupted"
        )
    if not column.compressed:
        payload = stored
    else:
        try:
            payload = compression.decompress(stored)
        except ValueError as exc:
            raise StorageError(
                "column-decode", f"column {column.name!r} failed to decompress"
            ) from exc
    if len(payload) != column.raw_length:
        raise StorageError(
            "column-decode",
            f"column {column.name!r} decoded to {len(payload)} bytes, "
            f"expected {column.raw_length}",
        )
    return payload


# ----------------------------------------------------------------------
# Full decode
# ----------------------------------------------------------------------
def decode_event_graph_v3(data: bytes) -> DecodedFile:
    """Parse a v3 file into a fully materialised :class:`DecodedFile`."""
    lazy = LazyDecodedFile(data)
    graph = lazy.graph
    return DecodedFile(graph=graph, snapshot=lazy.snapshot, pruned=lazy.pruned)


def decode_file(data: bytes) -> DecodedFile:
    """Decode an event-graph file of either format, sniffing the magic.

    v3 files decode through the container machinery; v2 files go through the
    legacy decoder (:func:`repro.storage.encoder.decode_event_graph`), which
    is retained read-only.
    """
    if len(data) >= 4 and data[:4] == MAGIC_V2:
        try:
            return decode_event_graph(data)
        except StorageError:
            raise
        except ValueError as exc:
            raise StorageError("column-decode", f"legacy v2 file: {exc}") from exc
    if len(data) >= 4 and data[:4] == MAGIC_V3:
        return decode_event_graph_v3(data)
    if len(data) < 4:
        raise StorageError("truncated-header", "file shorter than the magic")
    raise StorageError("bad-magic", "not an event graph file")


# ----------------------------------------------------------------------
# Selective reads
# ----------------------------------------------------------------------
def decode_text(data: bytes) -> str:
    """Reconstruct the current document text from a v3 file without
    materialising the causal graph.

    Fast path: the snapshot column.  Fallback: for linear histories (the
    parents column records zero exceptions), replay the ops column over the
    content column span-by-span.  Anything else raises
    ``StorageError("text-requires-graph")`` — use :class:`LazyDecodedFile`
    (whose :attr:`~LazyDecodedFile.text` hydrates as a last resort) or
    :func:`decode_file` for those.
    """
    return LazyDecodedFile(data).selective_text()


def _replay_linear_text(
    ops: list[tuple[OpKind, int, int]], content: bytes, pruned: bool
) -> str:
    """Replay a linear history's ops over its content column, span-wise.

    The document is held as a list of ``[event_index, offset, length]`` spans
    into the insertion events; every edit splices whole spans (splitting at
    most two at the boundaries), so the cost is O(spans), never O(chars).
    """
    spans: list[list[int]] = []

    for index, (kind, pos, length) in enumerate(ops):
        if kind is OpKind.INSERT:
            _splice_spans(spans, pos, 0, [index, 0, length])
        else:
            _splice_spans(spans, pos, length, None)

    text = content.decode("utf-8")
    if not pruned:
        # Full content: event i's text starts at the running total of all
        # earlier insertions' lengths.
        starts: dict[int, int] = {}
        total = 0
        for index, (kind, _, length) in enumerate(ops):
            if kind is OpKind.INSERT:
                starts[index] = total
                total += length
        return "".join(
            text[starts[event] + offset : starts[event] + offset + length]
            for event, offset, length in spans
        )

    # Pruned content is the *surviving* characters concatenated in event
    # order — exactly the final document's spans sorted by (event, offset),
    # so assigning the pruned text to that ordering reconstructs each chunk.
    order = sorted(range(len(spans)), key=lambda i: (spans[i][0], spans[i][1]))
    chunks: list[str] = [""] * len(spans)
    cursor = 0
    for span_index in order:
        length = spans[span_index][2]
        chunks[span_index] = text[cursor : cursor + length]
        cursor += length
    if cursor != len(text):
        raise StorageError(
            "column-decode",
            f"pruned content has {len(text)} chars, final document needs {cursor}",
        )
    return "".join(chunks)


def _splice_spans(
    spans: list[list[int]], pos: int, delete_length: int, insert: list[int] | None
) -> None:
    """Splice the span list at document position ``pos``: remove
    ``delete_length`` characters, then insert ``insert`` (if any)."""
    i = 0
    covered = 0
    while i < len(spans) and covered + spans[i][2] <= pos:
        covered += spans[i][2]
        i += 1
    if covered < pos:
        if i >= len(spans):
            raise StorageError("column-decode", "ops column edits past document end")
        # Split the span containing ``pos``.
        event, offset, length = spans[i]
        left = pos - covered
        spans[i : i + 1] = [[event, offset, left], [event, offset + left, length - left]]
        i += 1
        covered = pos

    remaining = delete_length
    while remaining > 0:
        if i >= len(spans):
            raise StorageError("column-decode", "ops column deletes past document end")
        event, offset, length = spans[i]
        if length <= remaining:
            del spans[i]
            remaining -= length
        else:
            spans[i] = [event, offset + remaining, length - remaining]
            remaining = 0

    if insert is not None:
        spans.insert(i, list(insert))


# ----------------------------------------------------------------------
# Lazy decoding
# ----------------------------------------------------------------------
class LazyDecodedFile:
    """A v3 file decoded on demand, column by column.

    Construction parses (and CRC-verifies) only the header; each column block
    is sliced, CRC-checked, and decompressed at most once, on first use.
    :attr:`text` resolves through the cheap columns when it can; the history
    columns (parents, agents, ids) are decoded only when :attr:`graph` or
    :attr:`history` force full hydration — exactly once, however often they
    are touched.  :meth:`document` builds a second, private graph from the
    same cached payloads (a graph a document adopts has exactly one owner).
    :attr:`stats` records what was read.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self.stats = ReadStats()
        self.header = parse_header(data)
        self.stats.header_bytes = self.header.header_length
        self._columns: dict[int, bytes] = {}
        self._graph: EventGraph | None = None
        self._history: "History" | None = None
        self._text: str | None = None

    # ------------------------------------------------------------------
    @property
    def num_events(self) -> int:
        return self.header.num_events

    @property
    def pruned(self) -> bool:
        return self.header.pruned

    @property
    def has_snapshot(self) -> bool:
        return self.header.find(COL_SNAPSHOT) is not None

    @property
    def file_size(self) -> int:
        return len(self._data)

    # ------------------------------------------------------------------
    def column_payload(self, column_id: int) -> bytes:
        """The decoded payload of a column, read (and accounted) at most once."""
        cached = self._columns.get(column_id)
        if cached is not None:
            return cached
        column = self.header.require(column_id)
        payload = _read_column(self._data, self.header, column)
        self.stats.record_column(column.name, column.stored_length)
        self._columns[column_id] = payload
        return payload

    @property
    def snapshot(self) -> str | None:
        if not self.has_snapshot:
            return None
        return self.column_payload(COL_SNAPSHOT).decode("utf-8")

    # ------------------------------------------------------------------
    def selective_text(self) -> str:
        """Current text from the cheap columns only; raises
        ``StorageError("text-requires-graph")`` when they do not suffice."""
        if self.has_snapshot:
            return self.column_payload(COL_SNAPSHOT).decode("utf-8")
        parents_payload = self.column_payload(COL_PARENTS)
        exception_count = _parents_exception_count(parents_payload)
        if exception_count != 0:
            raise StorageError(
                "text-requires-graph",
                "no snapshot column and the history is not linear; "
                "decode the graph to compute the text",
            )
        ops = self._decode_ops()
        content = self.column_payload(COL_CONTENT)
        return _replay_linear_text(ops, content, self.pruned)

    @property
    def text(self) -> str:
        """Current document text: selectively when possible, hydrating the
        graph as a last resort (concurrent history without a snapshot)."""
        if self._text is not None:
            return self._text
        try:
            self._text = self.selective_text()
        except StorageError as exc:
            if exc.code != "text-requires-graph":
                raise
            self._text = EgWalker(self.graph).replay_text()
        return self._text

    # ------------------------------------------------------------------
    def _decode_ops(self) -> list[tuple[OpKind, int, int]]:
        try:
            return _decode_ops_column(self.column_payload(COL_OPS), self.num_events)
        except StorageError:
            raise
        except ValueError as exc:
            raise StorageError("column-decode", f"ops column: {exc}") from exc

    @property
    def graph(self) -> EventGraph:
        """The full event graph; hydrates the history columns on first access."""
        if self._graph is None:
            self._graph = self._hydrate()
        return self._graph

    @property
    def history(self) -> "History":
        """A read-only :class:`~repro.history.history.History` over the graph."""
        if self._history is None:
            from ..history.history import History

            self._history = History.over_graph(self.graph)
        return self._history

    def document(self, agent: str) -> "Document":
        """An editable :class:`~repro.core.document.Document` loaded from the
        file.

        The document *adopts* a graph of its own, hydrated privately from the
        column payloads this reader has already decoded (no block is read
        twice), and takes its text from the snapshot column — nothing is
        re-ingested or re-merged.  It never aliases :attr:`graph` or
        :attr:`history`: editing it leaves this reader untouched.
        """
        from ..core.document import Document

        return Document(agent, graph=self._hydrate(), text=self.snapshot)

    def _hydrate(self) -> EventGraph:
        """Decode the history columns into a fresh graph nobody else holds."""
        self.stats.hydrations += 1
        num_events = self.num_events
        ops = self._decode_ops()
        try:
            parents, exceptions = _decode_parents_column(
                self.column_payload(COL_PARENTS), num_events
            )
            ids = _decode_id_columns(
                self.column_payload(COL_AGENTS),
                self.column_payload(COL_IDS),
                [length for _, _, length in ops],
            )
            _check_snapshot_length(self.snapshot, ops, linear=exceptions == 0)
            content = self.column_payload(COL_CONTENT).decode("utf-8")
            graph = _build_graph(ops, parents, ids, content, self.pruned)
        except StorageError:
            raise
        except ValueError as exc:
            raise StorageError("column-decode", str(exc)) from exc
        self.stats.events_materialised += num_events
        return graph


def _parents_exception_count(payload: bytes) -> int:
    """The parents column's leading exception count (0 ⇔ linear history)."""
    try:
        return ByteReader(payload).read_uvarint()
    except ValueError as exc:
        raise StorageError("column-decode", f"parents column: {exc}") from exc


def _decode_id_columns(
    agents_payload: bytes, ids_payload: bytes, lengths: list[int]
) -> list[EventId]:
    """Slice the id runs back into per-event start ids using event lengths."""
    agents_reader = ByteReader(agents_payload)
    agent_count = agents_reader.read_uvarint()
    agents = [agents_reader.read_string() for _ in range(agent_count)]
    if not agents_reader.at_end():
        raise ValueError("agents column has trailing bytes")

    reader = ByteReader(ids_payload)
    run_count = reader.read_uvarint()
    ids: list[EventId] = []
    event = 0
    for _ in range(run_count):
        agent_idx = reader.read_uvarint()
        if agent_idx >= len(agents):
            raise ValueError("ids column references an unknown agent")
        agent = agents[agent_idx]
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
