"""The event-graph file: a columnar container with selective column reads.

One format (``docs/SPEC.md`` is the byte-level reference), laid out as a
**random-access container**::

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

Each column block (layouts in :mod:`repro.storage.columns`) is independently
deflated with stdlib ``zlib`` (stored raw when that does not shrink it) and
CRC-framed, so a reader can

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
  column CRC, never silently decoded into a wrong graph, and an inflate never
  allocates more than the table entry declared.

Unknown column ids are skipped (the header CRC still covers their table
entries), which keeps the format extensible: a future writer can add, say, a
formatting-spans column without breaking old readers.

The paper's like-for-like *uncompressed* size comparison (§4.5) is
``ContainerOptions(compress_columns=False)`` of this same format.  Files of
earlier format versions (3: another column compressor, interleaved ops) answer
``unsupported-version``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from ..core.event_graph import EventGraph
from ..core.ids import OpKind
from ..core.walker import EgWalker
from . import compression
from .columns import (
    build_graph,
    check_snapshot_length,
    decode_id_columns,
    decode_ops_column,
    decode_parents_column,
    encode_content_column,
    encode_id_columns,
    encode_ops_column,
    encode_parents_column,
)
from .varint import ByteReader, ByteWriter

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..core.document import Document
    from ..history.history import History

__all__ = [
    "MAGIC_V3",
    "COLUMN_NAMES",
    "ContainerOptions",
    "ColumnInfo",
    "ContainerHeader",
    "DecodedFile",
    "LazyDecodedFile",
    "ReadStats",
    "StorageError",
    "decode_event_graph_v3",
    "decode_file",
    "decode_text",
    "encode_event_graph_v3",
    "parse_header",
]

MAGIC_V3 = b"EGW3"
#: Version 4: deflated columns, ops as three sub-streams with cursor-relative
#: positions.  Version 3 (another compressor, interleaved ops) is not read.
_FORMAT_VERSION = 4

#: File-level flags (column-level concerns like compression live per column).
_FLAG_PRUNED = 1

#: Column ids.  Agents and ids are separate so a reader resolving only *who
#: edited* never pays for the id runs (and vice versa).
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

#: Column-level flags.  Bit 0: the block is a zlib (RFC 1950) stream.
_COL_FLAG_COMPRESSED = 1


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
    """Options controlling the on-disk representation.

    Attributes:
        compress_columns: deflate each column independently, storing the raw
            bytes whenever that does not shrink them.  On by default; off is
            the paper's like-for-like uncompressed size comparison (§4.5).
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
    """The parsed, CRC-verified header of a file."""

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
class DecodedFile:
    """A fully decoded file (:func:`decode_file`)."""

    graph: EventGraph
    snapshot: str | None
    pruned: bool


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
    """Serialise ``graph`` as a columnar container.

    The column payloads are deterministic for a given graph and options
    (agent table in first-appearance order), so an uncompressed file
    re-encodes byte for byte; a compressed one does so only within one zlib
    build — deflate output is not pinned across zlib versions.
    """
    options = options or ContainerOptions()
    if options.include_snapshot and options.final_text is None:
        raise ValueError("include_snapshot requires final_text")

    ids, parents, ops = graph.to_columns()
    agents_col, ids_col = encode_id_columns(ids, ops)
    payloads: list[tuple[int, bytes]] = [
        (COL_OPS, encode_ops_column(ops)),
        (COL_CONTENT, encode_content_column(graph, ops, options.prune_deleted_content)),
        (COL_PARENTS, encode_parents_column(parents)),
        (COL_AGENTS, agents_col),
        (COL_IDS, ids_col),
    ]
    if options.include_snapshot:
        payloads.append((COL_SNAPSHOT, (options.final_text or "").encode("utf-8")))

    header = ByteWriter()
    header.write_bytes(MAGIC_V3)
    header.write_uvarint(_FORMAT_VERSION)
    header.write_uvarint(_FLAG_PRUNED if options.prune_deleted_content else 0)
    header.write_uvarint(len(ops))
    header.write_uvarint(len(payloads))
    blocks: list[bytes] = []
    offset = 0
    for column_id, raw in payloads:
        stored = raw
        col_flags = 0
        if options.compress_columns:
            packed = compression.compress(raw)
            if len(packed) < len(raw):
                stored = packed
                col_flags = _COL_FLAG_COMPRESSED
        header.write_uvarint(column_id)
        header.write_uvarint(col_flags)
        header.write_uvarint(offset)
        header.write_uvarint(len(stored))
        header.write_uvarint(len(raw))
        header.write_bytes(zlib.crc32(stored).to_bytes(4, "big"))
        offset += len(stored)
        blocks.append(stored)
    header_bytes = header.getvalue()
    return b"".join(
        (header_bytes, zlib.crc32(header_bytes).to_bytes(4, "big"), *blocks)
    )


# ----------------------------------------------------------------------
# Header parsing
# ----------------------------------------------------------------------
def parse_header(data: bytes) -> ContainerHeader:
    """Parse and fully validate a header + column table.

    Raises :class:`StorageError` on any malformation; after this returns, all
    column table entries are in range and contiguous, so block slicing cannot
    fail (block *contents* are still CRC-checked on read).
    """
    if len(data) < 4:
        raise StorageError("truncated-header", "file shorter than the magic")
    if data[:4] != MAGIC_V3:
        raise StorageError("bad-magic", "not an event graph container")
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
    """Slice, CRC-check, and (if needed) inflate one column block."""
    start = header.header_length + column.offset
    stored = data[start : start + column.stored_length]
    if zlib.crc32(stored) != column.crc32:
        raise StorageError(
            "column-crc-mismatch", f"column {column.name!r} block corrupted"
        )
    if not column.compressed:
        if len(stored) != column.raw_length:
            raise StorageError(
                "column-decode",
                f"column {column.name!r} stores {len(stored)} raw bytes, "
                f"declares {column.raw_length}",
            )
        return stored
    try:
        return compression.decompress(stored, column.raw_length)
    except ValueError as exc:
        raise StorageError("column-decode", f"column {column.name!r}: {exc}") from exc


# ----------------------------------------------------------------------
# Full decode
# ----------------------------------------------------------------------
def decode_event_graph_v3(data: bytes) -> DecodedFile:
    """Parse a file into a fully materialised :class:`DecodedFile`."""
    lazy = LazyDecodedFile(data)
    graph = lazy.graph
    return DecodedFile(graph=graph, snapshot=lazy.snapshot, pruned=lazy.pruned)


#: The format-neutral name the load paths use (there is one format).
decode_file = decode_event_graph_v3


# ----------------------------------------------------------------------
# Selective reads
# ----------------------------------------------------------------------
def decode_text(data: bytes) -> str:
    """Reconstruct the current document text from a file without
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
    ops: tuple[bytes, list[int], list[int]], content: bytes, pruned: bool
) -> str:
    """Replay a linear history's ops over its content column, span-wise.

    The document is held as a list of ``[event_index, offset, length]`` spans
    into the insertion events; every edit splices whole spans (splitting at
    most two at the boundaries), so the cost is O(spans), never O(chars).
    """
    spans: list[list[int]] = []
    kinds, positions, lengths = ops
    for index, (kind, pos, length) in enumerate(zip(kinds, positions, lengths)):
        if kind == OpKind.INSERT:
            _splice_spans(spans, pos, 0, [index, 0, length])
        else:
            _splice_spans(spans, pos, length, None)

    text = content.decode("utf-8")
    if not pruned:
        # Full content: event i's text starts at the running total of all
        # earlier insertions' lengths.
        starts: dict[int, int] = {}
        total = 0
        for index, (kind, length) in enumerate(zip(kinds, lengths)):
            if kind == OpKind.INSERT:
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
    """A file decoded on demand, column by column.

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
        try:
            return self.column_payload(COL_SNAPSHOT).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StorageError("column-decode", f"snapshot column: {exc}") from exc

    # ------------------------------------------------------------------
    def selective_text(self) -> str:
        """Current text from the cheap columns only; raises
        ``StorageError("text-requires-graph")`` when they do not suffice."""
        snapshot = self.snapshot
        if snapshot is not None:
            return snapshot
        # Zero exceptions to "parent = previous event" is the single byte 00.
        if self.column_payload(COL_PARENTS) != b"\x00":
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
    def _decode_ops(self) -> tuple[bytes, list[int], list[int]]:
        payload = self.column_payload(COL_OPS)
        try:
            return decode_ops_column(payload, self.num_events)
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
        kinds, _, lengths = ops
        try:
            parents, exceptions = decode_parents_column(
                self.column_payload(COL_PARENTS), num_events
            )
            ids = decode_id_columns(
                self.column_payload(COL_AGENTS), self.column_payload(COL_IDS), lengths
            )
            check_snapshot_length(self.snapshot, kinds, lengths, linear=exceptions == 0)
            content = self.column_payload(COL_CONTENT).decode("utf-8")
            graph = build_graph(ops, parents, ids, content, self.pruned)
        except StorageError:
            raise
        except ValueError as exc:
            raise StorageError("column-decode", str(exc)) from exc
        self.stats.events_materialised += num_events
        return graph

