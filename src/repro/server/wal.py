"""Crash-safe durable rooms: a per-room write-ahead log plus snapshot
compaction.

Eg-walker's pitch is that the durable event graph *is* the document, so
durability falls out of the storage layer this repo already has:

* Every causally ordered batch a room ingests is appended to a
  :class:`WriteAheadLog` as one varint-framed record — the same LEB128
  primitives and column discipline as the storage column codecs
  (:mod:`repro.storage.columns`), scoped down to one batch of portable
  :class:`~repro.core.oplog.RemoteEvent`\\ s (agent table, id/parents rows,
  op rows).  Records are guarded by a CRC32 so a torn write (crash mid
  ``write``) is detected, not silently decoded.
* ``fsync`` is a policy, not a constant: ``"always"`` syncs per appended
  delta, ``"group"`` lets the server's group-commit task sync on an interval
  (the production trade), ``"none"`` never syncs (the ablation floor).
* When the log grows past a threshold the room is **compacted**: the full
  event graph is written as one storage container (final text included as
  its own snapshot column, so a recovered room serves without a replay) via
  an atomic temp-file-plus-``os.replace``, and the log is reset.  A crash between the
  snapshot replace and the log reset merely leaves duplicate spans in the
  log — recovery routes every WAL batch through a
  :class:`~repro.network.causal_broadcast.CausalBuffer` seeded with the
  snapshot's id spans, which dedups them exactly like a reconnect replay.
* :func:`recover_document` adopts the snapshot (its graph and its text, no
  re-ingest, no re-merge) and applies only the WAL tail, tolerating a
  truncated or corrupt final record: the scan stops at the first frame that
  does not parse and verify, and reports how many tail bytes were dropped.

Room names are arbitrary strings; on disk each room lives in a directory
named by the UTF-8 hex of its name (reversible, filesystem-safe).
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from ..core.ids import EventId, delete_op, insert_op
from ..core.oplog import RemoteEvent, graph_to_remote_events
from ..network.causal_broadcast import CausalBuffer
from ..storage.container import ContainerOptions, decode_file, encode_event_graph_v3
from ..storage.varint import ByteReader, ByteWriter, decode_uvarint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (Document imports rope etc.)
    from ..core.document import Document

__all__ = [
    "DurabilityOptions",
    "WalStats",
    "RecoveryInfo",
    "WriteAheadLog",
    "RoomStorage",
    "encode_wal_record",
    "decode_wal_record",
    "graph_to_remote_events",
    "room_directory",
    "room_name_from_directory",
    "list_room_directories",
    "recover_document",
]

_WAL_MAGIC = b"EGWL"
_WAL_FORMAT = 1
_CRC_BYTES = 4

SNAPSHOT_FILENAME = "snapshot.egwk"
WAL_FILENAME = "wal.log"


@dataclass(frozen=True, slots=True)
class DurabilityOptions:
    """Knobs for the durability subsystem.

    Attributes:
        fsync_policy: ``"always"`` (sync per appended delta — the paranoid
            ablation), ``"group"`` (the server's group-commit task syncs
            every ``group_interval`` seconds), or ``"none"`` (never fsync;
            bytes still reach the OS via ``write``).
        group_interval: seconds between group-commit syncs.
        compact_min_bytes / compact_min_records: compaction triggers — when
            the WAL exceeds either, the room is snapshotted and the log
            reset.
        compact_on_close: write a final snapshot on clean shutdown, so the
            next start recovers from the snapshot alone.
    """

    fsync_policy: str = "group"
    group_interval: float = 0.05
    compact_min_bytes: int = 1 << 18
    compact_min_records: int = 1024
    compact_on_close: bool = True

    def __post_init__(self) -> None:
        if self.fsync_policy not in ("none", "group", "always"):
            raise ValueError(
                f"fsync_policy must be 'none', 'group' or 'always', "
                f"got {self.fsync_policy!r}"
            )


@dataclass(slots=True)
class WalStats:
    """Counters for one room's durability machinery (surfaced in
    ``/v1/stats``)."""

    records_appended: int = 0
    events_appended: int = 0
    bytes_appended: int = 0
    fsyncs: int = 0
    compactions: int = 0
    torn_writes: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "records_appended": self.records_appended,
            "events_appended": self.events_appended,
            "bytes_appended": self.bytes_appended,
            "fsyncs": self.fsyncs,
            "compactions": self.compactions,
            "torn_writes": self.torn_writes,
        }


@dataclass(slots=True)
class RecoveryInfo:
    """What :func:`recover_document` found on disk for one room."""

    snapshot_loaded: bool = False
    snapshot_events: int = 0
    #: The snapshot file carried a text column and it passed the decoder's
    #: consistency check against the ops column (a stale text is refused with
    #: ``StorageError("column-decode")``, so recovery never gets this far
    #: with one).  ``False`` means there was no text column and the adopted
    #: graph was replayed instead.
    snapshot_text_verified: bool = False
    wal_records: int = 0
    wal_events: int = 0
    #: Bytes of torn/corrupt WAL tail that were discarded (0 on a clean log).
    torn_bytes_dropped: int = 0
    #: Events still parked in the recovery buffer afterwards (0 means every
    #: surviving record was a causally closed continuation — the invariant
    #: append order guarantees).
    pending_after_recovery: int = 0

    def as_dict(self) -> dict[str, int | bool]:
        return {
            "snapshot_loaded": self.snapshot_loaded,
            "snapshot_events": self.snapshot_events,
            "snapshot_text_verified": self.snapshot_text_verified,
            "wal_records": self.wal_records,
            "wal_events": self.wal_events,
            "torn_bytes_dropped": self.torn_bytes_dropped,
            "pending_after_recovery": self.pending_after_recovery,
        }


# ----------------------------------------------------------------------
# Record codec: one causally ordered batch of RemoteEvents per record
# ----------------------------------------------------------------------
def encode_wal_record(events: Iterable[RemoteEvent]) -> bytes:
    """Serialise one ingest batch as a WAL record payload.

    The layout mirrors the storage columns at batch scope: an agent
    table, then per event the id, parents and op as varint rows.  Parents
    are explicit ``(agent, seq)`` pairs (they may reference events from
    earlier records or the snapshot).
    """
    events = list(events)
    agents: list[str] = []
    agent_index: dict[str, int] = {}

    def agent_ref(name: str) -> int:
        index = agent_index.get(name)
        if index is None:
            index = agent_index[name] = len(agents)
            agents.append(name)
        return index

    for event in events:
        agent_ref(event.id.agent)
        for parent in event.parents:
            agent_ref(parent.agent)

    writer = ByteWriter()
    writer.write_uvarint(len(agents))
    for agent in agents:
        writer.write_string(agent)
    writer.write_uvarint(len(events))
    for event in events:
        writer.write_uvarint(agent_index[event.id.agent])
        writer.write_uvarint(event.id.seq)
        writer.write_uvarint(len(event.parents))
        for parent in event.parents:
            writer.write_uvarint(agent_index[parent.agent])
            writer.write_uvarint(parent.seq)
        op = event.op
        writer.write_uvarint(int(op.kind))
        writer.write_svarint(op.pos)
        if op.is_insert:
            writer.write_string(op.content)
        else:
            writer.write_uvarint(op.length)
    return writer.getvalue()


def decode_wal_record(payload: bytes) -> list[RemoteEvent]:
    """Inverse of :func:`encode_wal_record`.

    Raises:
        ValueError: if the payload is malformed (the framing CRC makes this
            unreachable for torn writes; it guards against foreign bytes).
    """
    reader = ByteReader(payload)
    agents = [reader.read_string() for _ in range(reader.read_uvarint())]
    count = reader.read_uvarint()
    events: list[RemoteEvent] = []
    for _ in range(count):
        event_id = EventId(agents[reader.read_uvarint()], reader.read_uvarint())
        parent_count = reader.read_uvarint()
        parents = tuple(
            EventId(agents[reader.read_uvarint()], reader.read_uvarint())
            for _ in range(parent_count)
        )
        kind = reader.read_uvarint()
        pos = reader.read_svarint()
        if kind == 0:
            op = insert_op(pos, reader.read_string())
        elif kind == 1:
            op = delete_op(pos, reader.read_uvarint())
        else:
            raise ValueError(f"unknown op kind {kind} in WAL record")
        events.append(RemoteEvent(id=event_id, parents=parents, op=op))
    if not reader.at_end():
        raise ValueError("trailing bytes after WAL record payload")
    return events


def frame_record(payload: bytes) -> bytes:
    """Frame one record for the log: ``uvarint(len) + payload + crc32``."""
    writer = ByteWriter()
    writer.write_uvarint(len(payload))
    writer.write_bytes(payload)
    writer.write_bytes(zlib.crc32(payload).to_bytes(_CRC_BYTES, "little"))
    return writer.getvalue()


def _file_header() -> bytes:
    writer = ByteWriter()
    writer.write_bytes(_WAL_MAGIC)
    writer.write_uvarint(_WAL_FORMAT)
    return writer.getvalue()


_HEADER_LEN = len(_file_header())


class WriteAheadLog:
    """An append-only varint-framed record log with tolerant replay.

    Bytes are written with ``os.write`` on an ``O_APPEND`` descriptor, so a
    crashed *process* loses nothing that :meth:`append_record` returned
    from; :meth:`sync` is the machine-crash durability point the fsync
    policy controls.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fd = os.open(path, os.O_APPEND | os.O_CREAT | os.O_RDWR, 0o644)
        self.size = os.fstat(self._fd).st_size
        if self.size == 0:
            self.size += os.write(self._fd, _file_header())
        self._closed = False

    def append_record(self, payload: bytes, *, partial: int | None = None) -> int:
        """Append one framed record; returns bytes written.

        Args:
            partial: write only the first ``partial`` bytes of the framed
                record — the fault harness's torn-write injection (a real
                crash mid ``write`` leaves exactly this shape on disk).
        """
        framed = frame_record(payload)
        if partial is not None:
            framed = framed[: max(1, min(partial, len(framed)))]
        written = os.write(self._fd, framed)
        self.size += written
        return written

    def sync(self) -> None:
        os.fsync(self._fd)

    def reset(self) -> None:
        """Truncate back to the header (after a snapshot compaction)."""
        os.ftruncate(self._fd, _HEADER_LEN)
        self.size = _HEADER_LEN

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            os.close(self._fd)

    # ------------------------------------------------------------------
    @staticmethod
    def scan(path: str) -> tuple[list[bytes], int]:
        """Read every intact record payload from ``path``.

        Returns ``(payloads, torn_bytes)``: the scan stops at the first
        frame that is truncated or fails its CRC, and ``torn_bytes`` is how
        much tail was discarded (0 for a clean log).  A missing or
        header-less file yields no records.
        """
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return [], 0
        if len(data) < _HEADER_LEN or data[: len(_WAL_MAGIC)] != _WAL_MAGIC:
            return [], len(data)
        try:
            version, offset = decode_uvarint(data, len(_WAL_MAGIC))
        except ValueError:
            return [], len(data)
        if version != _WAL_FORMAT:
            return [], len(data) - len(_WAL_MAGIC)
        payloads: list[bytes] = []
        while offset < len(data):
            start = offset
            try:
                length, pos = decode_uvarint(data, offset)
            except ValueError:
                break
            end = pos + length + _CRC_BYTES
            if end > len(data):
                break
            payload = data[pos : pos + length]
            crc = int.from_bytes(data[pos + length : end], "little")
            if zlib.crc32(payload) != crc:
                break
            payloads.append(payload)
            offset = end
        else:
            start = len(data)
        return payloads, len(data) - start if offset < len(data) else 0


# ----------------------------------------------------------------------
# Room directories
# ----------------------------------------------------------------------
def room_directory(data_dir: str, name: str) -> str:
    """The on-disk directory for room ``name`` (UTF-8 hex — reversible)."""
    return os.path.join(data_dir, name.encode("utf-8").hex())


def room_name_from_directory(dirname: str) -> str:
    """Inverse of :func:`room_directory` for one path component."""
    return bytes.fromhex(os.path.basename(dirname)).decode("utf-8")


def list_room_directories(data_dir: str) -> list[tuple[str, str]]:
    """Every recoverable room under ``data_dir`` as ``(name, path)`` pairs."""
    try:
        entries = sorted(os.listdir(data_dir))
    except FileNotFoundError:
        return []
    rooms: list[tuple[str, str]] = []
    for entry in entries:
        path = os.path.join(data_dir, entry)
        if not os.path.isdir(path):
            continue
        try:
            name = room_name_from_directory(entry)
        except ValueError:
            continue
        rooms.append((name, path))
    return rooms


class RoomStorage:
    """One room's durable state: a WAL plus a compacted snapshot file."""

    def __init__(
        self,
        directory: str,
        *,
        options: DurabilityOptions | None = None,
    ) -> None:
        self.directory = directory
        self.options = options or DurabilityOptions()
        os.makedirs(directory, exist_ok=True)
        self.wal = WriteAheadLog(os.path.join(directory, WAL_FILENAME))
        self.snapshot_path = os.path.join(directory, SNAPSHOT_FILENAME)
        self.stats = WalStats()
        self._dirty = False
        self._records_since_compaction = 0
        self._closed = False

    # ------------------------------------------------------------------
    def append(self, events: list[RemoteEvent], *, torn: bool = False) -> None:
        """Append one ingest batch as a WAL record.

        Args:
            torn: fault injection — write only a prefix of the framed record
                (the caller then crashes the server; recovery must shed the
                torn tail).
        """
        payload = encode_wal_record(events)
        if torn:
            framed_len = len(frame_record(payload))
            self.wal.append_record(payload, partial=framed_len // 2)
            self.stats.torn_writes += 1
            return
        written = self.wal.append_record(payload)
        self.stats.records_appended += 1
        self.stats.events_appended += len(events)
        self.stats.bytes_appended += written
        self._records_since_compaction += 1
        self._dirty = True
        if self.options.fsync_policy == "always":
            self.sync()

    def sync(self) -> None:
        """Fsync the WAL if anything was appended since the last sync."""
        if self._dirty and not self._closed:
            self.wal.sync()
            self.stats.fsyncs += 1
            self._dirty = False

    def maybe_compact(self, document: "Document") -> bool:
        """Compact when the WAL exceeds the configured thresholds."""
        if (
            self.wal.size < self.options.compact_min_bytes
            and self._records_since_compaction < self.options.compact_min_records
        ):
            return False
        self.compact(document)
        return True

    def compact(self, document: "Document") -> None:
        """Write a full snapshot (graph + final text) and reset the WAL.

        The snapshot lands via temp-file + ``os.replace`` so a crash during
        compaction leaves either the old or the new snapshot, never a torn
        one; a crash *between* the replace and the WAL reset leaves
        duplicate spans in the log, which recovery dedups.
        """
        data = encode_event_graph_v3(
            document.oplog.graph,
            ContainerOptions(include_snapshot=True, final_text=document.text),
        )
        tmp_path = self.snapshot_path + ".tmp"
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            os.write(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp_path, self.snapshot_path)
        self.wal.reset()
        self._records_since_compaction = 0
        self._dirty = False
        self.stats.compactions += 1

    def close(self, *, document: "Document | None" = None) -> None:
        """Clean shutdown: final sync (and snapshot, when configured)."""
        if self._closed:
            return
        if document is not None and self.options.compact_on_close:
            self.compact(document)
        self.sync()
        self._closed = True
        self.wal.close()

    def abandon(self) -> None:
        """Crash-style close: release the descriptor without syncing or
        compacting — whatever ``write`` already handed the OS survives,
        nothing else does."""
        if not self._closed:
            self._closed = True
            self.wal.close()


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------
def recover_document(
    directory: str,
    agent: str,
    document_options: dict | None = None,
) -> "tuple[Document, RecoveryInfo]":
    """Rebuild a room's server replica from snapshot + WAL tail.

    The snapshot is **adopted**: its decoded graph becomes the replica's
    graph and its snapshot column the text — nothing is re-ingested or
    re-merged (a snapshot file without the column is replayed in place).
    Only the WAL tail goes through ``apply_remote_events``, routed through a
    :class:`CausalBuffer` seeded with the snapshot's id spans, so duplicate
    spans (a crash between snapshot replace and WAL reset, or overlapping
    re-carved runs) dedup exactly like reconnect replays do on the live
    path.  A torn or corrupt final record is discarded and reported, never
    decoded.
    """
    from ..core.document import Document

    options = document_options or {}
    info = RecoveryInfo()
    try:
        with open(os.path.join(directory, SNAPSHOT_FILENAME), "rb") as fh:
            snapshot_data = fh.read()
    except FileNotFoundError:
        document = Document(agent, **options)
    else:
        decoded = decode_file(snapshot_data)
        document = Document(
            agent, graph=decoded.graph, text=decoded.snapshot, **options
        )
        info.snapshot_loaded = True
        info.snapshot_events = len(decoded.graph)
        info.snapshot_text_verified = decoded.snapshot is not None

    buffer = CausalBuffer(deliver_batch=document.apply_remote_events)
    buffer.mark_known_spans(document.oplog.graph.id_spans())
    payloads, torn_bytes = WriteAheadLog.scan(os.path.join(directory, WAL_FILENAME))
    info.torn_bytes_dropped = torn_bytes
    for payload in payloads:
        batch = decode_wal_record(payload)
        buffer.receive_batch(batch)
        info.wal_records += 1
        info.wal_events += len(batch)
    info.pending_after_recovery = buffer.pending_count
    return document, info
