"""Crash-safe durable rooms: a per-room write-ahead log plus snapshot
compaction.

Eg-walker's pitch is that the durable event graph *is* the document, so
durability falls out of the storage layer this repo already has:

* Every causally ordered batch a room ingests is appended to a
  :class:`WriteAheadLog` as one varint-framed record whose payload is the
  batch's event list exactly as a ``delta`` frame carries it
  (:func:`~repro.server.protocol.encode_event` arrays as compact UTF-8
  JSON), so an event has one serialised form on the wire and in the log.
  Records are guarded by a CRC32 so a torn write (crash mid ``write``) is
  detected, not silently decoded.
* ``fsync`` is a policy, not a constant: ``"always"`` syncs per appended
  delta, ``"group"`` lets the server's group-commit task sync on an interval
  (the production trade), ``"none"`` never syncs (the ablation floor).
* When the log grows past a threshold the room is **compacted**: the full
  event graph is written as one storage container (final text included as
  its own snapshot column, so a recovered room serves without a replay) via
  an atomic temp-file-plus-``os.replace``, and the log is reset.  A crash between the
  snapshot replace and the log reset merely leaves duplicate spans in the
  log — recovery hands the WAL tail to a
  :class:`~repro.network.replica.Replica` over the adopted snapshot, whose
  inbound buffer knows the snapshot's id spans and so dedups them exactly
  like a reconnect replay.
* :func:`recover_document` adopts the snapshot (its graph and its text, no
  re-ingest, no re-merge) and applies only the WAL tail — every intact
  record, concatenated in log order, as **one** batch and so one merge —
  tolerating a truncated or corrupt final record: the scan stops at the
  first frame that does not parse and verify, and reports how many tail
  bytes were dropped.  Recovery only reads; reopening the log for append is
  what cuts the torn tail off, so records appended after a restart stay
  readable, and a log in a format this version cannot read is refused
  rather than appended to.

Room names are arbitrary strings; on disk each room lives in a directory
named by the UTF-8 hex of its name (reversible, filesystem-safe).
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import asdict, dataclass
from typing import Iterable

from ..core.document import Document
from ..core.oplog import RemoteEvent, graph_to_remote_events
from ..network.replica import Replica
from ..storage.container import ContainerOptions, decode_file, encode_event_graph_v3
from ..storage.varint import decode_uvarint, encode_uvarint
from .protocol import decode_event, encode_event, encode_json

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
#: A record holds :func:`~repro.server.protocol.encode_event` arrays, so any
#: change to that function bumps this.
_WAL_FORMAT = 2
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
        return asdict(self)


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
        return asdict(self)


# ----------------------------------------------------------------------
# Record codec: one causally ordered batch of RemoteEvents per record
# ----------------------------------------------------------------------
def encode_wal_record(events: Iterable[RemoteEvent]) -> bytes:
    """Serialise one delivered batch as a WAL record payload: the compact
    UTF-8 JSON of its wire event arrays, ``delta_frame(events)["events"]``.
    Parents may name events of earlier records or of the snapshot."""
    return encode_json([encode_event(event) for event in events]).encode("utf-8")


def decode_wal_record(payload: bytes) -> list[RemoteEvent]:
    """Inverse of :func:`encode_wal_record`, with no frame ceiling: one
    delivered batch may be a cascade of parked events from several deltas.

    Raises:
        ValueError: if the payload is not a JSON list of wire events (the
            framing CRC makes this unreachable for torn writes; it guards
            against foreign bytes).
    """
    events = json.loads(payload)
    if not isinstance(events, list):
        raise ValueError(f"a WAL record is a list of events, not {type(events).__name__}")
    return [decode_event(event) for event in events]


def frame_record(payload: bytes) -> bytes:
    """Frame one record for the log: ``uvarint(len) + payload + crc32``."""
    crc = zlib.crc32(payload).to_bytes(_CRC_BYTES, "little")
    return encode_uvarint(len(payload)) + payload + crc


_FILE_HEADER = _WAL_MAGIC + encode_uvarint(_WAL_FORMAT)
_HEADER_LEN = len(_FILE_HEADER)
#: A format-1 log with no records, as a clean shutdown's compaction leaves
#: it: there is nothing in it to decode, so it opens as an empty log.
_EMPTY_V1_LOG = _WAL_MAGIC + b"\x01"


class WriteAheadLog:
    """An append-only varint-framed record log with tolerant replay.

    Bytes are written with ``os.write`` on an ``O_APPEND`` descriptor, so a
    crashed *process* loses nothing that :meth:`append_record` returned
    from; :meth:`sync` is the machine-crash durability point the fsync
    policy controls.

    Opening an existing log cuts it back to its last intact frame (a torn
    tail left by a crash) and fsyncs the cut before anything is appended;
    otherwise new records would land behind bytes :meth:`scan` stops at, and
    the next recovery would lose them.  A file this format cannot read is
    refused with :class:`ValueError` rather than appended to; a format-1 log
    with no records is rewritten as an empty log of this format.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fd = os.open(path, os.O_APPEND | os.O_CREAT | os.O_RDWR, 0o644)
        self._closed = False
        try:
            self.size = self._cut_to_intact_end()
        except BaseException:
            self.close()
            raise

    def _cut_to_intact_end(self) -> int:
        with open(self.path, "rb") as fh:
            data = fh.read()
        end = _intact_frames(data)[1] if _has_records(data, self.path) else 0
        if end < len(data):
            os.ftruncate(self._fd, end)
            os.fsync(self._fd)
        if end == 0:
            end = os.write(self._fd, _FILE_HEADER)
        return end

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
        much tail was discarded (0 for a clean log).  A missing file, a
        format-1 log with no records, or a prefix of this format's header (a
        crash while the log was created, all of it counted as torn) yields
        no records.  Any other file raises :class:`ValueError` naming
        ``path``: it is a log this version cannot read, not an empty one.
        """
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return [], 0
        if not _has_records(data, path):
            return [], 0 if data == _EMPTY_V1_LOG else len(data)
        payloads, end = _intact_frames(data)
        return payloads, len(data) - end


def _has_records(data: bytes, path: str) -> bool:
    """Whether ``data`` opens with this format's header, so records may
    follow; ``False`` for a log with nothing to read (empty, cut mid header
    by a crash, or an empty format-1 log).  Any other file raises
    :class:`ValueError` naming ``path``."""
    if data.startswith(_FILE_HEADER):
        return True
    if _FILE_HEADER.startswith(data) or data == _EMPTY_V1_LOG:
        return False
    raise ValueError(
        f"{path}: not a write-ahead log this version can read "
        f"(header {data[:_HEADER_LEN]!r}, expected {_FILE_HEADER!r})"
    )


def _intact_frames(data: bytes) -> tuple[list[bytes], int]:
    """The record payloads behind a valid header, up to the first frame that
    is truncated or fails its CRC, and the offset just past the last intact
    one."""
    payloads: list[bytes] = []
    offset = _HEADER_LEN
    while offset < len(data):
        try:
            length, pos = decode_uvarint(data, offset)
        except ValueError:
            break
        end = pos + length + _CRC_BYTES
        if end > len(data):
            break
        payload = data[pos : pos + length]
        if zlib.crc32(payload) != int.from_bytes(data[pos + length : end], "little"):
            break
        payloads.append(payload)
        offset = end
    return payloads, offset


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
            self.wal.append_record(payload, partial=len(frame_record(payload)) // 2)
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

    def maybe_compact(self, document: Document) -> bool:
        """Compact when the WAL exceeds the configured thresholds."""
        if (
            self.wal.size < self.options.compact_min_bytes
            and self._records_since_compaction < self.options.compact_min_records
        ):
            return False
        self.compact(document)
        return True

    def compact(self, document: Document) -> None:
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

    def close(self, *, document: Document | None = None) -> None:
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
def recover_document(directory: str, agent: str) -> tuple[Document, RecoveryInfo]:
    """Rebuild a room's server replica from snapshot + WAL tail.

    The snapshot is **adopted**: its decoded graph becomes the replica's
    graph and its snapshot column the text — nothing is re-ingested or
    re-merged (a snapshot file without the column is replayed in place).
    Only the WAL tail is applied: every intact record is decoded and the
    records, concatenated in log order (causal order, since each was
    appended as it was delivered), are received as one batch by one
    :class:`~repro.network.replica.Replica` over the adopted document — one
    buffer pass and one merge however many records the tail holds.  Its
    inbound buffer knows the snapshot's id spans, so duplicate spans (a
    crash between snapshot replace and WAL reset, or overlapping re-carved
    runs) dedup exactly like reconnect replays do on the live path.  A torn
    or corrupt final record is discarded and reported, never decoded.  The
    directory is only read.
    """
    info = RecoveryInfo()
    try:
        with open(os.path.join(directory, SNAPSHOT_FILENAME), "rb") as fh:
            snapshot_data = fh.read()
    except FileNotFoundError:
        document = Document(agent)
    else:
        decoded = decode_file(snapshot_data)
        document = Document(agent, graph=decoded.graph, text=decoded.snapshot)
        info.snapshot_loaded = True
        info.snapshot_events = len(decoded.graph)
        info.snapshot_text_verified = decoded.snapshot is not None

    replica = Replica(document)
    payloads, torn_bytes = WriteAheadLog.scan(os.path.join(directory, WAL_FILENAME))
    info.torn_bytes_dropped = torn_bytes
    info.wal_records = len(payloads)
    # Records were appended in delivery order, so their concatenation is
    # causally ordered: the whole tail is one batch and one merge.
    tail = [event for payload in payloads for event in decode_wal_record(payload)]
    info.wal_events = len(tail)
    replica.receive(tail)
    info.pending_after_recovery = replica.pending_count
    return document, info
