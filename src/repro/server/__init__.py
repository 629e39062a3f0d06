"""Real-time collaboration server (asyncio WebSockets + HTTP long-polling).

This package turns the in-process replica —
:class:`~repro.network.replica.Replica`, a
:class:`~repro.core.document.Document` behind its inbound
:class:`~repro.network.causal_broadcast.CausalBuffer` — into a network
service.  Rooms and load-generator clients are replicas; only the per-session
outbound buffers are the server's own:

* :mod:`repro.server.protocol` — the JSON message schema (hello / welcome /
  delta / presence / error / bye) shared by both transports, with structured
  rejection of malformed frames.
* :mod:`repro.server.wire` — a minimal HTTP/1.1 request reader and an RFC 6455
  WebSocket implementation over asyncio streams (no third-party deps).
* :mod:`repro.server.session` — per-document rooms (each a ``Replica``) and
  per-connection sessions; every connection owns an outbound
  :class:`CausalBuffer`, so batch delivery and re-carve-proof dedup work
  exactly as they do in the simulator.
* :mod:`repro.server.app` — :class:`CollabServer`, the asyncio server that
  speaks WebSockets on the fast path and degrades to HTTP long-polling
  (cursor presence disabled there, like sysreptor's fallback).
* :mod:`repro.server.loadgen` — load-generator clients that drive live
  sessions and replay trace-suite sessions over real sockets, reporting
  convergence and parked events.
* :mod:`repro.server.wal` — crash-safe durable rooms: a varint-framed,
  CRC-guarded write-ahead log per room with group-commit fsync, snapshot
  compaction and torn-tail-tolerant recovery (the WAL tail is received as
  one batch by a ``Replica`` over the adopted snapshot).

Run a standalone server with ``python -m repro.server``.
"""

from .app import CollabServer
from .loadgen import (
    LoadgenResult,
    ReconnectPolicy,
    run_loadgen,
    run_trace_replay,
)
from .protocol import ProtocolError, decode_frame, encode_frame
from .session import DocumentRoom, Session
from .wal import DurabilityOptions, RecoveryInfo, RoomStorage, recover_document

__all__ = [
    "CollabServer",
    "DocumentRoom",
    "Session",
    "ProtocolError",
    "encode_frame",
    "decode_frame",
    "LoadgenResult",
    "ReconnectPolicy",
    "DurabilityOptions",
    "RecoveryInfo",
    "RoomStorage",
    "recover_document",
    "run_loadgen",
    "run_trace_replay",
]
