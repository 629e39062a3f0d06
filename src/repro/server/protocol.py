"""The collaboration wire protocol: JSON frames shared by both transports.

One frame is one JSON object with a ``type`` field.  The same schema travels
as WebSocket text frames on the fast path and as JSON bodies over the HTTP
long-polling fallback, so a session can be resumed on either transport.

Frame types
-----------

``hello``     client → server: open a session on a document.  Carries the
              client's agent name and its current version (``Version``
              frontier ids as ``[agent, seq]`` pairs) so the server can ship
              exactly the missing suffix.
``welcome``   server → client: session id + the server's current version.
``delta``     both directions: a causally ordered batch of portable run
              events (:class:`~repro.core.oplog.RemoteEvent`), the same
              id-span representation ``export_since_seq`` produces.  The
              room's write-ahead log records each delivered batch as this
              same ``events`` array (:mod:`repro.server.wal`).
``presence``  both directions: a cursor as an id-frontier position
              (``Version.as_tuples()``).  Character ids survive re-carving,
              so a cursor stays pinned while runs split and extend.
``error``     server → client: structured rejection (``code`` + ``reason``).
              A malformed frame earns an ``error`` frame, never a dropped
              connection.
``ack``       server → client (long-poll only): receipt for a ``send`` body.
``bye``       either direction: clean session teardown.

Events
------

A ``delta`` event is the paper's ``(id, parents, op)`` as one positional
array, ``[agent, seq, parents, pos, body]``: a string ``body`` is an insert of
that text at ``pos``, an int ``body >= 1`` deletes that many characters.
``parents`` is ``0`` when the event's only parent is its author's previous
character ``[agent, seq - 1]`` — the common case of someone typing on; the
storage format likewise leaves out a parent that is the previous event (§4,
``docs/SPEC.md`` §5.3) — and otherwise the list of ``[agent, seq]`` parent
ids.

Malformed input raises :class:`ProtocolError`, which carries the machine
readable ``code`` used in ``error`` frames.  Decoding is strict — unknown
frame types, missing fields, malformed ids and events, lone surrogates, and
frames over :data:`MAX_FRAME_BYTES` of UTF-8 are all rejected — because the
server feeds decoded events straight into the event graph.  It is two steps,
:func:`load_json` on the text as it arrived and :func:`validate_frame` on
each parsed frame, so a long-poll body of frames is parsed once.
"""

from __future__ import annotations

import json
import re
from json.encoder import c_make_encoder, encode_basestring
from typing import Any, Iterable, Sequence

from ..core.ids import EventId, delete_op, insert_op
from ..core.oplog import RemoteEvent

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "encode_json",
    "encode_frame",
    "decode_frame",
    "load_json",
    "validate_frame",
    "encode_event",
    "decode_event",
    "hello_frame",
    "welcome_frame",
    "delta_frame",
    "presence_frame",
    "error_frame",
    "ack_frame",
    "bye_frame",
]

#: Bumped when the frame schema changes incompatibly; ``hello`` carries it and
#: the server rejects mismatches with a structured error.
PROTOCOL_VERSION = 2

#: Hard ceiling on one encoded frame.  Large edits are shipped as multiple
#: delta frames by the sender; a frame above this is rejected, not buffered.
MAX_FRAME_BYTES = 1 << 20

#: The frame types the decoder accepts, with their required fields.
_REQUIRED_FIELDS: dict[str, tuple[str, ...]] = {
    "hello": ("doc", "agent", "version", "protocol"),
    "welcome": ("doc", "session", "version", "protocol"),
    "delta": ("events",),
    "presence": ("agent", "cursor"),
    "error": ("code", "reason"),
    "ack": ("accepted",),
    "bye": (),
}


class ProtocolError(ValueError):
    """A frame violated the wire protocol.

    Attributes:
        code: short machine-readable identifier (``bad-json``,
            ``unknown-type``, ``missing-field``, ``bad-id``, ``bad-op``,
            ``frame-too-large``, ``bad-protocol-version``, ...), echoed in the
            ``error`` frame sent back to the peer.
    """

    def __init__(self, code: str, reason: str) -> None:
        super().__init__(reason)
        self.code = code
        self.reason = reason


# ----------------------------------------------------------------------
# Event codec (RemoteEvent <-> JSON)
# ----------------------------------------------------------------------
def encode_event(event: RemoteEvent) -> list[Any]:
    """One portable run event as ``[agent, seq, parents, pos, body]``."""
    eid, parents, op = event.id, event.parents, event.op
    implied = len(parents) == 1 and parents[0] == (eid.agent, eid.seq - 1)
    wire_parents = 0 if implied else [[p.agent, p.seq] for p in parents]
    return [eid.agent, eid.seq, wire_parents, op.pos, op.content or op.length]


#: Seqs, positions and run lengths live in 64-bit columns once ingested, so
#: a value at or past 2⁶³ is refused here, where it is one bad event: taken
#: in, it would overflow a column halfway through an append.
_INT_LIMIT = 1 << 63


def _decode_id(obj: Any, *, what: str) -> EventId:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not isinstance(obj[0], str)
        or type(obj[1]) is not int
        or not 0 <= obj[1] < _INT_LIMIT
    ):
        raise ProtocolError(
            "bad-id", f"{what} must be a [agent, 0<=seq<2**63] pair, got {obj!r:.80}"
        )
    return EventId(obj[0], obj[1])


def decode_event(obj: Any) -> RemoteEvent:
    """Decode one positional event; raises :class:`ProtocolError` on any
    violation."""
    if not isinstance(obj, list) or len(obj) != 5:
        raise ProtocolError(
            "bad-event", f"event must be [agent, seq, parents, pos, body], got {obj!r:.80}"
        )
    agent, seq, parents, pos, body = obj
    if not isinstance(agent, str) or type(seq) is not int or not 0 <= seq < _INT_LIMIT:
        raise ProtocolError(
            "bad-id", f"event id must be agent, 0<=seq<2**63, got {obj[:2]!r:.80}"
        )
    if parents == 0 and type(parents) is int:
        if seq == 0:
            raise ProtocolError("bad-id", "a seq 0 event has no previous character to imply")
        parent_ids: tuple[EventId, ...] = (EventId(agent, seq - 1),)
    elif isinstance(parents, list):
        parent_ids = tuple(_decode_id(p, what="event parent") for p in parents)
    else:
        raise ProtocolError("bad-event", f"event parents must be 0 or a list, got {parents!r:.80}")
    if type(pos) is not int or type(body) not in (str, int):
        raise ProtocolError("bad-op", f"op needs an int pos and a str/int body, got {obj!r:.80}")
    if pos >= _INT_LIMIT or (type(body) is int and body >= _INT_LIMIT):
        raise ProtocolError("bad-op", f"op pos and length must be below 2**63, got {obj!r:.80}")
    try:
        op = insert_op(pos, body) if type(body) is str else delete_op(pos, body)
    except ValueError as exc:  # Operation's own validation
        raise ProtocolError("bad-op", str(exc)) from exc
    if seq + op.length >= _INT_LIMIT:
        raise ProtocolError("bad-id", f"event id span must end below 2**63, got {obj!r:.80}")
    return RemoteEvent(EventId(agent, seq), parent_ids, op)


def _decode_version(obj: Any, *, what: str) -> tuple[EventId, ...]:
    if not isinstance(obj, list):
        raise ProtocolError("bad-id", f"{what} must be a list of [agent, seq] pairs")
    return tuple(_decode_id(pair, what=what) for pair in obj)


# ----------------------------------------------------------------------
# Frame builders
# ----------------------------------------------------------------------
def hello_frame(
    doc: str, agent: str, version_ids: Iterable[EventId | tuple[str, int]] = ()
) -> dict[str, Any]:
    return {
        "type": "hello",
        "doc": doc,
        "agent": agent,
        "version": [[a, s] for a, s in version_ids],
        "protocol": PROTOCOL_VERSION,
    }


def welcome_frame(doc: str, session_id: str, version_ids: Sequence[EventId]) -> dict[str, Any]:
    return {
        "type": "welcome",
        "doc": doc,
        "session": session_id,
        "version": [[eid.agent, eid.seq] for eid in version_ids],
        "protocol": PROTOCOL_VERSION,
    }


def delta_frame(events: Iterable[RemoteEvent]) -> dict[str, Any]:
    return {"type": "delta", "events": [encode_event(e) for e in events]}


def presence_frame(agent: str, cursor_ids: Iterable[EventId | tuple[str, int]]) -> dict[str, Any]:
    return {"type": "presence", "agent": agent, "cursor": [[a, s] for a, s in cursor_ids]}


def error_frame(code: str, reason: str) -> dict[str, Any]:
    return {"type": "error", "code": code, "reason": reason}


def ack_frame(accepted: int) -> dict[str, Any]:
    return {"type": "ack", "accepted": accepted}


def bye_frame(reason: str | None = None, resume: bool = False) -> dict[str, Any]:
    """A teardown frame; optional fields make it *structured*.

    ``reason`` says why the server ends the session (e.g.
    ``"slow-consumer"`` for a backpressure shed), and ``resume=True`` tells
    the client a reconnect-and-replay from its current version will fully
    recover — the fields are additive, so a plain ``bye`` stays byte-for-byte
    what it always was.
    """
    frame: dict[str, Any] = {"type": "bye"}
    if reason is not None:
        frame["reason"] = reason
    if resume:
        frame["resume"] = True
    return frame


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
#: One encoder, built once (``JSONEncoder.encode`` builds one per call), with
#: ``iterencode``'s arguments less the cycle check; pure Python without ``_json``.
_COMPACT = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)
_ITERENCODE = (
    c_make_encoder(None, _COMPACT.default, encode_basestring, None, ":", ",", False, False, True)
    if c_make_encoder is not None
    else _COMPACT.iterencode
)


def encode_json(value: Any) -> str:
    """Compact JSON, no ASCII escapes: frames, long-poll bodies, WAL records."""
    return "".join(_ITERENCODE(value, 0))


def encode_frame(frame: dict[str, Any]) -> str:
    """Serialise one frame (or a long-poll body of frames) as compact JSON."""
    return encode_json(frame)


def decode_frame(text: str | bytes) -> dict[str, Any]:
    """Parse and validate one frame: ``validate_frame(load_json(text))``."""
    return validate_frame(load_json(text))


def load_json(text: str | bytes) -> Any:
    """Parse a frame, or a long-poll body of frames, as it arrived: at most
    :data:`MAX_FRAME_BYTES` of UTF-8, valid JSON, no lone surrogate (else
    :class:`ProtocolError` ``frame-too-large``, ``bad-json``, ``bad-frame``).

    Bytes that are not UTF-8 are ``bad-json`` whether they arrive as
    ``bytes`` or surrogate-escaped in a ``str`` (as
    :meth:`~repro.server.wire.WebSocketConnection.recv_text` hands them on).
    The text is checked, not the parsed value, unless a ``\\ud800``-style
    escape may have put a lone surrogate there."""
    try:
        if isinstance(text, bytes):
            size = len(text)
            if size <= MAX_FRAME_BYTES:
                text = text.decode("utf-8")
        else:
            size = len(text) if text.isascii() else len(text.encode("utf-8"))
    except UnicodeError as exc:
        raise _not_text(text, exc) from exc
    if size > MAX_FRAME_BYTES:
        raise ProtocolError("frame-too-large", f"frame exceeds {MAX_FRAME_BYTES} bytes")
    try:
        value = json.loads(text)
    except ValueError as exc:
        raise ProtocolError("bad-json", f"frame is not valid JSON: {exc}") from exc
    if "\\u" in text and _SURROGATE_ESCAPE.search(text):
        try:
            encode_json(value).encode("utf-8")  # strict: a lone surrogate is not text
        except UnicodeEncodeError as exc:
            raise ProtocolError("bad-frame", f"frame text is not valid UTF-8: {exc}") from exc
    return value


#: A JSON escape of a UTF-16 surrogate, which may leave a lone one in the
#: parsed value.  An escaped backslash before ``u`` matches too, at the cost
#: of one needless check.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _not_text(data: str | bytes, exc: UnicodeError) -> ProtocolError:
    """``bad-frame`` for a lone surrogate, raw or UTF-8-encoded (valid JSON,
    but no text the server can send on); ``bad-json`` for bytes that are not
    UTF-8 at all."""
    try:
        raw = data.encode("utf-8", "surrogateescape") if isinstance(data, str) else data
        raw.decode("utf-8", "surrogatepass")
    except UnicodeDecodeError:
        return ProtocolError("bad-json", f"frame is not valid UTF-8: {exc}")
    except UnicodeEncodeError:
        pass  # a surrogate that escapes no byte: a lone one
    return ProtocolError("bad-frame", f"frame text is not valid UTF-8: {exc}")


def validate_frame(frame: Any) -> dict[str, Any]:
    """Validate one parsed frame.

    Returns the frame dict with ``version`` / ``cursor`` fields normalised to
    :class:`EventId` tuples and ``events`` normalised to
    :class:`RemoteEvent` lists, so consumers never touch raw JSON shapes.

    Raises:
        ProtocolError: on unknown frame types, missing fields or malformed
            ids/operations.
    """
    if not isinstance(frame, dict):
        raise ProtocolError("bad-frame", "frame must be a JSON object")
    frame_type = frame.get("type")
    if frame_type not in _REQUIRED_FIELDS:
        raise ProtocolError("unknown-type", f"unknown frame type {frame_type!r}")
    for field in _REQUIRED_FIELDS[frame_type]:
        if field not in frame:
            raise ProtocolError("missing-field", f"{frame_type} frame is missing {field!r}")
    if frame_type == "hello":
        if frame["protocol"] != PROTOCOL_VERSION:
            raise ProtocolError(
                "bad-protocol-version",
                f"peer speaks protocol {frame['protocol']!r}, this end speaks {PROTOCOL_VERSION}",
            )
        if not isinstance(frame["doc"], str) or not isinstance(frame["agent"], str):
            raise ProtocolError("bad-frame", "hello doc/agent must be strings")
        frame["version"] = _decode_version(frame["version"], what="hello version id")
    elif frame_type == "welcome":
        frame["version"] = _decode_version(frame["version"], what="welcome version id")
    elif frame_type == "delta":
        events = frame["events"]
        if not isinstance(events, list):
            raise ProtocolError("bad-frame", "delta events must be a list")
        frame["events"] = [decode_event(e) for e in events]
    elif frame_type == "presence":
        if not isinstance(frame["agent"], str):
            raise ProtocolError("bad-frame", "presence agent must be a string")
        frame["cursor"] = _decode_version(frame["cursor"], what="presence cursor id")
    elif frame_type == "error":
        if not isinstance(frame["code"], str) or not isinstance(frame["reason"], str):
            raise ProtocolError("bad-frame", "error code/reason must be strings")
    return frame
