"""Transport plumbing: minimal HTTP/1.1 parsing and RFC 6455 WebSockets.

The container this reproduction runs in has no third-party networking
packages, so the server speaks HTTP and WebSockets directly over
``asyncio`` streams.  Only the subset the collaboration protocol needs is
implemented:

* one HTTP request/response exchange per connection for the long-polling
  fallback (long-poll clients open a fresh connection per round anyway);
* the WebSocket handshake (``Sec-WebSocket-Accept``) and data framing —
  text/binary/ping/pong/close opcodes, client-side masking, fragmented
  messages — enough for full-duplex JSON frames.

The frame codec is exposed as pure functions (:func:`build_ws_frame`,
:func:`parse_ws_frame_header`) so the protocol tests can exercise it without
sockets.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import os
import struct
from urllib.parse import parse_qs, urlsplit

__all__ = [
    "HttpRequest",
    "read_http_request",
    "http_response",
    "websocket_accept_key",
    "build_ws_frame",
    "parse_ws_frame_header",
    "WebSocketConnection",
    "server_websocket_handshake",
    "connect_websocket",
    "OP_TEXT",
    "OP_BINARY",
    "OP_CLOSE",
    "OP_PING",
    "OP_PONG",
]

_WS_MAGIC = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"
_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 8 * 1024 * 1024
_MAX_WS_PAYLOAD = 8 * 1024 * 1024

OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA


class HttpRequest:
    """One parsed HTTP request (method, target, headers, body)."""

    __slots__ = ("method", "target", "path", "query", "headers", "body")

    def __init__(self, method: str, target: str, headers: dict[str, str], body: bytes) -> None:
        self.method = method
        self.target = target
        split = urlsplit(target)
        self.path = split.path
        #: Query params, first value wins (the fallback endpoints use scalars).
        self.query = {k: v[0] for k, v in parse_qs(split.query).items()}
        self.headers = headers
        self.body = body

    @property
    def wants_websocket(self) -> bool:
        return (
            "websocket" in self.headers.get("upgrade", "").lower()
            and "upgrade" in self.headers.get("connection", "").lower()
        )


async def read_http_request(reader: asyncio.StreamReader) -> HttpRequest | None:
    """Read one HTTP/1.1 request; ``None`` on EOF or a malformed preamble."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    except asyncio.LimitOverrunError:
        return None
    if len(head) > _MAX_HEADER_BYTES:
        return None
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        return None
    method, target, _http_version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length < 0 or length > _MAX_BODY_BYTES:
        return None
    body = await reader.readexactly(length) if length else b""
    return HttpRequest(method.upper(), target, headers, body)


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    101: "Switching Protocols",
}


def http_response(
    status: int,
    body: bytes | str = b"",
    *,
    content_type: str = "application/json",
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    """Serialise one HTTP/1.1 response (connection: close)."""
    if isinstance(body, str):
        body = body.encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Status')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


# ----------------------------------------------------------------------
# RFC 6455 framing
# ----------------------------------------------------------------------
def websocket_accept_key(client_key: str) -> str:
    """``Sec-WebSocket-Accept`` for a client's ``Sec-WebSocket-Key``."""
    digest = hashlib.sha1((client_key + _WS_MAGIC).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def _mask_payload(payload: bytes, mask: bytes) -> bytes:
    # XOR with the 4-byte mask, vectorised via int arithmetic.
    if not payload:
        return payload
    repeated = (mask * (len(payload) // 4 + 1))[: len(payload)]
    return (
        int.from_bytes(payload, "big") ^ int.from_bytes(repeated, "big")
    ).to_bytes(len(payload), "big")


def build_ws_frame(opcode: int, payload: bytes, *, mask: bool = False, fin: bool = True) -> bytes:
    """Serialise one WebSocket frame (client frames must set ``mask``)."""
    header = bytearray([(0x80 if fin else 0) | opcode])
    mask_bit = 0x80 if mask else 0
    length = len(payload)
    if length < 126:
        header.append(mask_bit | length)
    elif length < 1 << 16:
        header.append(mask_bit | 126)
        header += struct.pack(">H", length)
    else:
        header.append(mask_bit | 127)
        header += struct.pack(">Q", length)
    if mask:
        mask_key = os.urandom(4)
        header += mask_key
        payload = _mask_payload(payload, mask_key)
    return bytes(header) + payload


def parse_ws_frame_header(data: bytes) -> tuple[int, bool, int, bytes | None, int] | None:
    """Parse a frame header from ``data``.

    Returns ``(opcode, fin, payload_length, mask_key, header_size)`` or
    ``None`` if more bytes are needed.  Used by the tests to exercise the
    codec without a socket; the connection class reads incrementally instead.
    """
    if len(data) < 2:
        return None
    fin = bool(data[0] & 0x80)
    opcode = data[0] & 0x0F
    masked = bool(data[1] & 0x80)
    length = data[1] & 0x7F
    offset = 2
    if length == 126:
        if len(data) < offset + 2:
            return None
        length = struct.unpack_from(">H", data, offset)[0]
        offset += 2
    elif length == 127:
        if len(data) < offset + 8:
            return None
        length = struct.unpack_from(">Q", data, offset)[0]
        offset += 8
    mask_key = None
    if masked:
        if len(data) < offset + 4:
            return None
        mask_key = data[offset : offset + 4]
        offset += 4
    return opcode, fin, length, mask_key, offset


class WebSocketConnection:
    """A WebSocket over asyncio streams, after the handshake.

    Args:
        reader / writer: the connection's streams.
        mask_outgoing: ``True`` on the client side (RFC 6455 requires client
            frames to be masked; server frames must not be).
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        mask_outgoing: bool,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._mask = mask_outgoing
        self.closed = False

    async def send_text(self, text: str) -> None:
        await self._send(OP_TEXT, text.encode("utf-8"))

    async def _send(self, opcode: int, payload: bytes) -> None:
        if self.closed:
            raise ConnectionError("websocket is closed")
        self._writer.write(build_ws_frame(opcode, payload, mask=self._mask))
        await self._writer.drain()

    async def _read_frame(self) -> tuple[int, bool, bytes] | None:
        try:
            first = await self._reader.readexactly(2)
        except asyncio.IncompleteReadError:
            return None
        fin = bool(first[0] & 0x80)
        opcode = first[0] & 0x0F
        masked = bool(first[1] & 0x80)
        length = first[1] & 0x7F
        if length == 126:
            length = struct.unpack(">H", await self._reader.readexactly(2))[0]
        elif length == 127:
            length = struct.unpack(">Q", await self._reader.readexactly(8))[0]
        if length > _MAX_WS_PAYLOAD:
            raise ConnectionError(f"websocket frame of {length} bytes exceeds the limit")
        mask_key = await self._reader.readexactly(4) if masked else None
        payload = await self._reader.readexactly(length) if length else b""
        if mask_key is not None:
            payload = _mask_payload(payload, mask_key)
        return opcode, fin, payload

    async def recv_text(self) -> str | None:
        """The next text/binary message, transparently handling control
        frames and fragmentation.  ``None`` once the peer closes.

        Bytes that are not UTF-8 come back surrogate-escaped (PEP 383), so
        :func:`~repro.server.protocol.load_json` refuses them as it refuses
        the same bytes in a long-poll body, and the connection stays up."""
        buffer = b""
        while True:
            try:
                frame = await self._read_frame()
            except (asyncio.IncompleteReadError, ConnectionError):
                # Monotonic latch: closed only transitions False -> True, so a
                # concurrent close() writes the same value — no lost update.
                self.closed = True
                return None
            if frame is None:
                self.closed = True  # monotonic latch: see comment above
                return None
            opcode, fin, payload = frame
            if opcode == OP_PING:
                try:
                    await self._send(OP_PONG, payload)
                except ConnectionError:
                    return None
                continue
            if opcode == OP_PONG:
                continue
            if opcode == OP_CLOSE:
                if not self.closed:
                    self.closed = True
                    try:
                        self._writer.write(
                            build_ws_frame(OP_CLOSE, payload[:2], mask=self._mask)
                        )
                        await self._writer.drain()
                    except (ConnectionError, RuntimeError):
                        pass
                return None
            if opcode in (OP_TEXT, OP_BINARY, OP_CONT):
                buffer += payload
                if fin:
                    return buffer.decode("utf-8", errors="surrogateescape")
                continue
            # Unknown opcode: skip the frame rather than killing the link.

    async def close(self) -> None:
        if not self.closed:
            self.closed = True
            try:
                self._writer.write(build_ws_frame(OP_CLOSE, b"", mask=self._mask))
                await self._writer.drain()
            except (ConnectionError, RuntimeError):
                pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass


async def server_websocket_handshake(
    writer: asyncio.StreamWriter, request: HttpRequest
) -> bool:
    """Answer a WebSocket upgrade request; ``False`` if it was malformed."""
    key = request.headers.get("sec-websocket-key")
    if not key:
        writer.write(http_response(400, json.dumps({"error": "missing Sec-WebSocket-Key"})))
        await writer.drain()
        return False
    writer.write(
        (
            "HTTP/1.1 101 Switching Protocols\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Accept: {websocket_accept_key(key)}\r\n"
            "\r\n"
        ).encode("latin-1")
    )
    await writer.drain()
    return True


async def connect_websocket(host: str, port: int, path: str) -> WebSocketConnection:
    """Open a client WebSocket to ``ws://host:port{path}``."""
    reader, writer = await asyncio.open_connection(host, port)
    key = base64.b64encode(os.urandom(16)).decode("ascii")
    writer.write(
        (
            f"GET {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\n"
            "Sec-WebSocket-Version: 13\r\n"
            "\r\n"
        ).encode("latin-1")
    )
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
    if " 101 " not in f"{status_line} ":
        writer.close()
        raise ConnectionError(f"websocket handshake rejected: {status_line}")
    expected = websocket_accept_key(key)
    for line in head.decode("latin-1").split("\r\n")[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "sec-websocket-accept" and value.strip() != expected:
            writer.close()
            raise ConnectionError("websocket handshake returned a bad accept key")
    return WebSocketConnection(reader, writer, mask_outgoing=True)
