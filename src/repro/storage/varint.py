"""Variable-length integer encoding used throughout the storage formats.

The event-graph file format (paper §3.8) encodes almost everything as small
integers: run lengths, position deltas, parent back-references, sequence
numbers.  A LEB128-style varint keeps small numbers in one byte and grows as
needed, exactly like the "variable-length binary encoding of integers"
described in the paper.

Signed values use zig-zag encoding so that small negative deltas (common for
position jumps when the user moves the cursor backwards) also stay short.

Whole columns go through the two kernels :func:`pack_uvarints` /
:func:`unpack_uvarints` — one loop over a ``bytearray`` / a ``bytes`` per
column instead of one call (and two allocations) per value.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "encode_uvarint",
    "decode_uvarint",
    "encode_svarint",
    "decode_svarint",
    "zigzag_encode",
    "zigzag_decode",
    "pack_uvarints",
    "unpack_uvarints",
    "ByteReader",
    "ByteWriter",
]


def encode_uvarint(value: int) -> bytes:
    """Encode a non-negative integer as a LEB128 varint."""
    if value < 0:
        raise ValueError("uvarint cannot encode negative values")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint from ``data`` at ``offset``; returns ``(value, next_offset)``."""
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise ValueError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise ValueError("varint too long")


def zigzag_encode(value: int) -> int:
    """Map signed integers onto unsigned ones (0, -1, 1, -2, 2 -> 0, 1, 2, 3, 4)."""
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def zigzag_decode(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def encode_svarint(value: int) -> bytes:
    """Encode a signed integer with zig-zag + varint."""
    return encode_uvarint(zigzag_encode(value))


def decode_svarint(data: bytes, offset: int = 0) -> tuple[int, int]:
    raw, pos = decode_uvarint(data, offset)
    return zigzag_decode(raw), pos


def pack_uvarints(values: Iterable[int]) -> bytes:
    """Encode a whole column of non-negative integers, back to back."""
    out = bytearray()
    append = out.append
    for value in values:
        if value < 0:
            raise ValueError("uvarint cannot encode negative values")
        while value > 0x7F:
            append((value & 0x7F) | 0x80)
            value >>= 7
        append(value)
    return bytes(out)


def unpack_uvarints(data: bytes, count: int | None = None) -> list[int]:
    """Decode a whole column: exactly ``count`` varints (``None``: however
    many there are) filling ``data`` to its last byte.

    Raises:
        ValueError: truncated varint, a continuation run past 63 bits, or a
            value count other than ``count`` (too few values, or trailing
            bytes that decode to more).
    """
    out: list[int] = []
    append = out.append
    value = shift = 0
    for byte in data:
        if byte < 0x80:
            append(value | (byte << shift))
            value = shift = 0
        else:
            value |= (byte & 0x7F) << shift
            shift += 7
            if shift > 63:
                raise ValueError("varint too long")
    if shift:
        raise ValueError("truncated varint")
    if count is not None and len(out) != count:
        raise ValueError(f"column holds {len(out)} varints, expected {count}")
    return out


class ByteWriter:
    """Accumulates a byte column."""

    def __init__(self) -> None:
        self._parts = bytearray()

    def write_uvarint(self, value: int) -> None:
        self._parts.extend(encode_uvarint(value))

    def write_svarint(self, value: int) -> None:
        self._parts.extend(encode_svarint(value))

    def write_bytes(self, data: bytes) -> None:
        self._parts.extend(data)

    def write_length_prefixed(self, data: bytes) -> None:
        self.write_uvarint(len(data))
        self.write_bytes(data)

    def write_string(self, text: str) -> None:
        self.write_length_prefixed(text.encode("utf-8"))

    def getvalue(self) -> bytes:
        return bytes(self._parts)


class ByteReader:
    """Sequential reader over a byte column."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def read_uvarint(self) -> int:
        value, self._pos = decode_uvarint(self._data, self._pos)
        return value

    def read_svarint(self) -> int:
        value, self._pos = decode_svarint(self._data, self._pos)
        return value

    def read_bytes(self, length: int) -> bytes:
        if self._pos + length > len(self._data):
            raise ValueError("truncated data")
        out = self._data[self._pos : self._pos + length]
        self._pos += length
        return out

    def read_length_prefixed(self) -> bytes:
        length = self.read_uvarint()
        return self.read_bytes(length)

    def read_string(self) -> str:
        return self.read_length_prefixed().decode("utf-8")

    def at_end(self) -> bool:
        return self._pos >= len(self._data)

    def remaining(self) -> int:
        return len(self._data) - self._pos
