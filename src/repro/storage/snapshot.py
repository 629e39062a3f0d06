"""Persisted version handles: bookmarks, review anchors, named checkpoints.

Versions are stored **id-based** (:class:`repro.history.Version`): each id
names the last character covered on its branch, so a decoded handle resolves
correctly against any replica's graph no matter how that replica carved the
same history into runs, and no matter how much was edited since.  (The cached
document text lives in the event-graph file's snapshot column,
:mod:`repro.storage.container`.)
"""

from __future__ import annotations

from ..core.ids import EventId
from ..history.version import Version
from .varint import ByteReader, ByteWriter

__all__ = ["encode_version", "decode_version"]

_VERSION_MAGIC = b"EGVR"


def encode_version(version: Version) -> bytes:
    """Serialise a saved :class:`~repro.history.Version` handle.

    O(frontier heads).  The encoding carries only ``(agent, seq)`` character
    ids — no local indices — so a decoded handle resolves on any replica of
    the same document, across re-carved syncs and in-place run extensions.
    """
    writer = ByteWriter()
    writer.write_bytes(_VERSION_MAGIC)
    writer.write_uvarint(len(version.ids))
    for agent, seq in version.ids:
        writer.write_string(agent)
        writer.write_uvarint(seq)
    return writer.getvalue()


def decode_version(data: bytes) -> Version:
    """Inverse of :func:`encode_version`.

    Raises:
        ValueError: if ``data`` is not an encoded version handle.
    """
    reader = ByteReader(data)
    if reader.read_bytes(4) != _VERSION_MAGIC:
        raise ValueError("not an encoded version handle")
    count = reader.read_uvarint()
    return Version(
        EventId(reader.read_string(), reader.read_uvarint()) for _ in range(count)
    )
