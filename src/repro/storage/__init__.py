"""Persistent storage: columnar event-graph files, snapshots, compression.

One file format (``docs/SPEC.md``): the random-access columnar container
(:mod:`repro.storage.container`) with per-column zlib and CRCs, selective
reads (:func:`decode_text`) and lazy hydration (:class:`LazyDecodedFile`);
the per-column layouts are in :mod:`repro.storage.columns`.
"""

from .compression import compress, decompress
from .container import (
    ContainerOptions,
    DecodedFile,
    LazyDecodedFile,
    ReadStats,
    StorageError,
    decode_event_graph_v3,
    decode_file,
    decode_text,
    encode_event_graph_v3,
    parse_header,
)
from .snapshot import (
    Snapshot,
    decode_snapshot,
    decode_version,
    encode_snapshot,
    encode_version,
)
from .varint import (
    ByteReader,
    ByteWriter,
    decode_svarint,
    decode_uvarint,
    encode_svarint,
    encode_uvarint,
    pack_uvarints,
    unpack_uvarints,
)

__all__ = [
    "ByteReader",
    "ByteWriter",
    "ContainerOptions",
    "DecodedFile",
    "LazyDecodedFile",
    "ReadStats",
    "Snapshot",
    "StorageError",
    "compress",
    "decompress",
    "decode_event_graph_v3",
    "decode_file",
    "decode_snapshot",
    "decode_svarint",
    "decode_text",
    "decode_uvarint",
    "decode_version",
    "encode_event_graph_v3",
    "encode_snapshot",
    "encode_svarint",
    "encode_uvarint",
    "encode_version",
    "pack_uvarints",
    "parse_header",
    "unpack_uvarints",
]
