"""Column compression: stdlib zlib (RFC 1950), the container's one codec."""

import zlib


def compress(data: bytes) -> bytes:
    return zlib.compress(data)


def decompress(data: bytes, raw_length: int) -> bytes:
    """Inflate exactly ``raw_length`` bytes, never allocating more; anything
    else (corrupt, short, long, trailing input) is a ``ValueError``."""
    inflater = zlib.decompressobj()
    try:
        out = inflater.decompress(data, raw_length + 1)
    except zlib.error as exc:
        raise ValueError(f"corrupt deflate stream: {exc}") from exc
    if len(out) != raw_length or not inflater.eof or inflater.unused_data:
        raise ValueError(f"deflate stream is not exactly {raw_length} bytes")
    return out
