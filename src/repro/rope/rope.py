"""A chunked rope: the document-state text buffer (paper §3, "document state").

Eg-walker's steady state holds nothing but the document text.  The paper notes
that in memory the text "may be represented as a rope, piece table, or similar
structure to support efficient insertions and deletions".  This module
provides :class:`Rope`, a chunked sequence of small strings with an index of
cumulative lengths, giving O(√n)-ish edits with very small constants in pure
Python (string slicing inside a chunk is a fast C operation).

The structure is deliberately simple rather than a full balanced rope: the
benchmark traces top out at a few hundred kilobytes of text, where chunk
scanning is already far from the bottleneck.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["Rope"]

#: Target chunk size in characters.  Chunks split at twice this size.
CHUNK_SIZE = 2048


class Rope:
    """A mutable character sequence with efficient mid-string edits."""

    def __init__(self, text: str = "") -> None:
        self._chunks: list[str] = []
        self._length = 0
        if text:
            self._chunks = [
                text[i : i + CHUNK_SIZE] for i in range(0, len(text), CHUNK_SIZE)
            ]
            self._length = len(text)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    def __str__(self) -> str:
        return "".join(self._chunks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        preview = str(self)
        if len(preview) > 40:
            preview = preview[:37] + "..."
        return f"Rope({preview!r}, len={self._length})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Rope):
            return str(self) == str(other)
        if isinstance(other, str):
            return str(self) == other
        return NotImplemented

    def __iter__(self) -> Iterator[str]:
        for chunk in self._chunks:
            yield from chunk

    # ------------------------------------------------------------------
    def _locate(self, pos: int) -> tuple[int, int]:
        """Return ``(chunk_index, offset)`` for character position ``pos``.

        ``pos == len(self)`` locates the end of the final chunk so that
        appends work naturally.
        """
        if pos < 0 or pos > self._length:
            raise IndexError(f"position {pos} out of range (length {self._length})")
        remaining = pos
        for i, chunk in enumerate(self._chunks):
            if remaining <= len(chunk):
                # Prefer placing the cursor inside this chunk (including its
                # end) so insertions extend an existing chunk when possible.
                if remaining < len(chunk) or i == len(self._chunks) - 1:
                    return i, remaining
            remaining -= len(chunk)
        return len(self._chunks), 0

    def insert(self, pos: int, text: str) -> None:
        """Insert ``text`` before position ``pos``."""
        if not text:
            return
        if not self._chunks:
            self._chunks = [text]
            self._length = len(text)
            self._normalise(0)
            return
        idx, offset = self._locate(pos)
        if idx == len(self._chunks):
            self._chunks.append(text)
        else:
            chunk = self._chunks[idx]
            self._chunks[idx] = chunk[:offset] + text + chunk[offset:]
        self._length += len(text)
        self._normalise(idx)

    def delete(self, pos: int, length: int = 1) -> str:
        """Delete ``length`` characters starting at ``pos``; returns them."""
        if length <= 0:
            return ""
        if pos < 0 or pos + length > self._length:
            raise IndexError(
                f"delete of {length} at {pos} out of range (length {self._length})"
            )
        removed: list[str] = []
        remaining = length
        idx, offset = self._locate(pos)
        while remaining > 0:
            chunk = self._chunks[idx]
            take = min(remaining, len(chunk) - offset)
            removed.append(chunk[offset : offset + take])
            self._chunks[idx] = chunk[:offset] + chunk[offset + take :]
            remaining -= take
            if not self._chunks[idx]:
                del self._chunks[idx]
            else:
                idx += 1
            offset = 0
        self._length -= length
        return "".join(removed)

    def char_at(self, pos: int) -> str:
        """The character at ``pos``."""
        if pos < 0 or pos >= self._length:
            raise IndexError(f"position {pos} out of range (length {self._length})")
        remaining = pos
        for chunk in self._chunks:
            if remaining < len(chunk):
                return chunk[remaining]
            remaining -= len(chunk)
        raise IndexError(pos)  # pragma: no cover - unreachable

    def slice(self, start: int, end: int) -> str:
        """The substring ``[start, end)``."""
        if start < 0 or end > self._length or start > end:
            raise IndexError(f"slice [{start}, {end}) out of range (length {self._length})")
        out: list[str] = []
        remaining_skip = start
        remaining_take = end - start
        for chunk in self._chunks:
            if remaining_take == 0:
                break
            if remaining_skip >= len(chunk):
                remaining_skip -= len(chunk)
                continue
            take = min(remaining_take, len(chunk) - remaining_skip)
            out.append(chunk[remaining_skip : remaining_skip + take])
            remaining_skip = 0
            remaining_take -= take
        return "".join(out)

    def chunk_count(self) -> int:
        """Number of chunks currently held (used by memory accounting)."""
        return len(self._chunks)

    # ------------------------------------------------------------------
    def _normalise(self, idx: int) -> None:
        """Split the chunk at ``idx`` if it has grown too large."""
        if idx >= len(self._chunks):
            return
        chunk = self._chunks[idx]
        if len(chunk) <= 2 * CHUNK_SIZE:
            return
        pieces = [chunk[i : i + CHUNK_SIZE] for i in range(0, len(chunk), CHUNK_SIZE)]
        self._chunks[idx : idx + 1] = pieces
