"""Generic integer range structures for run-length encoded id spaces.

Several layers of the pipeline need the same structure: values are registered
under an integer start key, each value covers a contiguous half-open range of
keys (its *length*), and lookups resolve any key to the covering value plus an
offset.  The event graph uses it per agent to map ``seq`` ids to run events;
the internal-state sequence uses it to map character ids to record
spans and original placeholder offsets to carved records.

Registration is O(log n) via bisect.  Ranges are usually *refined* — a split
registers the new right half under its own start, the existing entry simply
covers less — so a lookup is a single bisect plus a containment check against
the value's current length.  The inverse also exists for the span re-merging
optimisation: :meth:`RangeIndex.remove` drops the entry of a right half that
was coalesced back into its left neighbour (whose grown length then covers
the removed range again).

:class:`SpanSet` is the membership-only sibling: a set of integers kept as
sorted disjoint runs, used by the causal-broadcast layer to track which
character ids have been delivered without O(chars) memory.
"""

from __future__ import annotations

import bisect
from typing import Callable, Generic, MutableSequence, TypeVar

__all__ = ["RangeIndex", "SpanSet"]

T = TypeVar("T")


class RangeIndex(Generic[T]):
    """Maps integer keys to the value whose registered range covers them."""

    __slots__ = ("_starts", "_values", "_length_of")

    def __init__(
        self, length_of: Callable[[T], int], values: MutableSequence[T] | None = None
    ) -> None:
        self._starts: list[int] = []
        #: Parallel to ``_starts``; integer values may come in an ``array``
        #: (the event graph's handles do, 32-bit: ``array('i')``).
        self._values: MutableSequence[T] = [] if values is None else values
        #: Current length of a value's range; consulted at lookup time so
        #: splits that shrink a registered value are reflected immediately.
        self._length_of = length_of

    @classmethod
    def from_sorted(
        cls, length_of: Callable[[T], int], starts: list[int], values: MutableSequence[T]
    ) -> "RangeIndex[T]":
        """Bulk :meth:`register` of disjoint ranges: ``starts`` strictly
        ascending, ``values`` parallel to it (both kept, not copied)."""
        index = cls(length_of, values)
        index._starts = starts
        return index

    def __len__(self) -> int:
        return len(self._starts)

    def clear(self) -> None:
        self._starts.clear()
        del self._values[:]

    def register(self, start: int, value: T) -> None:
        """Register ``value`` as covering ``start .. start + length_of(value)``."""
        starts = self._starts
        if not starts or start > starts[-1]:
            starts.append(start)  # the common case: ranges arrive in key order
            self._values.append(value)
            return
        idx = bisect.bisect_left(starts, start)
        if starts[idx] == start:
            self._values[idx] = value
        else:
            starts.insert(idx, start)
            self._values.insert(idx, value)

    def find(self, key: int) -> tuple[T, int] | None:
        """The (value, offset) whose range contains ``key``, or ``None``."""
        idx = bisect.bisect_right(self._starts, key) - 1
        if idx < 0:
            return None
        value = self._values[idx]
        offset = key - self._starts[idx]
        if offset < self._length_of(value):
            return value, offset
        return None

    def next_start_in(self, lo: int, hi: int) -> int | None:
        """The smallest registered start in ``[lo, hi)``, or ``None``.

        Used to detect ranges that would envelop an existing entry.
        """
        idx = bisect.bisect_left(self._starts, lo)
        if idx < len(self._starts) and self._starts[idx] < hi:
            return self._starts[idx]
        return None

    def remove(self, start: int) -> None:
        """Drop the entry registered at exactly ``start`` (if any).

        Used when two adjacent spans are re-merged: the right span's entry is
        removed and lookups in its range fall back to the left span, whose
        grown length covers them again.
        """
        starts = self._starts
        idx = bisect.bisect_left(starts, start)
        if idx < len(starts) and starts[idx] == start:
            del starts[idx]
            del self._values[idx]


class SpanSet:
    """A set of integers stored as sorted, disjoint, half-open runs.

    Memory is O(runs), not O(members); adjacent and overlapping runs merge on
    insertion.  This is what lets the replication layer reason about delivered
    character ids per agent without materialising one entry per character.
    """

    __slots__ = ("_starts", "_ends")

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._ends: list[int] = []

    def __len__(self) -> int:
        """Number of stored runs (not members)."""
        return len(self._starts)

    def add(self, start: int, length: int = 1) -> None:
        """Add the run ``start .. start + length`` to the set."""
        if length <= 0:
            return
        end = start + length
        ends = self._ends
        if not ends or start > ends[-1]:
            self._starts.append(start)  # past the last run: a new tail run
            ends.append(end)
            return
        if start == ends[-1]:
            ends[-1] = end  # the next ids after the last run: extend it
            return
        # Runs that touch [start, end) get absorbed: the first candidate is
        # the last run starting at or before `end`, then walk left.
        lo = bisect.bisect_left(self._ends, start)
        hi = bisect.bisect_right(self._starts, end)
        if lo < hi:
            start = min(start, self._starts[lo])
            end = max(end, self._ends[hi - 1])
        self._starts[lo:hi] = [start]
        self._ends[lo:hi] = [end]

    def contains(self, key: int) -> bool:
        idx = bisect.bisect_right(self._starts, key) - 1
        return idx >= 0 and key < self._ends[idx]

    def covers(self, start: int, length: int) -> bool:
        """True iff the whole run ``start .. start + length`` is in the set."""
        idx = bisect.bisect_right(self._starts, start) - 1
        return idx >= 0 and start + length <= self._ends[idx]
