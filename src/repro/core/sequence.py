"""Sequence backends for the walker's internal state (paper §3.3–3.4).

The internal state is a linear sequence of items (record runs and placeholder
pieces, see :mod:`repro.core.records`).  The walker needs to

* map a prepare-version index to the unit (item + offset) holding that
  character,
* map a unit back to its effect-version index,
* insert new record runs at arbitrary positions,
* split record runs and placeholder pieces when an event addresses only part
  of them, and
* adjust visibility counters when an item's ``s_p`` / ``s_e`` state changes.

Two interchangeable backends implement this contract:

* :class:`ListSequence` — a plain Python list.  Lookups are linear scans, so
  the cost per operation is O(n).  This mirrors the paper's simple TypeScript
  reference implementation and doubles as the correctness oracle in tests.
* :class:`~repro.core.order_statistic_tree.TreeSequence` — a counted B+-tree
  (an order statistic tree, §3.4) with O(log n) lookups and updates; this is
  what the optimised walker uses.

Positions are expressed in *units*: an item of length L is L units.  A
:class:`Cursor` identifies a gap between units.  Because origin references are
id-based (see :mod:`repro.core.records`), each backend also maintains a
*record index* — the paper's second B-tree — mapping ``(agent, seq)``
character ids to the record run currently covering them; the index is a range
map over id spans, so it stays O(runs + splits) in size rather than O(chars).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .ids import EventId
from .range_map import RangeIndex
from .records import (
    CrdtRecord,
    Item,
    OriginRef,
    PlaceholderPiece,
    placeholder_origin,
)

__all__ = [
    "Cursor",
    "SequenceBackend",
    "ListSequence",
    "synthetic_record_id",
    "carved_record_id",
    "SYNTHETIC_AGENT",
]

_synthetic_counter = itertools.count()

#: Agent name used for record runs carved out of a placeholder (§3.6).
SYNTHETIC_AGENT = "__placeholder__"


def synthetic_record_id(length: int = 1) -> EventId:
    """A locally unique id span for a run carved out of a placeholder.

    Placeholder ids only need to be unique within the local replica (§3.6);
    they are never replicated, compared across replicas, or persisted.  The
    returned id names the first character of the carved run; ``length``
    consecutive seqs are reserved.
    """
    start = next(_synthetic_counter)
    for _ in range(length - 1):
        next(_synthetic_counter)
    return EventId(SYNTHETIC_AGENT, start)


def carved_record_id(original_offset: int) -> EventId:
    """The id of the carved-record character at an original placeholder offset.

    Carved runs are keyed by their position in the *original* placeholder
    (their ``ph_base``), so the id is deterministic: ``offset`` within one
    clear-to-clear era names the same character forever.  Runs carved out of
    adjacent placeholder spans by *separate* deletes therefore get contiguous
    id spans and can re-merge like any other split record — with the
    counter-based :func:`synthetic_record_id` they never could, because the
    counter advances between carves.  Offsets are unique within an era (a
    placeholder character can only be carved once) and the whole id space is
    reset with the state, so collisions are impossible.
    """
    return EventId(SYNTHETIC_AGENT, original_offset)


@dataclass(slots=True)
class Cursor:
    """A gap in the item sequence: before unit ``offset`` of ``item``.

    ``item is None`` means the cursor is at the very end of the sequence.
    ``offset > 0`` places the gap strictly inside a multi-unit item (a
    placeholder piece or a record run), which the mutation methods resolve by
    splitting the item.
    """

    item: Item | None
    offset: int = 0

    @property
    def at_end(self) -> bool:
        return self.item is None


class SequenceBackend:
    """Abstract contract shared by the list and tree backends.

    The registry-management helpers at the bottom are concrete: both backends
    store their record index and carved index the same way and only differ in
    how the item sequence itself is organised.
    """

    def __init__(self) -> None:
        self._record_index: dict[str, RangeIndex[CrdtRecord]] = {}
        self._carved_index: RangeIndex[CrdtRecord] = RangeIndex(_record_length)

    # -- construction / reset -------------------------------------------------
    def clear(self, placeholder_length: int) -> None:
        """Reset to a single placeholder of ``placeholder_length`` units."""
        raise NotImplementedError

    # -- lookups --------------------------------------------------------------
    def find_insert_cursor(self, prepare_pos: int) -> Cursor:
        """Leftmost gap with exactly ``prepare_pos`` prepare-visible units before it."""
        raise NotImplementedError

    def find_visible_unit(self, prepare_pos: int) -> tuple[Item, int]:
        """The unit that is the ``prepare_pos``-th prepare-visible unit."""
        raise NotImplementedError

    def origin_left_of_cursor(self, cursor: Cursor) -> OriginRef:
        """Id-based reference to the unit immediately before ``cursor`` (None = start)."""
        raise NotImplementedError

    def next_existing_in_prepare(self, cursor: Cursor) -> OriginRef:
        """Reference to the first unit at/after ``cursor`` that exists in the
        prepare version (``s_p >= 1`` or placeholder); None = document end."""
        raise NotImplementedError

    def unit_position_of_ref(self, ref: OriginRef) -> int:
        """Absolute unit index of an origin reference."""
        item, offset = self.resolve_ref(ref)
        return self.unit_position_of_item(item, offset)

    def unit_position_of_item(self, item: Item, offset: int = 0) -> int:
        """Number of units strictly before the given unit."""
        raise NotImplementedError

    def effect_position_of_item(self, item: Item, offset: int = 0) -> int:
        """Number of effect-visible units strictly before the given unit.

        ``offset`` is a unit offset within ``item`` and must only be non-zero
        for items that are effect-visible (placeholders or undeleted records),
        where unit offsets and effect offsets coincide.
        """
        raise NotImplementedError

    def iter_items_from_cursor(self, cursor: Cursor) -> Iterator[Item]:
        """Items from the cursor's item (inclusive) to the end of the sequence."""
        raise NotImplementedError

    def iter_items(self) -> Iterator[Item]:
        raise NotImplementedError

    # -- mutation -------------------------------------------------------------
    def insert_record_at_cursor(self, cursor: Cursor, record: CrdtRecord) -> None:
        """Insert ``record`` at the gap identified by ``cursor`` (splitting the
        item the cursor points into when the gap is strictly inside it)."""
        raise NotImplementedError

    def insert_record_before_item(self, target: Item | None, record: CrdtRecord) -> None:
        """Insert ``record`` immediately before ``target`` (None = append)."""
        raise NotImplementedError

    def convert_placeholder_run(
        self, piece: PlaceholderPiece, offset: int, record: CrdtRecord
    ) -> None:
        """Replace ``record.length`` placeholder units starting at ``offset``
        with ``record`` (splitting the piece as needed)."""
        raise NotImplementedError

    def split_record(self, record: CrdtRecord, offset: int) -> CrdtRecord:
        """Split ``record`` before character ``offset``; return the right half.

        Aggregate counts are unchanged; the right half is registered with the
        id index (and the carved index, for carved runs).
        """
        raise NotImplementedError

    def merge_into_left(self, left: CrdtRecord, right: CrdtRecord) -> None:
        """Coalesce ``right`` (the item directly after ``left``) into ``left``.

        The inverse of :meth:`split_record`: ``right`` is removed from the
        sequence and its indices, and ``left`` grows to cover its characters.
        The caller guarantees mergeability (:meth:`CrdtRecord.can_merge_with`),
        which makes the operation lossless — a later split at the same
        boundary reconstructs byte-identical records.
        """
        raise NotImplementedError

    def neighbours(self, item: Item) -> tuple[Item | None, Item | None]:
        """The items directly before and after ``item`` (``None`` at an end)."""
        raise NotImplementedError

    def update_item_counts(self, item: Item, d_prepare: int, d_effect: int) -> None:
        """Notify the backend that ``item``'s visibility counters changed."""
        raise NotImplementedError

    # -- statistics -----------------------------------------------------------
    def total_units(self) -> int:
        raise NotImplementedError

    def prepare_length(self) -> int:
        """Total prepare-visible units (document length in the prepare version)."""
        raise NotImplementedError

    def effect_length(self) -> int:
        """Total effect-visible units (document length in the effect version)."""
        raise NotImplementedError

    def memory_items(self) -> int:
        """Number of items currently held (used by the memory benchmarks)."""
        raise NotImplementedError

    # -- record index (concrete) ----------------------------------------------
    def _reset_indices(self) -> None:
        self._record_index = {}
        self._carved_index = RangeIndex(_record_length)

    def register_record(self, record: CrdtRecord) -> None:
        """Register ``record``'s id span (and carved span) with the indices."""
        index = self._record_index.get(record.id.agent)
        if index is None:
            index = self._record_index[record.id.agent] = RangeIndex(_record_length)
        index.register(record.id.seq, record)
        if record.ph_base is not None:
            self._carved_index.register(record.ph_base, record)

    def _absorb_record(self, left: CrdtRecord, right: CrdtRecord) -> None:
        """Index bookkeeping shared by both backends' :meth:`merge_into_left`:
        drop ``right``'s registrations and grow ``left`` over its span."""
        index = self._record_index.get(right.id.agent)
        if index is not None:
            index.remove(right.id.seq)
        if right.ph_base is not None:
            self._carved_index.remove(right.ph_base)
        left.length += right.length

    def record_at(self, event_id: EventId) -> tuple[CrdtRecord, int]:
        """The (record, offset) currently covering the character ``event_id``."""
        return self.record_at_seq(event_id.agent, event_id.seq)

    def record_at_seq(self, agent: str, seq: int) -> tuple[CrdtRecord, int]:
        """:meth:`record_at` for loops that walk an id span by its seqs."""
        index = self._record_index.get(agent)
        found = index.find(seq) if index is not None else None
        if found is None:
            raise KeyError(f"no record covers id {agent}:{seq}")
        return found

    def record_spans(self, start_id: EventId, length: int) -> list[tuple[CrdtRecord, int, int]]:
        """All (record, offset, span_len) covering ids ``start_id .. +length``.

        The spans partition the id range; splits performed after the ids were
        first applied are reflected (each fragment is returned separately).
        """
        spans: list[tuple[CrdtRecord, int, int]] = []
        seq = start_id.seq
        end = start_id.seq + length
        while seq < end:
            record, offset = self.record_at_seq(start_id.agent, seq)
            span_len = min(record.length - offset, end - seq)
            spans.append((record, offset, span_len))
            seq += span_len
        return spans

    def carved_record_at(self, original_offset: int) -> tuple[CrdtRecord, int] | None:
        """The carved (record, offset) covering an original placeholder offset."""
        return self._carved_index.find(original_offset)

    def resolve_ref(self, ref: OriginRef) -> tuple[Item, int]:
        """Resolve an origin reference to the (item, unit offset) holding it."""
        if isinstance(ref, EventId):
            return self.record_at(ref)
        if isinstance(ref, tuple) and len(ref) == 2 and ref[0] == "ph":
            original_offset = ref[1]
            carved = self.carved_record_at(original_offset)
            if carved is not None:
                return carved
            return self.resolve_placeholder(original_offset)
        raise TypeError(f"cannot resolve origin reference {ref!r}")

    def resolve_placeholder(self, original_offset: int) -> tuple[PlaceholderPiece, int]:
        """The placeholder piece currently holding an original offset."""
        raise NotImplementedError


def _record_length(record: CrdtRecord) -> int:
    return record.length


class ListSequence(SequenceBackend):
    """Internal-state sequence stored in a flat Python list (O(n) operations)."""

    def __init__(self, placeholder_length: int = 0) -> None:
        super().__init__()
        self._items: list[Item] = []
        self.clear(placeholder_length)

    # -- construction / reset -------------------------------------------------
    def clear(self, placeholder_length: int) -> None:
        self._items = []
        self._reset_indices()
        if placeholder_length > 0:
            self._items.append(PlaceholderPiece(base=0, length=placeholder_length))

    # -- lookups --------------------------------------------------------------
    def find_insert_cursor(self, prepare_pos: int) -> Cursor:
        remaining = prepare_pos
        for item in self._items:
            if remaining == 0:
                return Cursor(item, 0)
            visible = item.prepare_units
            if visible >= remaining:
                if visible == remaining:
                    # The gap right after this item: expressed as a cursor
                    # before the *next* item so that a split is avoided when
                    # possible (and so concurrent siblings after the item are
                    # scanned by the integration rule).
                    return self._cursor_after(item)
                # Strictly inside a multi-unit item (prepare-visible items
                # have unit offset == prepare offset).
                return Cursor(item, remaining)
            remaining -= visible
        if remaining != 0:
            raise IndexError(
                f"insert position {prepare_pos} beyond prepare-visible length "
                f"{self.prepare_length()}"
            )
        return Cursor(None)

    def _cursor_after(self, item: Item) -> Cursor:
        """Cursor at the gap immediately after all units of ``item``."""
        idx = self._index_of_item(item)
        if idx + 1 < len(self._items):
            return Cursor(self._items[idx + 1], 0)
        return Cursor(None)

    def find_visible_unit(self, prepare_pos: int) -> tuple[Item, int]:
        remaining = prepare_pos
        for item in self._items:
            visible = item.prepare_units
            if visible > remaining:
                return item, remaining
            remaining -= visible
        raise IndexError(
            f"delete position {prepare_pos} beyond prepare-visible length "
            f"{self.prepare_length()}"
        )

    def origin_left_of_cursor(self, cursor: Cursor) -> OriginRef:
        if cursor.item is not None and cursor.offset > 0:
            return _ref_to_unit(cursor.item, cursor.offset - 1)
        idx = len(self._items) if cursor.at_end else self._index_of_item(cursor.item)
        if idx == 0:
            return None
        prev = self._items[idx - 1]
        return _ref_to_unit(prev, prev.units - 1)

    def next_existing_in_prepare(self, cursor: Cursor) -> OriginRef:
        if cursor.at_end:
            return None
        start = self._index_of_item(cursor.item)
        for item in self._items[start:]:
            offset = cursor.offset if item is cursor.item else 0
            if isinstance(item, PlaceholderPiece):
                return placeholder_origin(item.base + offset)
            if item.exists_in_prepare:
                return item.id_at(offset)
        return None

    def unit_position_of_item(self, item: Item, offset: int = 0) -> int:
        pos = 0
        for other in self._items:
            if other is item:
                return pos + offset
            pos += other.units
        raise KeyError(f"item {item!r} not found in sequence")

    def effect_position_of_item(self, item: Item, offset: int = 0) -> int:
        pos = 0
        for other in self._items:
            if other is item:
                return pos + offset
            pos += other.effect_units
        raise KeyError(f"item {item!r} not found in sequence")

    def iter_items_from_cursor(self, cursor: Cursor) -> Iterator[Item]:
        if cursor.at_end:
            return iter(())
        start = self._index_of_item(cursor.item)
        return iter(self._items[start:])

    def iter_items(self) -> Iterator[Item]:
        return iter(self._items)

    # -- mutation -------------------------------------------------------------
    def insert_record_at_cursor(self, cursor: Cursor, record: CrdtRecord) -> None:
        if cursor.at_end:
            self._items.append(record)
            self.register_record(record)
            return
        idx = self._index_of_item(cursor.item)
        if cursor.offset > 0:
            target = cursor.item
            if isinstance(target, PlaceholderPiece):
                left, right = self._split_piece(target, cursor.offset)
                self._items[idx : idx + 1] = [left, record, right]
            else:
                right = target.split(cursor.offset)
                self._items[idx + 1 : idx + 1] = [record, right]
                self.register_record(right)
            self.register_record(record)
            return
        self._items.insert(idx, record)
        self.register_record(record)

    def insert_record_before_item(self, target: Item | None, record: CrdtRecord) -> None:
        if target is None:
            self._items.append(record)
        else:
            self._items.insert(self._index_of_item(target), record)
        self.register_record(record)

    def convert_placeholder_run(
        self, piece: PlaceholderPiece, offset: int, record: CrdtRecord
    ) -> None:
        idx = self._index_of_item(piece)
        right_start = offset + record.length
        if right_start > piece.length:
            raise ValueError("carved run exceeds the placeholder piece")
        replacement: list[Item] = []
        if offset > 0:
            replacement.append(PlaceholderPiece(base=piece.base, length=offset))
        replacement.append(record)
        if right_start < piece.length:
            replacement.append(
                PlaceholderPiece(base=piece.base + right_start, length=piece.length - right_start)
            )
        self._items[idx : idx + 1] = replacement
        if record.ph_base is None:
            record.ph_base = piece.base + offset
        self.register_record(record)

    def split_record(self, record: CrdtRecord, offset: int) -> CrdtRecord:
        idx = self._index_of_item(record)
        right = record.split(offset)
        self._items.insert(idx + 1, right)
        self.register_record(right)
        return right

    def merge_into_left(self, left: CrdtRecord, right: CrdtRecord) -> None:
        del self._items[self._index_of_item(right)]
        self._absorb_record(left, right)

    def neighbours(self, item: Item) -> tuple[Item | None, Item | None]:
        items = self._items
        idx = self._index_of_item(item)
        return (
            items[idx - 1] if idx > 0 else None,
            items[idx + 1] if idx + 1 < len(items) else None,
        )

    def update_item_counts(self, item: Item, d_prepare: int, d_effect: int) -> None:
        # The list backend recomputes counts on demand, so nothing to do.
        return None

    # -- statistics -----------------------------------------------------------
    def total_units(self) -> int:
        return sum(item.units for item in self._items)

    def prepare_length(self) -> int:
        return sum(item.prepare_units for item in self._items)

    def effect_length(self) -> int:
        return sum(item.effect_units for item in self._items)

    def memory_items(self) -> int:
        return len(self._items)

    # -- helpers --------------------------------------------------------------
    def _index_of_item(self, item: Item) -> int:
        for i, candidate in enumerate(self._items):
            if candidate is item:
                return i
        raise KeyError(f"item {item!r} not found in sequence")

    def _split_piece(
        self, piece: PlaceholderPiece, offset: int
    ) -> tuple[PlaceholderPiece, PlaceholderPiece]:
        """Split ``piece`` into two pieces at ``offset`` (both non-empty)."""
        left = PlaceholderPiece(base=piece.base, length=offset)
        right = PlaceholderPiece(base=piece.base + offset, length=piece.length - offset)
        return left, right

    def resolve_placeholder(self, original_offset: int) -> tuple[PlaceholderPiece, int]:
        for item in self._items:
            if isinstance(item, PlaceholderPiece):
                if item.base <= original_offset < item.base + item.length:
                    return item, original_offset - item.base
        raise KeyError(f"placeholder offset {original_offset} not found")


def _ref_to_unit(item: Item, offset: int) -> OriginRef:
    """Id-based reference to the ``offset``-th unit of ``item``."""
    if isinstance(item, PlaceholderPiece):
        return placeholder_origin(item.base + offset)
    return item.id_at(offset)
