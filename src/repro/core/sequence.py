"""The walker's item sequence: shared pieces and the record index (§3.3–3.4).

The internal state is a linear sequence of items (record runs and placeholder
pieces, see :mod:`repro.core.records`), stored in the counted B+-tree of
:class:`~repro.core.order_statistic_tree.TreeSequence`.  The walker needs to

* map a prepare-version index to the unit (item + offset) holding that
  character,
* map a unit back to its effect-version index,
* insert new record runs at arbitrary positions,
* split record runs and placeholder pieces when an event addresses only part
  of them, and
* adjust visibility counters when an item's ``s_p`` / ``s_e`` state changes.

This module holds what the tree builds on: the :class:`Cursor`, the ids of
runs carved out of placeholders, and the :class:`RecordIndex` — the paper's
second B-tree, mapping ``(agent, seq)`` character ids to the record run
currently covering them.  The index is a range map over id spans, so it stays
O(runs + splits) in size rather than O(chars).

Positions are expressed in *units*: an item of length L is L units.  A
:class:`Cursor` identifies a gap between units.

The order the tree gives concurrent insertions is checked against an
independent list CRDT: :class:`repro.crdt.SimpleListCRDT` shadows every
replica in the convergence fuzzer (``tests/test_fuzz_convergence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .ids import EventId
from .range_map import RangeIndex
from .records import CrdtRecord, Item, OriginRef, PlaceholderPiece, placeholder_origin

__all__ = [
    "Cursor",
    "RecordIndex",
    "carved_record_id",
    "SYNTHETIC_AGENT",
]

#: Agent name used for record runs carved out of a placeholder (§3.6).
SYNTHETIC_AGENT = "__placeholder__"


def carved_record_id(original_offset: int) -> EventId:
    """The id of the carved-record character at an original placeholder offset.

    Carved runs are keyed by their position in the *original* placeholder
    (their ``ph_base``), so the id is deterministic: ``offset`` within one
    clear-to-clear era names the same character forever.  Runs carved out of
    adjacent placeholder spans by *separate* deletes therefore get contiguous
    id spans and can re-merge like any other split record.  Offsets are
    unique within an era (a placeholder character can only be carved once)
    and the whole id space is reset with the state, so collisions are
    impossible.
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


class RecordIndex:
    """The id-keyed indices of the item sequence (the paper's second B-tree).

    ``_record_index`` maps each agent's character seqs to the record run
    covering them; ``_carved_index`` maps original placeholder offsets to the
    runs carved out of them (§3.6).
    """

    def __init__(self) -> None:
        self._record_index: dict[str, RangeIndex[CrdtRecord]] = {}
        self._carved_index: RangeIndex[CrdtRecord] = RangeIndex(_record_length)

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
        """Index bookkeeping of a merge of ``right`` into ``left``: drop
        ``right``'s registrations and grow ``left`` over its span."""
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


def _record_length(record: CrdtRecord) -> int:
    return record.length


def _ref_to_unit(item: Item, offset: int) -> OriginRef:
    """Id-based reference to the ``offset``-th unit of ``item``."""
    if isinstance(item, PlaceholderPiece):
        return placeholder_origin(item.base + offset)
    return item.id_at(offset)
