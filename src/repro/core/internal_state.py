"""Eg-walker's transient internal CRDT state (paper §3.3–3.4, §3.6).

The :class:`InternalState` holds the sequence of record runs the walker uses
to transform operations, together with the map from event ids to records (the
paper's second B-tree, maintained by the sequence backend as an id range
index).  It exposes exactly the three methods of §3.2 — ``apply``, ``retreat``
and ``advance`` (here split into insert/delete flavours of apply) — plus
``clear`` for the state-clearing optimisation of §3.5.

All methods are **run-native**: one call applies/retreats/advances a whole run
event, touching O(spans) items instead of O(chars).  Record runs are split
lazily, only when concurrency forces two parts of a run into different states
(a delete covering part of a run, an insert landing between two characters of
a run, or a run straddling a placeholder/record boundary).

Splits are also **undone**: whenever a state change leaves two adjacent spans
id-contiguous and state-identical (typically after a retreat or advance
resolves the concurrency that forced the split, or when a graph-level split
run is replayed piecewise), the spans are re-merged
(:meth:`CrdtRecord.can_merge_with` guarantees the merge is the exact inverse
of a split, so it is lossless).  Long sessions therefore shrink back toward
O(runs) spans once concurrency resolves instead of accumulating fragments
forever; ``spans_merged`` counts the coalesces for
:class:`~repro.core.walker.WalkerStats`.

Concurrent insertions at the same position are ordered with a YATA-style
integration rule (the "YjsMod" variant used by the paper's reference
implementation): each record stores id-based references to the character to
its left and the next character that existed in its prepare version at
insertion time (its *origins*), and a small scan over the other concurrent
records placed at the same gap decides a consistent total order regardless of
the order in which the events are replayed.

The sequence itself is provided by a pluggable backend (list or
order-statistic tree, see :mod:`repro.core.sequence`), so this module contains
only algorithmic logic and no data-structure code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .ids import EventId
from .records import (
    INSERTED,
    NOT_YET_INSERTED,
    CrdtRecord,
    Item,
    OriginRef,
    PlaceholderPiece,
)
from .sequence import (
    SYNTHETIC_AGENT,
    Cursor,
    ListSequence,
    SequenceBackend,
    carved_record_id,
)

__all__ = ["InternalState", "DeleteSegment"]


@dataclass(slots=True)
class DeleteSegment:
    """One contiguous part of a delete run's outcome.

    Attributes:
        target: id of the first deleted character (the record character the
            segment starts at; synthetic for placeholder carves).
        length: number of characters this segment covers.
        effect_pos: transformed index to delete ``length`` characters from in
            the effect version — valid when the preceding segments of the same
            event have already been applied — or ``None`` if these characters
            were already deleted in the effect version (a no-op segment).
    """

    target: EventId
    length: int
    effect_pos: int | None


class InternalState:
    """The walker's transient CRDT state over a pluggable sequence backend.

    Args:
        backend: the item sequence (list or order-statistic tree).
        merge_spans: re-merge adjacent same-state spans after state changes
            (the inverse of lazy splitting).  On by default; the CRDT
            converters disable it because they read each event's record (with
            its own origins) straight after applying it.
    """

    def __init__(
        self, backend: SequenceBackend | None = None, *, merge_spans: bool = True
    ) -> None:
        self.sequence: SequenceBackend = backend if backend is not None else ListSequence()
        self.merge_spans = merge_spans
        #: Number of span coalesces performed (cumulative across clears).
        self.spans_merged = 0
        #: For every applied delete event, the id spans of the characters it
        #: deleted.  Spans are resolved through the sequence's id range index
        #: on retreat/advance, so they stay correct when records split later.
        self._delete_targets: dict[EventId, list[tuple[EventId, int]]] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def clear(self, document_length: int) -> None:
        """Discard all records and restart from a placeholder (§3.5–3.6).

        ``document_length`` is the length of the document at the version the
        state now represents.  An upper bound is acceptable: the spare
        placeholder units sit at the end of the sequence where no valid event
        can address them, so they never affect transformed indexes.
        """
        self.sequence.clear(document_length)
        self._delete_targets.clear()

    # ------------------------------------------------------------------
    # apply
    # ------------------------------------------------------------------
    def apply_insert(self, event_id: EventId, pos: int, length: int = 1) -> int:
        """Apply an insert run at prepare-version index ``pos``.

        The whole run becomes a single record (its characters are adjacent by
        construction — nothing can sit between characters typed in one run).
        Returns the transformed (effect-version) index at which the run must
        be inserted into the document.
        """
        cursor = self.sequence.find_insert_cursor(pos)
        origin_left = self.sequence.origin_left_of_cursor(cursor)
        origin_right = self.sequence.next_existing_in_prepare(cursor)
        record = CrdtRecord(
            id=event_id,
            length=length,
            origin_left=origin_left,
            origin_right=origin_right,
            prepare_state=INSERTED,
            ever_deleted=False,
        )
        self._integrate(cursor, record, origin_left, origin_right)
        effect_pos = self.sequence.effect_position_of_item(record)
        # A graph-level split run replayed piecewise coalesces back into one
        # record here: the new piece's left origin is the previous piece's
        # last character, which is exactly the merge condition.
        self._coalesce_record(record)
        return effect_pos

    def apply_delete(self, event_id: EventId, pos: int, length: int = 1) -> list[DeleteSegment]:
        """Apply a delete run of ``length`` characters at prepare index ``pos``.

        The run is carved into segments along the item boundaries it crosses
        (records with different states, placeholder pieces).  Every character
        of the run sits at the *same* prepare index once its predecessors are
        deleted, so the loop repeatedly resolves ``pos``.

        Returns the segments in application order; their ``effect_pos`` values
        assume the preceding segments have been applied to the document.
        """
        segments: list[DeleteSegment] = []
        targets: list[tuple[EventId, int]] = []
        touched: list[CrdtRecord] = []
        remaining = length
        while remaining > 0:
            item, offset = self.sequence.find_visible_unit(pos)
            if isinstance(item, PlaceholderPiece):
                # The deleted characters were inserted before the replay's
                # base version; carve a record run out of the placeholder
                # (§3.6), clipped to this piece's end.
                take = min(remaining, item.length - offset)
                effect_pos = self.sequence.effect_position_of_item(item, offset)
                record = CrdtRecord(
                    # Deterministic ph_base-keyed id: adjacent carves (even by
                    # separate deletes) get contiguous id spans, so they can
                    # re-merge below like ordinary split records.
                    id=carved_record_id(item.base + offset),
                    length=take,
                    prepare_state=INSERTED + 1,  # Del 1
                    ever_deleted=True,
                    ph_base=item.base + offset,
                )
                self.sequence.convert_placeholder_run(item, offset, record)
                segments.append(DeleteSegment(record.id, take, effect_pos))
                targets.append((record.id, take))
                touched.append(record)
                remaining -= take
                continue

            record = item
            if record.prepare_state != INSERTED:  # pragma: no cover - defensive
                raise RuntimeError(
                    "delete targets a character that is not visible in the "
                    "prepare version; the event graph is invalid"
                )
            if offset > 0:
                record = self.sequence.split_record(record, offset)
            if record.length > remaining:
                self.sequence.split_record(record, remaining)
            take = record.length
            was_effect_visible = not record.ever_deleted
            effect_pos = (
                self.sequence.effect_position_of_item(record) if was_effect_visible else None
            )
            record.prepare_state += 1
            d_effect = 0
            if was_effect_visible:
                record.ever_deleted = True
                d_effect = -take
            self.sequence.update_item_counts(record, -take, d_effect)
            segments.append(DeleteSegment(record.id, take, effect_pos))
            targets.append((record.id, take))
            touched.append(record)
            remaining -= take
        self._delete_targets[event_id] = targets
        self._coalesce_records(touched)
        return segments

    def extend_delete(self, event_id: EventId, pos: int, length: int = 1) -> list[DeleteSegment]:
        """Fold ``length`` more characters into an already-applied delete run.

        Sender-side coalescing (:meth:`EventGraph.extend_event`) grows a
        delete run in place; a resident walker state that already applied the
        run folds the continuation in here instead of being discarded.  The
        continuation deletes at the *same* prepare position (each character
        lands on the run's index once its predecessors are gone), and its
        target spans are appended to the event's existing target list — the
        result is indistinguishable from the run having been applied at full
        length.
        """
        existing = self._delete_targets.pop(event_id)
        segments = self.apply_delete(event_id, pos, length)
        self._delete_targets[event_id] = existing + self._delete_targets[event_id]
        return segments

    def split_delete_targets(self, event_id: EventId, offset: int) -> None:
        """Re-key an applied delete run's targets after a graph-level split.

        When the event graph splits the delete run ``event_id`` before its
        ``offset``-th character (interop re-carving), future retreats and
        advances address the two halves as separate events ``event_id`` and
        ``event_id.advance(offset)``.  The stored target spans map one-to-one,
        in order, onto the run's characters, so the list is cut at the
        cumulative length ``offset`` (splitting a span if the boundary lands
        inside it — target ids are contiguous within a span, for carved
        records too) and re-keyed under both halves.  Record state is
        untouched: records are keyed by character ids, which a graph split
        does not change.
        """
        targets = self._delete_targets.pop(event_id)
        left: list[tuple[EventId, int]] = []
        right: list[tuple[EventId, int]] = []
        consumed = 0
        for target_id, target_len in targets:
            if consumed >= offset:
                right.append((target_id, target_len))
            elif consumed + target_len <= offset:
                left.append((target_id, target_len))
            else:
                take = offset - consumed
                left.append((target_id, take))
                right.append((target_id.advance(take), target_len - take))
            consumed += target_len
        self._delete_targets[event_id] = left
        self._delete_targets[event_id.advance(offset)] = right

    # ------------------------------------------------------------------
    # retreat / advance
    # ------------------------------------------------------------------
    def retreat(self, event_id: EventId, is_insert: bool, length: int = 1) -> None:
        """Remove a whole run event from the prepare version (§3.2)."""
        update = self.sequence.update_item_counts
        if is_insert:
            # No coalescing here: the records become NotInsertedYet, which is
            # the one state the merge rule excludes (integration scans them).
            for record in self._aligned_spans(event_id, length):
                if record.prepare_state != INSERTED:  # pragma: no cover - defensive
                    raise RuntimeError("retreating an insert whose record is not Ins")
                record.prepare_state = NOT_YET_INSERTED
                update(record, -record.length, 0)
        else:
            flipped = self._delete_target_records(event_id)
            for record in flipped:
                if record.prepare_state < INSERTED + 1:  # pragma: no cover - defensive
                    raise RuntimeError("retreating a delete whose record is not Del n")
                record.prepare_state -= 1
                if record.prepare_state == INSERTED:
                    update(record, +record.length, 0)
            self._coalesce_records(flipped)

    def advance(self, event_id: EventId, is_insert: bool, length: int = 1) -> None:
        """Add a whole run event back into the prepare version (§3.2)."""
        update = self.sequence.update_item_counts
        if is_insert:
            flipped = self._aligned_spans(event_id, length)
            for record in flipped:
                if record.prepare_state != NOT_YET_INSERTED:  # pragma: no cover - defensive
                    raise RuntimeError("advancing an insert whose record is not NIY")
                record.prepare_state = INSERTED
                update(record, +record.length, 0)
        else:
            flipped = self._delete_target_records(event_id)
            for record in flipped:
                if record.prepare_state < INSERTED:  # pragma: no cover - defensive
                    raise RuntimeError("advancing a delete whose record is NIY")
                record.prepare_state += 1
                if record.prepare_state == INSERTED + 1:
                    update(record, -record.length, 0)
        self._coalesce_records(flipped)

    def _delete_target_records(self, event_id: EventId) -> list[CrdtRecord]:
        """The records an applied delete event removed, aligned to its spans."""
        records: list[CrdtRecord] = []
        for target_id, target_len in self._delete_targets[event_id]:
            records += self._aligned_spans(target_id, target_len)
        return records

    # ------------------------------------------------------------------
    # Span re-merging (the inverse of lazy splitting)
    # ------------------------------------------------------------------
    def _coalesce_records(self, records: list[CrdtRecord]) -> None:
        """Coalesce each of ``records`` — the ones a state change touched, in
        sequence order — with its neighbours.  Called once the change has
        settled, never while a flip loop is still running, since a merge
        consumes the right record; and from the last record to the first, so
        that the one consumed is always one already visited (or never listed).
        """
        for record in reversed(records):
            self._coalesce_record(record)

    def _coalesce_record(self, record: CrdtRecord) -> None:
        """Merge ``record`` with its neighbours where states allow it.

        ``record`` must currently be in the sequence.  At most two merges
        happen (with the next and with the previous item); each is the exact
        inverse of a split, so correctness is unaffected — only the span count
        shrinks.
        """
        if not self.merge_spans:
            return
        sequence = self.sequence
        prev, nxt = sequence.neighbours(record)
        if isinstance(nxt, CrdtRecord) and self._mergeable(record, nxt):
            sequence.merge_into_left(record, nxt)
            self.spans_merged += 1
        if isinstance(prev, CrdtRecord) and self._mergeable(prev, record):
            sequence.merge_into_left(prev, record)
            self.spans_merged += 1

    @staticmethod
    def _mergeable(left: CrdtRecord, right: CrdtRecord) -> bool:
        """Span-merge test: the generic split-inverse rule, plus the
        ph_base-keyed rule for placeholder carves.

        Runs carved out of the placeholder by *separate* delete events never
        satisfy :meth:`CrdtRecord.can_merge_with` on origins alone (fresh
        carves are created with empty origins).  But carved records are keyed
        by their original placeholder offset — deterministic, contiguous ids
        (:func:`~repro.core.sequence.carved_record_id`) — and their origin
        fields are never consulted: a carved record is never NotInsertedYet,
        so the YATA integration scan never reads it, and references *to*
        carved characters resolve through the carved index by ``ph_base``.
        Two adjacent same-state carves from the same original placeholder are
        therefore losslessly mergeable: a later split at the old boundary
        restores records that behave identically everywhere they are read.
        """
        if left.can_merge_with(right):
            return True
        return (
            left.ph_base is not None
            and right.ph_base is not None
            and right.ph_base == left.ph_base + left.length
            and left.id.agent == SYNTHETIC_AGENT
            and right.id.agent == SYNTHETIC_AGENT
            and right.id.seq == left.end_seq
            and right.prepare_state == left.prepare_state
            and left.prepare_state != NOT_YET_INSERTED
            and right.ever_deleted == left.ever_deleted
        )

    def _aligned_spans(self, start_id: EventId, length: int) -> list[CrdtRecord]:
        """Records exactly covering the id span ``start_id .. +length``.

        Records created by one event never cover ids of another, and splits
        only refine spans, so the covering records normally align with the
        requested range already; when they don't (future partial operations),
        they are split so that a state change never bleeds outside the range.
        """
        spans: list[CrdtRecord] = []
        sequence = self.sequence
        agent, seq = start_id
        end = seq + length
        while seq < end:
            record, offset = sequence.record_at_seq(agent, seq)
            if offset > 0:
                record = sequence.split_record(record, offset)
            if record.length > end - seq:
                sequence.split_record(record, end - seq)
            spans.append(record)
            seq += record.length
        return spans

    # ------------------------------------------------------------------
    # Introspection (used by tests, converters and the memory benchmarks)
    # ------------------------------------------------------------------
    def record_for(self, event_id: EventId) -> CrdtRecord:
        """The record covering ``event_id``.

        For insert ids this is the run containing the character; for delete
        event ids it is the record of the (first) character the event deleted.
        """
        try:
            record, _ = self.sequence.record_at(event_id)
            return record
        except KeyError:
            targets = self._delete_targets.get(event_id)
            if targets:
                record, _ = self.sequence.record_at(targets[0][0])
                return record
            raise

    def delete_targets(self, event_id: EventId) -> list[tuple[EventId, int]]:
        """The id spans a previously applied delete event removed."""
        return list(self._delete_targets[event_id])

    def iter_records(self) -> Iterator[Item]:
        return self.sequence.iter_items()

    def prepare_length(self) -> int:
        return self.sequence.prepare_length()

    def effect_length(self) -> int:
        return self.sequence.effect_length()

    def record_count(self) -> int:
        """Number of span items currently held (runs, not characters)."""
        return self.sequence.memory_items()

    def unit_count(self) -> int:
        """Number of characters covered by the current items."""
        return self.sequence.total_units()

    # ------------------------------------------------------------------
    # Concurrent-insert ordering (YATA / YjsMod integration)
    # ------------------------------------------------------------------
    def _integrate(
        self,
        cursor: Cursor,
        record: CrdtRecord,
        origin_left: OriginRef,
        origin_right: OriginRef,
    ) -> None:
        """Place ``record`` among concurrent insertions at the same gap.

        Implements the YjsMod integration rule used by the paper's reference
        implementation: scan the not-yet-inserted records sitting between the
        new record's origins and decide, from *their* origins and a final id
        tie-break, whether the new record goes before or after each of them.
        The resulting order is independent of the replay order (Lemma C.5).
        Runs integrate as a unit — ordering is decided by their first
        character, which keeps each run contiguous (maximal non-interleaving).
        """
        if cursor.item is not None and cursor.offset > 0:
            # The gap is strictly inside a placeholder piece or a record run:
            # there can be no concurrent records at this gap, so insert
            # directly (splitting the item).
            self.sequence.insert_record_at_cursor(cursor, record)
            return

        seq = self.sequence
        # The origin positions are only needed if there is at least one
        # concurrent (not-yet-inserted) record at the insertion gap, which is
        # rare; compute them lazily so the common case stays cheap.
        left_pos: float | None = None
        right_pos: float | None = None

        dest_before: Item | None = cursor.item
        scanning = False
        exhausted = True
        for other in seq.iter_items_from_cursor(cursor):
            if not scanning:
                dest_before = other
            if isinstance(other, PlaceholderPiece) or other.exists_in_prepare:
                # Reached the first item that exists in the prepare version,
                # i.e. the new record's right origin: stop scanning.
                exhausted = False
                break
            if left_pos is None:
                left_pos = (
                    -1 if origin_left is None else seq.unit_position_of_ref(origin_left)
                )
                right_pos = (
                    math.inf
                    if origin_right is None
                    else seq.unit_position_of_ref(origin_right)
                )
            # ``other`` is a concurrent, not-yet-inserted record.
            oleft = (
                -1
                if other.origin_left is None
                else seq.unit_position_of_ref(other.origin_left)
            )
            oright = (
                math.inf
                if other.origin_right is None
                else seq.unit_position_of_ref(other.origin_right)
            )
            if oleft < left_pos or (
                oleft == left_pos and oright == right_pos and record.id < other.id
            ):
                exhausted = False
                break
            if oleft == left_pos:
                scanning = oright < right_pos
        if exhausted and not scanning:
            dest_before = None
        seq.insert_record_before_item(dest_before, record)
