"""Internal-state record types for Eg-walker (paper §3.3, §3.6).

The walker's internal state is a linear sequence of *items*.  Each item is
either:

* a :class:`CrdtRecord` — a **run** of inserted characters, carrying the id of
  the run's first character (character ``k`` has id ``id.advance(k)``), the
  CRDT origin references used to order concurrent insertions, the
  prepare-version state ``s_p`` and the effect-version state ``s_e`` (here a
  boolean ``ever_deleted``).  All characters of a record share the same state;
  whenever an event needs to change the state of only part of a record, the
  record is first *split* — exactly the Yjs/diamond-types item-splitting
  scheme the paper's reference implementation uses; or
* a :class:`PlaceholderPiece` — a run of characters that were inserted before
  the version the replay started from (§3.6).  Placeholders count as visible
  in both the prepare and the effect version, and are split whenever an event
  needs to address a character inside them.

The prepare state ``s_p`` follows the state machine of Figure 5 and is encoded
as an integer exactly like the pseudocode in Appendix B:

* ``0`` — ``NotInsertedYet`` (the insertion has been retreated),
* ``1`` — ``Ins`` (inserted, visible),
* ``n >= 2`` — ``Del (n-1)`` (deleted by ``n-1`` concurrent delete events).

Origin references are *id-based* (an :class:`~repro.core.ids.EventId` naming
one character, or a ``('ph', offset)`` tuple naming a character of the
original placeholder), so they stay valid when the record they point into is
split later.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .ids import EventId

__all__ = [
    "NOT_YET_INSERTED",
    "INSERTED",
    "CrdtRecord",
    "PlaceholderPiece",
    "Item",
    "OriginRef",
    "START",
    "END",
    "placeholder_origin",
]

NOT_YET_INSERTED = 0
INSERTED = 1

#: Sentinels for origin references at the very start / end of the document.
START = None
END = None


@dataclass(slots=True, eq=False)
class CrdtRecord:
    """A run of characters of the internal state.

    Attributes:
        id: id of the *first* character of this run — either the insertion
            event that created it (possibly advanced, after splits), or a
            synthetic local id for runs carved out of a placeholder by a
            deletion (§3.6: "a placeholder ID that only needs to be unique
            within the local replica").
        length: number of characters this record covers (>= 1).
        origin_left: id-based reference to the character immediately to the
            left of this run in the prepare version at the time it was
            inserted (``None`` for the document start).  Used by the list CRDT
            to order concurrent insertions.
        origin_right: reference to the next character that existed in the
            prepare version at insertion time (``None`` for the document end).
        prepare_state: the ``s_p`` integer state, shared by every character of
            the run (see module docstring).
        ever_deleted: the ``s_e`` state — ``True`` iff a replayed event has
            deleted the run's characters.
        ph_base: for runs carved out of a placeholder, the offset of the run's
            first character within the *original* placeholder; ``None`` for
            ordinary insertions.  Kept so ``('ph', offset)`` origin references
            keep resolving after the carve (and after later splits).
        leaf: back-pointer maintained by the tree sequence backend so a record
            can be located in O(log n); unused by the list backend.
    """

    id: EventId
    length: int = 1
    origin_left: "OriginRef" = None
    origin_right: "OriginRef" = None
    prepare_state: int = INSERTED
    ever_deleted: bool = False
    ph_base: int | None = None
    leaf: object = None

    # ------------------------------------------------------------------
    @property
    def end_seq(self) -> int:
        """One past the seq of the run's last character."""
        return self.id.seq + self.length

    def id_at(self, offset: int) -> EventId:
        """Id of the ``offset``-th character of this run."""
        return EventId(self.id.agent, self.id.seq + offset)

    def contains_seq(self, seq: int) -> bool:
        return self.id.seq <= seq < self.end_seq

    def split(self, offset: int) -> "CrdtRecord":
        """Split this run before character ``offset``; return the right half.

        The left half (``self``) keeps characters ``0 .. offset-1``; the
        returned right half covers the rest.  Following the Yjs splitting
        rule, the right half's left origin is the last character of the left
        half, and both halves share every other piece of state.  The caller is
        responsible for inserting the right half into the sequence directly
        after ``self`` and for registering it with the id index.
        """
        if offset <= 0 or offset >= self.length:
            raise ValueError(f"cannot split a record of length {self.length} at {offset}")
        agent, seq = self.id
        right = CrdtRecord(
            EventId(agent, seq + offset),
            self.length - offset,
            EventId(agent, seq + offset - 1),
            self.origin_right,
            self.prepare_state,
            self.ever_deleted,
            None if self.ph_base is None else self.ph_base + offset,
        )
        self.length = offset
        return right

    def can_merge_with(self, right: "CrdtRecord") -> bool:
        """Can ``right`` (the next item in the sequence) coalesce into this run?

        The condition is the exact inverse of :meth:`split`: the two spans are
        id-contiguous, share every piece of state, and ``right``'s origins are
        precisely what a split at this boundary would reconstruct.  That makes
        re-merging lossless — if a later event addresses only part of the
        merged span, splitting it again restores byte-identical records, so
        origins, integration order and retreat/advance semantics are
        unaffected.  ``NotInsertedYet`` spans are excluded: they are the ones
        the YATA integration rule scans and compares origins of, and collapsing
        them could change which origins a concurrent sibling sees.
        """
        if (
            self.prepare_state == NOT_YET_INSERTED
            or right.prepare_state != self.prepare_state
            or right.ever_deleted != self.ever_deleted
        ):
            return False
        agent, seq = self.id
        end = seq + self.length
        return (
            right.id == (agent, end)
            and right.origin_left == (agent, end - 1)  # self's last character
            and right.origin_right == self.origin_right
            and (right.ph_base is None) == (self.ph_base is None)
            and (self.ph_base is None or right.ph_base == self.ph_base + self.length)
        )

    # ------------------------------------------------------------------
    @property
    def prepare_visible(self) -> bool:
        """Visible (inserted and not deleted) in the prepare version."""
        return self.prepare_state == INSERTED

    @property
    def exists_in_prepare(self) -> bool:
        """Inserted (possibly deleted) in the prepare version (``s_p >= 1``)."""
        return self.prepare_state >= INSERTED

    @property
    def effect_visible(self) -> bool:
        """Visible in the effect version (never deleted by a replayed event)."""
        return not self.ever_deleted

    # Unit accounting -- a record represents ``length`` characters, all
    # sharing the same visibility state.
    @property
    def units(self) -> int:
        return self.length

    @property
    def prepare_units(self) -> int:
        return self.length if self.prepare_state == INSERTED else 0

    @property
    def effect_units(self) -> int:
        return 0 if self.ever_deleted else self.length

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CrdtRecord({self.id.agent}:{self.id.seq}+{self.length}, "
            f"sp={self.prepare_state}, del={self.ever_deleted})"
        )


@dataclass(slots=True, eq=False)
class PlaceholderPiece:
    """A run of characters inserted before the replay's base version (§3.6).

    Placeholder pieces stand in for document content whose events are not part
    of the current replay.  ``base`` is the offset of the first character of
    this piece within the *original* placeholder created when the internal
    state was last cleared; it never changes, so ``('ph', base + k)`` is a
    stable way to refer to the ``k``-th character of the piece even after the
    piece is split.
    """

    base: int
    length: int
    leaf: object = None

    #: A placeholder is visible in both versions: the two constants let the
    #: backends' counting loops read every item's state the same way.
    prepare_state = INSERTED
    ever_deleted = False

    @property
    def units(self) -> int:
        return self.length

    @property
    def prepare_units(self) -> int:
        return self.length

    @property
    def effect_units(self) -> int:
        return self.length

    @property
    def prepare_visible(self) -> bool:
        return True

    @property
    def exists_in_prepare(self) -> bool:
        return True

    @property
    def effect_visible(self) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PlaceholderPiece(base={self.base}, len={self.length})"


Item = Union[CrdtRecord, PlaceholderPiece]

#: An origin reference is ``None`` (document start/end), an :class:`EventId`
#: naming one character of a record run, or a ``('ph', original_offset)``
#: tuple naming a character that is (or was) inside the placeholder.
OriginRef = Union[None, EventId, "tuple[str, int]"]


def placeholder_origin(original_offset: int) -> tuple[str, int]:
    """Build an origin reference to a character inside the placeholder."""
    return ("ph", original_offset)
