"""A traditional ID-based list CRDT (the substrate of §2.5 and the baselines).

This is a self-contained, classic collaborative-text CRDT in the style of
YATA / Yjs: every character carries a globally unique id, insertions reference
the ids of their left and right neighbours at generation time (their
*origins*), and deletions reference the id of the deleted character.  All
replicas integrate concurrent insertions with the same deterministic rule
("YjsMod"), so they converge regardless of delivery order, provided delivery
is causal.

It serves three roles in this reproduction:

* the independent correctness oracle for Eg-walker in the differential tests
  (its integration logic shares no code with the walker),
* the per-branch simulated replicas used to convert index-based editing traces
  into ID-based CRDT operations (see :mod:`repro.crdt.converter`), and
* the document type underlying the Yjs-like / Automerge-like baselines.

The implementation favours clarity over speed (lookups are linear scans); the
performance-oriented baselines in :mod:`repro.crdt.ref_crdt` use the
order-statistic tree instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..core.ids import EventId

__all__ = ["CrdtInsertOp", "CrdtDeleteOp", "CrdtOp", "CrdtItem", "SimpleListCRDT"]


@dataclass(frozen=True, slots=True)
class CrdtInsertOp:
    """An ID-based insertion: place ``content`` between the origin items."""

    id: EventId
    origin_left: EventId | None
    origin_right: EventId | None
    content: str

    @property
    def is_insert(self) -> bool:
        return True


@dataclass(frozen=True, slots=True)
class CrdtDeleteOp:
    """An ID-based deletion: mark the character ``target`` as deleted."""

    id: EventId
    target: EventId

    @property
    def is_insert(self) -> bool:
        return False


CrdtOp = CrdtInsertOp | CrdtDeleteOp


@dataclass(slots=True, eq=False)
class CrdtItem:
    """One character of CRDT state (a tombstone once ``deleted`` is set)."""

    id: EventId
    origin_left: EventId | None
    origin_right: EventId | None
    content: str
    deleted: bool = False


class SimpleListCRDT:
    """A single replica of the ID-based list CRDT.

    The replica can generate operations from index-based local edits
    (:meth:`local_insert`, :meth:`local_delete`) and integrate operations
    received from other replicas (:meth:`apply`).  Remote operations whose
    dependencies have not arrived yet are buffered until they are applicable,
    giving causal delivery on top of any transport.
    """

    def __init__(self, agent: str = "crdt") -> None:
        self.agent = agent
        self._items: list[CrdtItem] = []
        self._by_id: dict[EventId, CrdtItem] = {}
        self._next_seq = 0
        self._applied_ops: set[EventId] = set()
        self._pending: list[CrdtOp] = []

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    def text(self) -> str:
        return "".join(item.content for item in self._items if not item.deleted)

    def __len__(self) -> int:
        return sum(1 for item in self._items if not item.deleted)

    def item_count(self) -> int:
        """Total items including tombstones (memory accounting)."""
        return len(self._items)

    def iter_items(self) -> Iterator[CrdtItem]:
        return iter(self._items)

    # ------------------------------------------------------------------
    # Local editing (index-based -> ID-based)
    # ------------------------------------------------------------------
    def local_insert(self, pos: int, content: str) -> list[CrdtInsertOp]:
        """Insert ``content`` at visible index ``pos``; returns the ops to broadcast."""
        ops: list[CrdtInsertOp] = []
        for offset, char in enumerate(content):
            ops.append(self._local_insert_char(pos + offset, char))
        return ops

    def _local_insert_char(self, pos: int, char: str) -> CrdtInsertOp:
        raw = self._raw_index_of_visible_gap(pos)
        origin_left = self._items[raw - 1].id if raw > 0 else None
        origin_right = self._items[raw].id if raw < len(self._items) else None
        op = CrdtInsertOp(
            id=EventId(self.agent, self._next_seq),
            origin_left=origin_left,
            origin_right=origin_right,
            content=char,
        )
        self._next_seq += 1
        self._integrate(op)
        self._applied_ops.add(op.id)
        return op

    def local_delete(self, pos: int, length: int = 1) -> list[CrdtDeleteOp]:
        """Delete ``length`` visible characters starting at ``pos``."""
        ops: list[CrdtDeleteOp] = []
        for _ in range(length):
            target = self._visible_item_at(pos)
            op = CrdtDeleteOp(id=EventId(self.agent, self._next_seq), target=target.id)
            self._next_seq += 1
            target.deleted = True
            self._applied_ops.add(op.id)
            ops.append(op)
        return ops

    # ------------------------------------------------------------------
    # Remote operations
    # ------------------------------------------------------------------
    def apply(self, op: CrdtOp) -> bool:
        """Integrate one remote operation; returns True if it was applied.

        Operations that are not yet applicable (missing origin or target) are
        buffered and retried after each successful application.
        """
        if op.id in self._applied_ops:
            return True
        if not self._applicable(op):
            self._pending.append(op)
            return False
        self._apply_now(op)
        self._drain_pending()
        return True

    def apply_all(self, ops: Iterable[CrdtOp]) -> None:
        for op in ops:
            self.apply(op)
        if self._pending:
            raise RuntimeError(
                f"{len(self._pending)} operations could not be applied: missing causal "
                "dependencies"
            )

    def merge(self, other: "SimpleListCRDT") -> None:
        """Merge another replica's state by re-applying its operations."""
        for item in other._items:
            self.apply(
                CrdtInsertOp(
                    id=item.id,
                    origin_left=item.origin_left,
                    origin_right=item.origin_right,
                    content=item.content,
                )
            )
        # Deletions are replicated as "the item is deleted somewhere".
        for item in other._items:
            if item.deleted:
                local = self._by_id.get(item.id)
                if local is not None and not local.deleted:
                    local.deleted = True

    def fork(self, agent: str) -> "SimpleListCRDT":
        """A deep copy of this replica under a new agent name."""
        clone = SimpleListCRDT(agent)
        clone._items = [
            CrdtItem(
                id=item.id,
                origin_left=item.origin_left,
                origin_right=item.origin_right,
                content=item.content,
                deleted=item.deleted,
            )
            for item in self._items
        ]
        clone._by_id = {item.id: item for item in clone._items}
        clone._applied_ops = set(self._applied_ops)
        clone._next_seq = 0
        return clone

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _applicable(self, op: CrdtOp) -> bool:
        if isinstance(op, CrdtInsertOp):
            left_ok = op.origin_left is None or op.origin_left in self._by_id
            right_ok = op.origin_right is None or op.origin_right in self._by_id
            return left_ok and right_ok
        return op.target in self._by_id

    def _apply_now(self, op: CrdtOp) -> None:
        if isinstance(op, CrdtInsertOp):
            self._integrate(op)
        else:
            self._by_id[op.target].deleted = True
        self._applied_ops.add(op.id)

    def _drain_pending(self) -> None:
        progressed = True
        while progressed and self._pending:
            progressed = False
            still_pending: list[CrdtOp] = []
            for op in self._pending:
                if op.id in self._applied_ops:
                    progressed = True
                    continue
                if self._applicable(op):
                    self._apply_now(op)
                    progressed = True
                else:
                    still_pending.append(op)
            self._pending = still_pending

    def _raw_index_of_visible_gap(self, pos: int) -> int:
        """Raw index of the leftmost gap with ``pos`` visible items before it."""
        if pos == 0:
            return 0
        seen = 0
        for raw, item in enumerate(self._items):
            if not item.deleted:
                seen += 1
                if seen == pos:
                    return raw + 1
        if seen == pos:
            return len(self._items)
        raise IndexError(f"insert position {pos} beyond visible length {seen}")

    def _visible_item_at(self, pos: int) -> CrdtItem:
        seen = 0
        for item in self._items:
            if not item.deleted:
                if seen == pos:
                    return item
                seen += 1
        raise IndexError(f"position {pos} beyond visible length {seen}")

    def _raw_index_of_id(self, item_id: EventId | None, default: int) -> int:
        if item_id is None:
            return default
        target = self._by_id[item_id]
        for raw, item in enumerate(self._items):
            if item is target:
                return raw
        raise KeyError(item_id)  # pragma: no cover - defensive

    def _integrate(self, op: CrdtInsertOp) -> None:
        """The YjsMod integration rule (same rule as the walker, independent code)."""
        if op.id in self._by_id:
            return
        left = self._raw_index_of_id(op.origin_left, -1)
        right = self._raw_index_of_id(op.origin_right, len(self._items))
        dest = left + 1
        scanning = False
        i = left + 1
        while True:
            if not scanning:
                dest = i
            if i == len(self._items) or i == right:
                break
            other = self._items[i]
            oleft = self._raw_index_of_id(other.origin_left, -1)
            oright = self._raw_index_of_id(other.origin_right, len(self._items))
            if oleft < left or (oleft == left and oright == right and op.id < other.id):
                break
            if oleft == left:
                scanning = oright < right
            i += 1
        item = CrdtItem(
            id=op.id,
            origin_left=op.origin_left,
            origin_right=op.origin_right,
            content=op.content,
        )
        self._items.insert(dest, item)
        self._by_id[op.id] = item
