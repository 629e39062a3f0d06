"""A counted B+-tree over internal-state items (paper §3.4).

The paper stores the internal state's records in the leaves of a B-tree and
extends it into an *order statistic tree*: every node carries the number of
prepare-visible and effect-visible characters in its subtree, so that

* the record run holding the i-th character visible in the prepare version
  can be found in O(log n),
* the effect-version index of a record can be computed in O(log n) by summing
  the counters of subtrees to its left, and
* updating a record's state only requires fixing the counters on the path to
  the root.

:class:`TreeSequence` implements the :class:`~repro.core.sequence.SequenceBackend`
contract on top of such a tree.  Items (record runs and placeholder pieces)
live in the leaves; each item keeps a back-pointer to its leaf (the paper's
second B-tree maps event ids to records — here the shared id range index of
:class:`~repro.core.sequence.SequenceBackend` stores the record object and
uses the back-pointer, which is updated whenever leaves split, exactly as
described in §3.4).
"""

from __future__ import annotations

import bisect
from typing import Iterator

from .records import (
    INSERTED,
    CrdtRecord,
    Item,
    OriginRef,
    PlaceholderPiece,
    placeholder_origin,
)
from .sequence import Cursor, SequenceBackend, _ref_to_unit

__all__ = ["TreeSequence"]

#: Maximum number of items per leaf / children per internal node before a split.
MAX_NODE_SIZE = 32


class _Leaf:
    """A leaf node holding up to :data:`MAX_NODE_SIZE` items."""

    __slots__ = ("items", "parent", "next", "total", "prep", "eff")
    is_leaf = True

    def __init__(self) -> None:
        self.items: list[Item] = []
        self.parent: _Internal | None = None
        self.next: _Leaf | None = None
        self.total = 0
        self.prep = 0
        self.eff = 0

    def recompute(self) -> None:
        total = prep = eff = 0
        for item in self.items:
            total += item.length
            if item.prepare_state == INSERTED:
                prep += item.length
            if not item.ever_deleted:
                eff += item.length
        self.total, self.prep, self.eff = total, prep, eff


class _Internal:
    """An internal node holding child nodes and their aggregate counters."""

    __slots__ = ("children", "parent", "total", "prep", "eff")
    is_leaf = False

    def __init__(self) -> None:
        self.children: list[_Leaf | _Internal] = []
        self.parent: _Internal | None = None
        self.total = 0
        self.prep = 0
        self.eff = 0

    def recompute(self) -> None:
        self.total = sum(c.total for c in self.children)
        self.prep = sum(c.prep for c in self.children)
        self.eff = sum(c.eff for c in self.children)


class TreeSequence(SequenceBackend):
    """Order-statistic B+-tree implementation of the internal-state sequence."""

    def __init__(self, placeholder_length: int = 0) -> None:
        super().__init__()
        self._root: _Leaf | _Internal = _Leaf()
        self._first_leaf: _Leaf = self._root  # type: ignore[assignment]
        self._piece_bases: list[int] = []
        self._pieces: dict[int, PlaceholderPiece] = {}
        self._item_count = 0
        self.clear(placeholder_length)

    # ------------------------------------------------------------------
    # Construction / reset
    # ------------------------------------------------------------------
    def clear(self, placeholder_length: int) -> None:
        leaf = _Leaf()
        self._root = leaf
        self._first_leaf = leaf
        self._reset_indices()
        self._piece_bases = []
        self._pieces = {}
        self._item_count = 0
        if placeholder_length > 0:
            piece = PlaceholderPiece(base=0, length=placeholder_length)
            piece.leaf = leaf
            leaf.items.append(piece)
            leaf.recompute()
            self._register_piece(piece)
            self._item_count = 1

    # ------------------------------------------------------------------
    # Piece registry (for resolving placeholder origin references)
    # ------------------------------------------------------------------
    def _register_piece(self, piece: PlaceholderPiece) -> None:
        idx = bisect.bisect_left(self._piece_bases, piece.base)
        if idx < len(self._piece_bases) and self._piece_bases[idx] == piece.base:
            self._pieces[piece.base] = piece
        else:
            self._piece_bases.insert(idx, piece.base)
            self._pieces[piece.base] = piece

    def resolve_placeholder(self, original_offset: int) -> tuple[PlaceholderPiece, int]:
        idx = bisect.bisect_right(self._piece_bases, original_offset) - 1
        if idx < 0:
            raise KeyError(f"placeholder offset {original_offset} not found")
        piece = self._pieces[self._piece_bases[idx]]
        if not (piece.base <= original_offset < piece.base + piece.length):
            raise KeyError(f"placeholder offset {original_offset} not found")
        return piece, original_offset - piece.base

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def find_visible_unit(self, prepare_pos: int) -> tuple[Item, int]:
        if prepare_pos < 0 or prepare_pos >= self._root.prep:
            raise IndexError(
                f"delete position {prepare_pos} beyond prepare-visible length "
                f"{self._root.prep}"
            )
        node = self._root
        remaining = prepare_pos
        while not node.is_leaf:
            for child in node.children:  # type: ignore[union-attr]
                if child.prep > remaining:
                    node = child
                    break
                remaining -= child.prep
            else:  # pragma: no cover - defensive (counts out of sync)
                raise RuntimeError("prepare counters out of sync")
        for item in node.items:  # type: ignore[union-attr]
            if item.prepare_state == INSERTED:
                if item.length > remaining:
                    return item, remaining
                remaining -= item.length
        raise RuntimeError("prepare counters out of sync")  # pragma: no cover

    def find_insert_cursor(self, prepare_pos: int) -> Cursor:
        if prepare_pos == 0:
            first_item = self._first_item()
            return Cursor(first_item, 0) if first_item is not None else Cursor(None)
        if prepare_pos > self._root.prep:
            raise IndexError(
                f"insert position {prepare_pos} beyond prepare-visible length "
                f"{self._root.prep}"
            )
        item, offset = self.find_visible_unit(prepare_pos - 1)
        if offset + 1 < item.length:
            # The gap sits strictly inside a multi-unit item (prepare-visible
            # items have unit offset == prepare offset).
            return Cursor(item, offset + 1)
        nxt = self._next_item(item)
        return Cursor(nxt, 0) if nxt is not None else Cursor(None)

    def origin_left_of_cursor(self, cursor: Cursor) -> OriginRef:
        if cursor.item is not None and cursor.offset > 0:
            return _ref_to_unit(cursor.item, cursor.offset - 1)
        prev = (
            self._last_item()
            if cursor.at_end
            else self._prev_item(cursor.item)  # type: ignore[arg-type]
        )
        if prev is None:
            return None
        return _ref_to_unit(prev, prev.length - 1)

    def next_existing_in_prepare(self, cursor: Cursor) -> OriginRef:
        if cursor.at_end:
            return None
        item: Item | None = cursor.item
        first = True
        while item is not None:
            offset = cursor.offset if first else 0
            if isinstance(item, PlaceholderPiece):
                return placeholder_origin(item.base + offset)
            if item.exists_in_prepare:
                return item.id_at(offset)
            item = self._next_item(item)
            first = False
        return None

    def unit_position_of_item(self, item: Item, offset: int = 0) -> int:
        return self._position_of_item(item, offset, effect=False, units=True)

    def effect_position_of_item(self, item: Item, offset: int = 0) -> int:
        return self._position_of_item(item, offset, effect=True, units=False)

    def iter_items_from_cursor(self, cursor: Cursor) -> Iterator[Item]:
        if cursor.at_end:
            return
        leaf = cursor.item.leaf
        idx = leaf.items.index(cursor.item)
        while leaf is not None:
            for i in range(idx, len(leaf.items)):
                yield leaf.items[i]
            leaf = leaf.next
            idx = 0

    def iter_items(self) -> Iterator[Item]:
        leaf: _Leaf | None = self._first_leaf
        while leaf is not None:
            yield from leaf.items
            leaf = leaf.next

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert_record_at_cursor(self, cursor: Cursor, record: CrdtRecord) -> None:
        if cursor.at_end:
            self._append_record(record)
            return
        if cursor.offset > 0:
            target = cursor.item
            if isinstance(target, PlaceholderPiece):
                self._split_piece_and_insert(target, cursor.offset, record, consumed=0)
                self.register_record(record)
                return
            right = self.split_record(target, cursor.offset)
            self._insert_before(right, record)
            return
        self._insert_before(cursor.item, record)

    def insert_record_before_item(self, target: Item | None, record: CrdtRecord) -> None:
        if target is None:
            self._append_record(record)
            return
        self._insert_before(target, record)

    def convert_placeholder_run(
        self, piece: PlaceholderPiece, offset: int, record: CrdtRecord
    ) -> None:
        if offset + record.length > piece.length:
            raise ValueError("carved run exceeds the placeholder piece")
        if record.ph_base is None:
            record.ph_base = piece.base + offset
        self._split_piece_and_insert(piece, offset, record, consumed=record.length)
        self.register_record(record)

    def split_record(self, record: CrdtRecord, offset: int) -> CrdtRecord:
        leaf: _Leaf = record.leaf  # type: ignore[assignment]
        idx = leaf.items.index(record)
        right = record.split(offset)
        right.leaf = leaf
        leaf.items.insert(idx + 1, right)
        self._item_count += 1
        # Aggregates are unchanged (the same characters are below the leaf);
        # only a structural split may be needed.
        self.register_record(right)
        if len(leaf.items) > MAX_NODE_SIZE:
            self._split_leaf(leaf)
        return right

    def merge_into_left(self, left: CrdtRecord, right: CrdtRecord) -> None:
        # Remove the right half from its leaf first (its counters still
        # describe it), then grow the left half and credit its leaf.  The two
        # may live in different leaves; a leaf left empty stays in the tree
        # (iteration and the total>0 descent skip it) — merges are bounded by
        # prior splits, so empties stay rare.
        units = right.length
        prep = units if right.prepare_state == INSERTED else 0
        eff = 0 if right.ever_deleted else units
        right_leaf: _Leaf = right.leaf  # type: ignore[assignment]
        right_leaf.items.remove(right)
        self._item_count -= 1
        self._bubble_add(right_leaf, -units, -prep, -eff)
        right.leaf = None
        self._absorb_record(left, right)
        self._bubble_add(left.leaf, units, prep, eff)  # type: ignore[arg-type]

    def neighbours(self, item: Item) -> tuple[Item | None, Item | None]:
        items = item.leaf.items  # type: ignore[union-attr]
        idx = items.index(item)
        return (
            items[idx - 1] if idx > 0 else self._prev_item(item),
            items[idx + 1] if idx + 1 < len(items) else self._next_item(item),
        )

    def update_item_counts(self, item: Item, d_prepare: int, d_effect: int) -> None:
        if d_prepare == 0 and d_effect == 0:
            return
        leaf: _Leaf = item.leaf  # type: ignore[assignment]
        leaf.prep += d_prepare
        leaf.eff += d_effect
        node = leaf.parent
        while node is not None:
            node.prep += d_prepare
            node.eff += d_effect
            node = node.parent

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def total_units(self) -> int:
        return self._root.total

    def prepare_length(self) -> int:
        return self._root.prep

    def effect_length(self) -> int:
        return self._root.eff

    def memory_items(self) -> int:
        return self._item_count

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _first_item(self) -> Item | None:
        leaf: _Leaf | None = self._first_leaf
        while leaf is not None:
            if leaf.items:
                return leaf.items[0]
            leaf = leaf.next
        return None

    def _last_item(self) -> Item | None:
        # Every item covers >= 1 unit, so a subtree holds items iff total > 0;
        # descending by that skips leaves emptied by span re-merging.
        node = self._root
        while not node.is_leaf:
            for child in reversed(node.children):  # type: ignore[union-attr]
                if child.total > 0:
                    node = child
                    break
            else:
                return None
        return node.items[-1] if node.items else None  # type: ignore[union-attr]

    def _next_item(self, item: Item) -> Item | None:
        leaf: _Leaf = item.leaf  # type: ignore[assignment]
        idx = leaf.items.index(item)
        if idx + 1 < len(leaf.items):
            return leaf.items[idx + 1]
        nxt = leaf.next
        while nxt is not None:
            if nxt.items:
                return nxt.items[0]
            nxt = nxt.next
        return None

    def _prev_item(self, item: Item) -> Item | None:
        leaf: _Leaf = item.leaf  # type: ignore[assignment]
        idx = leaf.items.index(item)
        if idx > 0:
            return leaf.items[idx - 1]
        # Walk up until a non-empty left sibling subtree exists (total > 0
        # skips leaves emptied by span re-merging), then descend rightmost.
        node: _Leaf | _Internal = leaf
        parent = node.parent
        while parent is not None:
            pos = parent.children.index(node)
            for sib in reversed(parent.children[:pos]):
                if sib.total > 0:
                    while not sib.is_leaf:
                        for child in reversed(sib.children):  # type: ignore[union-attr]
                            if child.total > 0:
                                sib = child
                                break
                    return sib.items[-1]  # type: ignore[union-attr]
            node = parent
            parent = node.parent
        return None

    def _position_of_item(self, item: Item, offset: int, *, effect: bool, units: bool) -> int:
        leaf: _Leaf = item.leaf  # type: ignore[assignment]
        idx = leaf.items.index(item)
        pos = offset
        if units:
            for i in leaf.items[:idx]:
                pos += i.length
        elif effect:
            for i in leaf.items[:idx]:
                if not i.ever_deleted:
                    pos += i.length
        else:
            for i in leaf.items[:idx]:
                if i.prepare_state == INSERTED:
                    pos += i.length
        node: _Leaf | _Internal = leaf
        parent = node.parent
        while parent is not None:
            child_pos = parent.children.index(node)
            for sibling in parent.children[:child_pos]:
                if units:
                    pos += sibling.total
                elif effect:
                    pos += sibling.eff
                else:
                    pos += sibling.prep
            node = parent
            parent = node.parent
        return pos

    # -- structural modifications --------------------------------------------
    def _append_record(self, record: CrdtRecord) -> None:
        node = self._root
        while not node.is_leaf:
            node = node.children[-1]  # type: ignore[union-attr]
        self._place(node, len(node.items), record)  # type: ignore[arg-type, union-attr]

    def _insert_before(self, target: Item, record: CrdtRecord) -> None:
        leaf: _Leaf = target.leaf  # type: ignore[assignment]
        self._place(leaf, leaf.items.index(target), record)

    def _place(self, leaf: _Leaf, idx: int, record: CrdtRecord) -> None:
        """Put a new ``record`` at position ``idx`` of ``leaf``."""
        record.leaf = leaf
        leaf.items.insert(idx, record)
        self._item_count += 1
        self.register_record(record)
        length = record.length
        self._bubble_add(
            leaf,
            length,
            length if record.prepare_state == INSERTED else 0,
            0 if record.ever_deleted else length,
        )
        if len(leaf.items) > MAX_NODE_SIZE:
            self._split_leaf(leaf)

    def _split_piece_and_insert(
        self, piece: PlaceholderPiece, offset: int, record: CrdtRecord, *, consumed: int
    ) -> None:
        """Split ``piece`` at ``offset`` and place ``record`` in the gap.

        ``consumed`` placeholder units starting at ``offset`` are *replaced*
        by the record (used when deleting pre-existing characters); with
        ``consumed == 0`` the record is inserted between units ``offset-1``
        and ``offset`` and the placeholder keeps all its units.
        """
        leaf: _Leaf = piece.leaf  # type: ignore[assignment]
        idx = leaf.items.index(piece)
        right_start = offset + consumed
        replacement: list[Item] = []
        if offset > 0:
            left = PlaceholderPiece(base=piece.base, length=offset)
            left.leaf = leaf
            replacement.append(left)
        record.leaf = leaf
        replacement.append(record)
        if right_start < piece.length:
            right = PlaceholderPiece(
                base=piece.base + right_start, length=piece.length - right_start
            )
            right.leaf = leaf
            replacement.append(right)
        leaf.items[idx : idx + 1] = replacement
        self._item_count += len(replacement) - 1

        # Update the piece registry: the original base now maps to the left
        # fragment (if any), and the right fragment gets a new base entry.
        reg_idx = bisect.bisect_left(self._piece_bases, piece.base)
        if reg_idx < len(self._piece_bases) and self._piece_bases[reg_idx] == piece.base:
            if offset > 0:
                self._pieces[piece.base] = replacement[0]  # type: ignore[assignment]
            else:
                del self._pieces[piece.base]
                self._piece_bases.pop(reg_idx)
        if right_start < piece.length:
            self._register_piece(replacement[-1])  # type: ignore[arg-type]

        delta_units = record.units - consumed
        delta_prep = record.prepare_units - consumed
        delta_eff = record.effect_units - consumed
        self._bubble_add(leaf, delta_units, delta_prep, delta_eff)
        if len(leaf.items) > MAX_NODE_SIZE:
            self._split_leaf(leaf)

    def _bubble_add(self, leaf: _Leaf, d_total: int, d_prep: int, d_eff: int) -> None:
        leaf.total += d_total
        leaf.prep += d_prep
        leaf.eff += d_eff
        node = leaf.parent
        while node is not None:
            node.total += d_total
            node.prep += d_prep
            node.eff += d_eff
            node = node.parent

    def _split_leaf(self, leaf: _Leaf) -> None:
        mid = len(leaf.items) // 2
        new_leaf = _Leaf()
        new_leaf.items = leaf.items[mid:]
        leaf.items = leaf.items[:mid]
        for item in new_leaf.items:
            item.leaf = new_leaf
        new_leaf.next = leaf.next
        leaf.next = new_leaf
        leaf.recompute()
        new_leaf.recompute()
        self._insert_into_parent(leaf, new_leaf)

    def _insert_into_parent(
        self, node: _Leaf | _Internal, new_node: _Leaf | _Internal
    ) -> None:
        parent = node.parent
        if parent is None:
            new_root = _Internal()
            new_root.children = [node, new_node]
            node.parent = new_root
            new_node.parent = new_root
            new_root.recompute()
            self._root = new_root
            return
        pos = parent.children.index(node)
        parent.children.insert(pos + 1, new_node)
        new_node.parent = parent
        # The parent's aggregates are unchanged (the same items are below it),
        # so only a structural split may be needed.
        if len(parent.children) > MAX_NODE_SIZE:
            self._split_internal(parent)

    def _split_internal(self, node: _Internal) -> None:
        mid = len(node.children) // 2
        new_node = _Internal()
        new_node.children = node.children[mid:]
        node.children = node.children[:mid]
        for child in new_node.children:
            child.parent = new_node
        node.recompute()
        new_node.recompute()
        self._insert_into_parent(node, new_node)

