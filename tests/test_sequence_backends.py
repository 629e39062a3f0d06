"""Unit and differential tests for the internal-state item sequence (§3.3–3.4).

:class:`TreeSequence` (counted B+-tree) answers every position query in
O(log n).  The random workload below drives it through inserts, placeholder
splits and visibility changes and checks every answer after every step
against a linear scan over the tree's own items.
"""

import random

import pytest

from repro.core.ids import EventId
from repro.core.order_statistic_tree import MAX_NODE_SIZE, TreeSequence
from repro.core.records import INSERTED, CrdtRecord, PlaceholderPiece


def make_record(agent: str, seq: int, prepare_state: int = INSERTED, deleted: bool = False):
    return CrdtRecord(
        id=EventId(agent, seq), prepare_state=prepare_state, ever_deleted=deleted
    )


def used_then_cleared(placeholder: int) -> TreeSequence:
    """A tree grown past one leaf, with a carved placeholder and a deleted
    record, then reset by :meth:`TreeSequence.clear` — as the walker reuses
    its sequence at every critical version (§3.5)."""
    sequence = TreeSequence(5)
    item, offset = sequence.find_visible_unit(2)
    sequence.convert_placeholder_run(
        item, offset, make_record("__placeholder__", 0, prepare_state=2, deleted=True)
    )
    for i in range(MAX_NODE_SIZE * 2):
        record = make_record("old", i)
        sequence.insert_record_at_cursor(sequence.find_insert_cursor(i), record)
    record.prepare_state = 2
    record.ever_deleted = True
    sequence.update_item_counts(record, -1, -1)
    sequence.clear(placeholder)
    return sequence


# Every query must answer the same on a new tree and on a cleared one.
SEQUENCES = [
    pytest.param(TreeSequence, id="fresh"),
    pytest.param(used_then_cleared, id="cleared"),
]


class TestEmptyBackends:
    @pytest.mark.parametrize("make_sequence", SEQUENCES)
    def test_empty_lengths(self, make_sequence):
        backend = make_sequence(0)
        assert backend.total_units() == 0
        assert backend.prepare_length() == 0
        assert backend.effect_length() == 0
        assert list(backend.iter_items()) == []

    @pytest.mark.parametrize("make_sequence", SEQUENCES)
    def test_insert_into_empty(self, make_sequence):
        backend = make_sequence(0)
        cursor = backend.find_insert_cursor(0)
        assert cursor.at_end
        record = make_record("a", 0)
        backend.insert_record_at_cursor(cursor, record)
        assert backend.prepare_length() == 1
        assert backend.effect_position_of_item(record) == 0

    @pytest.mark.parametrize("make_sequence", SEQUENCES)
    def test_insert_beyond_length_raises(self, make_sequence):
        backend = make_sequence(0)
        with pytest.raises(IndexError):
            backend.find_insert_cursor(1)

    @pytest.mark.parametrize("make_sequence", SEQUENCES)
    def test_find_visible_unit_on_empty_raises(self, make_sequence):
        backend = make_sequence(0)
        with pytest.raises(IndexError):
            backend.find_visible_unit(0)


class TestPlaceholders:
    @pytest.mark.parametrize("make_sequence", SEQUENCES)
    def test_initial_placeholder_counts(self, make_sequence):
        backend = make_sequence(10)
        assert backend.total_units() == 10
        assert backend.prepare_length() == 10
        assert backend.effect_length() == 10

    @pytest.mark.parametrize("make_sequence", SEQUENCES)
    def test_insert_mid_placeholder_splits(self, make_sequence):
        backend = make_sequence(10)
        cursor = backend.find_insert_cursor(4)
        record = make_record("a", 0)
        backend.insert_record_at_cursor(cursor, record)
        kinds = [type(item).__name__ for item in backend.iter_items()]
        assert kinds == ["PlaceholderPiece", "CrdtRecord", "PlaceholderPiece"]
        assert backend.total_units() == 11
        assert backend.effect_position_of_item(record) == 4

    @pytest.mark.parametrize("make_sequence", SEQUENCES)
    def test_origin_refs_inside_placeholder(self, make_sequence):
        backend = make_sequence(10)
        cursor = backend.find_insert_cursor(4)
        left = backend.origin_left_of_cursor(cursor)
        right = backend.next_existing_in_prepare(cursor)
        assert left == ("ph", 3)
        assert right == ("ph", 4)
        assert backend.unit_position_of_ref(left) == 3
        assert backend.unit_position_of_ref(right) == 4

    @pytest.mark.parametrize("make_sequence", SEQUENCES)
    def test_convert_placeholder_run_for_delete(self, make_sequence):
        backend = make_sequence(10)
        item, offset = backend.find_visible_unit(6)
        assert isinstance(item, PlaceholderPiece) and offset == 6
        record = make_record("__placeholder__", 0, prepare_state=2, deleted=True)
        backend.convert_placeholder_run(item, offset, record)
        assert backend.total_units() == 10
        assert backend.prepare_length() == 9
        assert backend.effect_length() == 9
        # The reference to the converted unit resolves to the carved record.
        assert backend.unit_position_of_ref(("ph", 6)) == 6

    @pytest.mark.parametrize("make_sequence", SEQUENCES)
    def test_placeholder_ref_positions_shift_with_insertions(self, make_sequence):
        backend = make_sequence(5)
        cursor = backend.find_insert_cursor(0)
        backend.insert_record_at_cursor(cursor, make_record("a", 0))
        # Original placeholder offset 2 is now at unit position 3.
        assert backend.unit_position_of_ref(("ph", 2)) == 3


class TestVisibilityCounters:
    @pytest.mark.parametrize("make_sequence", SEQUENCES)
    def test_update_item_counts(self, make_sequence):
        backend = make_sequence(0)
        records = []
        for i in range(5):
            cursor = backend.find_insert_cursor(i)
            record = make_record("a", i)
            backend.insert_record_at_cursor(cursor, record)
            records.append(record)
        # Mark the middle record deleted in both versions.
        target = records[2]
        target.prepare_state = 2
        target.ever_deleted = True
        backend.update_item_counts(target, -1, -1)
        assert backend.prepare_length() == 4
        assert backend.effect_length() == 4
        assert backend.effect_position_of_item(records[3]) == 2
        item, _ = backend.find_visible_unit(2)
        assert item is records[3]


class TestTreeStructure:
    def test_leaf_splits_keep_back_pointers(self):
        backend = TreeSequence(0)
        records = []
        for i in range(MAX_NODE_SIZE * 4):
            cursor = backend.find_insert_cursor(i)
            record = make_record("a", i)
            backend.insert_record_at_cursor(cursor, record)
            records.append(record)
        for i, record in enumerate(records):
            assert record.leaf is not None
            assert backend.effect_position_of_item(record) == i

    def test_memory_items_counter(self):
        backend = TreeSequence(8)
        assert backend.memory_items() == 1
        cursor = backend.find_insert_cursor(3)
        backend.insert_record_at_cursor(cursor, make_record("a", 0))
        assert backend.memory_items() == 3  # left piece + record + right piece


def linear_scan(items: list) -> tuple[tuple[int, int, int], list, dict, dict]:
    """The answers a flat list with linear scans gives: the three lengths,
    the prepare-visible units in order, and each item's effect and unit
    position."""
    total = prep = eff = 0
    visible = []
    effect_before = {}
    unit_before = {}
    for item in items:
        effect_before[id(item)] = eff
        unit_before[id(item)] = total
        visible.extend((item, k) for k in range(item.prepare_units))
        total += item.units
        prep += item.prepare_units
        eff += item.effect_units
    return (total, prep, eff), visible, effect_before, unit_before


def scanned_insert_cursor(items: list, visible: list, pos: int) -> tuple:
    """Leftmost gap with ``pos`` prepare-visible units before it, as
    (item, offset); a gap after a whole item is the next item's start."""
    if pos == 0:
        return (items[0], 0) if items else (None, 0)
    item, offset = visible[pos - 1]
    if offset + 1 < item.length:
        return item, offset + 1
    after = next(i for i, other in enumerate(items) if other is item) + 1
    return (items[after], 0) if after < len(items) else (None, 0)


class TestDifferentialRandomWorkload:
    @pytest.mark.parametrize("seed", range(6))
    def test_tree_answers_match_a_linear_scan(self, seed):
        rng = random.Random(seed)
        tree = TreeSequence(rng.choice([0, 0, 7, 20]))
        next_seq = 0
        records: list[CrdtRecord] = []
        unit_before = linear_scan(list(tree.iter_items()))[3]

        for step in range(120):
            inserted = carved_at = None
            action = rng.random()
            prep_len = tree.prepare_length()
            if action < 0.55 or prep_len == 0:
                record = make_record("a", next_seq)
                next_seq += 1
                pos = rng.randint(0, prep_len)
                tree.insert_record_at_cursor(tree.find_insert_cursor(pos), record)
                records.append(record)
                inserted = (record, pos)
            elif action < 0.8:
                # Delete the character at a visible position.
                item, offset = tree.find_visible_unit(rng.randrange(prep_len))
                if isinstance(item, PlaceholderPiece):
                    carved = make_record("__placeholder__", 1000 + step, 2, True)
                    tree.convert_placeholder_run(item, offset, carved)
                    carved_at = (carved, unit_before[id(item)] + offset)
                else:
                    item.prepare_state += 1
                    d_eff = -1 if not item.ever_deleted else 0
                    item.ever_deleted = True
                    tree.update_item_counts(item, -1, d_eff)
            elif records:
                # Toggle the prepare-visibility of a random earlier record.
                record = rng.choice(records)
                if record.prepare_state == INSERTED:
                    record.prepare_state, delta = 0, -1
                elif record.prepare_state == 0:
                    record.prepare_state, delta = INSERTED, +1
                else:
                    continue
                tree.update_item_counts(record, delta, 0)

            items = list(tree.iter_items())
            lengths, visible, effect_before, unit_before = linear_scan(items)
            # A new record sits where it was put: an insert is the pos-th
            # visible unit, a carve covers the placeholder unit it replaced.
            if inserted is not None:
                record, pos = inserted
                assert visible[pos][0] is record and visible[pos][1] == 0
            if carved_at is not None:
                carved, unit = carved_at
                assert unit_before[id(carved)] == unit
            assert (tree.total_units(), tree.prepare_length(), tree.effect_length()) == lengths
            for pos, (item, offset) in enumerate(visible):
                found, found_offset = tree.find_visible_unit(pos)
                assert found is item and found_offset == offset
            for pos in range(len(visible) + 1):
                cursor = tree.find_insert_cursor(pos)
                item, offset = scanned_insert_cursor(items, visible, pos)
                assert cursor.item is item and cursor.offset == offset
            for item in items:
                assert tree.effect_position_of_item(item) == effect_before[id(item)]
                assert tree.unit_position_of_item(item) == unit_before[id(item)]
