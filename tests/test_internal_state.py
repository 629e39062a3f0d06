"""Unit tests for the internal CRDT state: apply / retreat / advance (§3.2–3.3)."""

import random

import pytest

from repro.core.document import Document
from repro.core.ids import EventId
from repro.core.internal_state import DeleteSegment, InternalState
from repro.core.order_statistic_tree import TreeSequence
from repro.core.records import INSERTED, NOT_YET_INSERTED, CrdtRecord


def make_state(placeholder: int = 0, *, merge_spans: bool = True) -> InternalState:
    return InternalState(TreeSequence(placeholder), merge_spans=merge_spans)


# The walker coalesces split records; the converter and the reference CRDT
# keep them apart.  Apply / retreat / advance must not depend on which.
MERGE_SPANS = [
    pytest.param(True, id="merge_spans"),
    pytest.param(False, id="no_merge_spans"),
]


class TestApplyInsert:
    @pytest.mark.parametrize("merge_spans", MERGE_SPANS)
    def test_sequential_inserts(self, merge_spans):
        state = make_state(merge_spans=merge_spans)
        for i, char in enumerate("hello"):
            effect_pos = state.apply_insert(EventId("a", i), i)
            assert effect_pos == i
        assert state.prepare_length() == 5
        assert state.effect_length() == 5

    @pytest.mark.parametrize("merge_spans", MERGE_SPANS)
    def test_insert_in_middle_reports_effect_position(self, merge_spans):
        state = make_state(merge_spans=merge_spans)
        state.apply_insert(EventId("a", 0), 0)
        state.apply_insert(EventId("a", 1), 1)
        effect_pos = state.apply_insert(EventId("a", 2), 1)
        assert effect_pos == 1

    @pytest.mark.parametrize("merge_spans", MERGE_SPANS)
    def test_records_registered_in_id_index(self, merge_spans):
        state = make_state(merge_spans=merge_spans)
        state.apply_insert(EventId("a", 0), 0)
        record = state.record_for(EventId("a", 0))
        assert isinstance(record, CrdtRecord)
        assert record.prepare_state == INSERTED
        assert not record.ever_deleted

    @pytest.mark.parametrize("merge_spans", MERGE_SPANS)
    def test_insert_run_creates_one_record(self, merge_spans):
        state = make_state(merge_spans=merge_spans)
        effect_pos = state.apply_insert(EventId("a", 0), 0, 5)
        assert effect_pos == 0
        assert state.prepare_length() == 5
        assert state.effect_length() == 5
        assert state.record_count() == 1
        # Every character of the run resolves to the same record.
        assert state.record_for(EventId("a", 0)) is state.record_for(EventId("a", 4))


class TestApplyDelete:
    @pytest.mark.parametrize("merge_spans", MERGE_SPANS)
    def test_delete_returns_effect_position(self, merge_spans):
        state = make_state(merge_spans=merge_spans)
        for i in range(3):
            state.apply_insert(EventId("a", i), i)
        segments = state.apply_delete(EventId("a", 3), 1)
        assert [(s.length, s.effect_pos) for s in segments] == [(1, 1)]
        assert state.prepare_length() == 2
        assert state.effect_length() == 2

    @pytest.mark.parametrize("merge_spans", MERGE_SPANS)
    def test_delete_run_splits_insert_run(self, merge_spans):
        state = make_state(merge_spans=merge_spans)
        state.apply_insert(EventId("a", 0), 0, 6)
        segments = state.apply_delete(EventId("b", 0), 2, 3)
        assert [(s.length, s.effect_pos) for s in segments] == [(3, 2)]
        assert state.prepare_length() == 3
        assert state.effect_length() == 3
        # The run is now three spans: kept | deleted | kept.
        assert state.record_count() == 3
        assert state.record_for(EventId("a", 2)).ever_deleted
        assert not state.record_for(EventId("a", 0)).ever_deleted
        assert not state.record_for(EventId("a", 5)).ever_deleted

    @pytest.mark.parametrize("merge_spans", MERGE_SPANS)
    def test_double_delete_is_noop(self, merge_spans):
        """Two concurrent deletions of the same character (Lemma C.7 case 2)."""
        state = make_state(merge_spans=merge_spans)
        state.apply_insert(EventId("a", 0), 0)
        segments = state.apply_delete(EventId("b", 0), 0)
        assert [(s.length, s.effect_pos) for s in segments] == [(1, 0)]
        # Concurrent second delete: retreat the first, then apply the second.
        state.retreat(EventId("b", 0), is_insert=False)
        segments = state.apply_delete(EventId("c", 0), 0)
        assert [(s.length, s.effect_pos) for s in segments] == [(1, None)]

    @pytest.mark.parametrize("merge_spans", MERGE_SPANS)
    def test_delete_inside_placeholder(self, merge_spans):
        state = make_state(placeholder=10, merge_spans=merge_spans)
        segments = state.apply_delete(EventId("a", 0), 4)
        assert [(s.length, s.effect_pos) for s in segments] == [(1, 4)]
        assert state.prepare_length() == 9
        assert state.effect_length() == 9
        record = state.record_for(EventId("a", 0))
        assert record.ever_deleted
        assert record.prepare_state == INSERTED + 1


class TestRetreatAdvance:
    @pytest.mark.parametrize("merge_spans", MERGE_SPANS)
    def test_retreat_insert_hides_it_from_prepare(self, merge_spans):
        state = make_state(merge_spans=merge_spans)
        state.apply_insert(EventId("a", 0), 0)
        state.apply_insert(EventId("a", 1), 1)
        state.retreat(EventId("a", 1), is_insert=True)
        assert state.prepare_length() == 1
        assert state.effect_length() == 2
        record = state.record_for(EventId("a", 1))
        assert record.prepare_state == NOT_YET_INSERTED

    @pytest.mark.parametrize("merge_spans", MERGE_SPANS)
    def test_advance_restores_prepare_visibility(self, merge_spans):
        state = make_state(merge_spans=merge_spans)
        state.apply_insert(EventId("a", 0), 0)
        state.retreat(EventId("a", 0), is_insert=True)
        state.advance(EventId("a", 0), is_insert=True)
        assert state.prepare_length() == 1
        assert state.record_for(EventId("a", 0)).prepare_state == INSERTED

    @pytest.mark.parametrize("merge_spans", MERGE_SPANS)
    def test_retreat_delete_restores_prepare_visibility(self, merge_spans):
        state = make_state(merge_spans=merge_spans)
        state.apply_insert(EventId("a", 0), 0)
        state.apply_delete(EventId("b", 0), 0)
        assert state.prepare_length() == 0
        state.retreat(EventId("b", 0), is_insert=False)
        assert state.prepare_length() == 1
        # The effect version never un-deletes (s_e has no backwards moves).
        assert state.effect_length() == 0

    @pytest.mark.parametrize("merge_spans", MERGE_SPANS)
    def test_figure5_state_machine(self, merge_spans):
        """Walk the s_p state machine of Figure 5: NIY <-> Ins <-> Del1 <-> Del2."""
        state = make_state(merge_spans=merge_spans)
        state.apply_insert(EventId("a", 0), 0)
        record = state.record_for(EventId("a", 0))
        state.apply_delete(EventId("b", 0), 0)
        assert record.prepare_state == 2  # Del 1
        state.advance(EventId("b", 0), is_insert=False)
        assert record.prepare_state == 3  # Del 2
        state.retreat(EventId("b", 0), is_insert=False)
        assert record.prepare_state == 2
        state.retreat(EventId("b", 0), is_insert=False)
        assert record.prepare_state == INSERTED
        state.retreat(EventId("a", 0), is_insert=True)
        assert record.prepare_state == NOT_YET_INSERTED


class TestConcurrentInsertOrdering:
    """Figure 1 / Lemma C.5: concurrent insertions integrate consistently."""

    @pytest.mark.parametrize("merge_spans", MERGE_SPANS)
    def test_figure1_scenario(self, merge_spans):
        # Document "Helo"; user1 inserts "l" at 3, user2 inserts "!" at 4.
        def build(order):
            state = make_state(merge_spans=merge_spans)
            for i, char in enumerate("Helo"):
                state.apply_insert(EventId("base", i), i)
            positions = {}
            if order == "l_first":
                positions["l"] = state.apply_insert(EventId("user1", 0), 3)
                state.retreat(EventId("user1", 0), is_insert=True)
                positions["!"] = state.apply_insert(EventId("user2", 0), 4)
            else:
                positions["!"] = state.apply_insert(EventId("user2", 0), 4)
                state.retreat(EventId("user2", 0), is_insert=True)
                positions["l"] = state.apply_insert(EventId("user1", 0), 3)
            sequence = [r.id for r in state.iter_records()]
            return positions, sequence

        pos_a, seq_a = build("l_first")
        pos_b, seq_b = build("bang_first")
        # Both replay orders produce the same internal ordering of records.
        assert seq_a == seq_b
        # And the transformed positions match Figure 1: the "!" lands at 5
        # when applied after the "l", and the "l" stays at 3 either way.
        assert pos_a["l"] == 3 and pos_a["!"] == 5
        assert pos_b["!"] == 4 and pos_b["l"] == 3

    @pytest.mark.parametrize(
        "case", ["hand-built", *(f"documents-seed{seed}" for seed in range(16))]
    )
    def test_concurrent_inserts_at_same_position_do_not_interleave_badly(self, case):
        """Maximal non-interleaving: two runs typed concurrently into one gap
        come out as two contiguous blocks, in either order."""
        if case == "hand-built":
            merged, run_a, run_b = _typed_on_internal_state()
        else:
            merged, run_a, run_b = _typed_on_documents(int(case.removeprefix("documents-seed")))
        assert merged in (run_a + run_b, run_b + run_a)


def _typed_on_internal_state() -> tuple[str, str, str]:
    """Two users concurrently type two-character runs at position 0 of an
    empty state; returns the merged order and both runs as agent initials."""
    state = make_state()
    state.apply_insert(EventId("alice", 0), 0)
    state.apply_insert(EventId("alice", 1), 1)
    for eid in (EventId("alice", 1), EventId("alice", 0)):
        state.retreat(eid, is_insert=True)
    state.apply_insert(EventId("bob", 0), 0)
    state.apply_insert(EventId("bob", 1), 1)
    # Per-character agent order (span re-merging may coalesce each user's
    # characters into a single record, which is exactly the point).
    merged = "".join(r.id.agent[0] * r.length for r in state.iter_records())
    return merged, "aa", "bb"


def _typed_on_documents(seed: int) -> tuple[str, str, str]:
    """Two replicas of a seeded text each type a run, front to back in chunks
    of one to three keystrokes, into the same gap.  After merging both ways,
    returns the text that fills the gap and the two runs."""
    rng = random.Random(seed)
    base = Document("base")
    base.insert(0, "".join(rng.choice("xyz") for _ in range(rng.randint(0, 10))))
    gap = rng.randint(0, len(base.text))
    # Random agent names, so either run may win the id tie-break.
    typists = [Document(name) for name in rng.sample(["ann", "bo", "cy", "di"], 2)]
    runs = []
    for typist, alphabet in zip(typists, ("abcdefgh", "ABCDEFGH")):
        typist.merge(base)
        run = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 9)))
        typed = 0
        while typed < len(run):
            chunk = run[typed : typed + rng.randint(1, 3)]
            typist.insert(gap + typed, chunk)
            typed += len(chunk)
        runs.append(run)
    first, second = typists
    first.merge(second)
    second.merge(first)
    text = first.text
    assert second.text == text
    assert text[:gap] + text[len(text) - len(base.text) + gap :] == base.text
    return text[gap : len(text) - len(base.text) + gap], runs[0], runs[1]


class TestClear:
    @pytest.mark.parametrize("merge_spans", MERGE_SPANS)
    def test_clear_resets_to_placeholder(self, merge_spans):
        state = make_state(merge_spans=merge_spans)
        for i in range(4):
            state.apply_insert(EventId("a", i), i)
        state.clear(4)
        assert state.prepare_length() == 4
        assert state.effect_length() == 4
        assert state.record_count() == 1

    @pytest.mark.parametrize("merge_spans", MERGE_SPANS)
    def test_editing_after_clear_uses_placeholder(self, merge_spans):
        state = make_state(merge_spans=merge_spans)
        for i in range(4):
            state.apply_insert(EventId("a", i), i)
        state.clear(4)
        assert state.apply_insert(EventId("b", 0), 2) == 2
        segments = state.apply_delete(EventId("b", 1), 0)
        assert [(s.length, s.effect_pos) for s in segments] == [(1, 0)]
        assert state.effect_length() == 4
