"""End-to-end tests for the run-length encoded replay pipeline.

The paper attributes most of Eg-walker's "Faster, Smaller" wins to run-length
encoding (§4): real traces are dominated by runs of consecutive insertions and
deletions, and the implementation stores and replays *runs*, not characters.
These tests pin down the two sides of that claim for this reproduction:

* **Equivalence** — replaying a trace as run events produces byte-identical
  documents (and final lengths) to the expanded per-character oracle
  (``oracles.per_char_text``), across the sort-order ablation's orders
  and with the §3.5 optimisations on and off.
* **Complexity** — a run-encoded sequential trace creates O(runs) events and
  O(runs) peak CRDT records, not O(chars).

Plus the §3.5–3.6 edge cases the run refactor makes interesting: a single
delete run spanning a placeholder/record boundary, run splits forced by
concurrent edits in the middle of a run, and retreat/advance of split runs.
"""

from __future__ import annotations

import pytest

from repro.core.document import Document
from repro.core.event_graph import EventGraph, expand_to_chars
from repro.core.ids import EventId, delete_op, insert_op
from repro.core.internal_state import InternalState
from repro.core.order_statistic_tree import TreeSequence
from repro.core.records import INSERTED, CrdtRecord, PlaceholderPiece
from repro.core.topo_sort import sort_branch_aware
from repro.core.walker import EgWalker, coalesce_ops
from repro.bench.harness import SORT_ORDERS
from repro.crdt import SimpleListCRDT, event_graph_to_crdt_ops
from repro.traces.generator import (
    generate_async,
    generate_concurrent,
    generate_sequential,
)

from oracles import per_char_text


def make_state(placeholder: int = 0, *, merge_spans: bool = True) -> InternalState:
    return InternalState(TreeSequence(placeholder), merge_spans=merge_spans)


# ----------------------------------------------------------------------
# Run/char equivalence property (the correctness oracle)
# ----------------------------------------------------------------------
class TestRunCharEquivalence:
    @pytest.mark.parametrize(
        "trace_fixture",
        ["small_sequential_trace", "small_concurrent_trace", "small_async_trace"],
    )
    @pytest.mark.parametrize("sort_order", SORT_ORDERS)
    def test_run_replay_matches_per_char_oracle(self, trace_fixture, sort_order, request):
        trace = request.getfixturevalue(trace_fixture)
        graph = trace.graph
        assert expand_to_chars(graph).num_chars == graph.num_chars
        oracle = per_char_text(graph)
        order = SORT_ORDERS[sort_order](graph)
        for clearing in (True, False):
            result = EgWalker(graph).transform(order, clearing=clearing)
            assert result.text() == oracle
            assert result.final_length == len(oracle)

    @pytest.mark.parametrize(
        "trace_fixture",
        ["small_sequential_trace", "small_concurrent_trace", "small_async_trace"],
    )
    @pytest.mark.parametrize("sort_order", SORT_ORDERS)
    def test_run_replay_matches_the_list_crdt(self, trace_fixture, sort_order, request):
        """Whatever the sort order, the run replay gives the text of the
        independent list CRDT fed the graph's id-based ops: concurrent runs
        are ordered by that CRDT's own YjsMod integration, not the walker's."""
        graph = request.getfixturevalue(trace_fixture).graph
        replica = SimpleListCRDT("oracle")
        replica.apply_all(event_graph_to_crdt_ops(graph))
        order = SORT_ORDERS[sort_order](graph)
        assert EgWalker(graph).transform(order, clearing=True).text() == replica.text()

    @pytest.mark.parametrize("seed", range(5))
    def test_random_concurrent_traces_match_oracle(self, seed):
        trace = generate_concurrent("rle", target_events=160, seed=100 + seed)
        graph = trace.graph
        assert EgWalker(graph).replay_text() == per_char_text(graph)

    def test_expansion_is_identity_on_per_char_graphs(self, figure4_graph):
        expanded = expand_to_chars(figure4_graph)
        assert len(expanded) == len(figure4_graph)
        assert [e.id for e in expanded.events()] == [
            e.id for e in figure4_graph.events()
        ]
        assert EgWalker(expanded).replay_text() == EgWalker(figure4_graph).replay_text()


# ----------------------------------------------------------------------
# O(runs) complexity (the acceptance criterion)
# ----------------------------------------------------------------------
class TestRunComplexity:
    def test_sequential_run_trace_creates_o_runs_events_and_records(self):
        """A run-encoded sequential trace: O(runs) events, O(runs) peak records."""
        graph = EventGraph()
        runs = length = 0
        for i in range(50):
            sentence = f"sentence number {i}. "
            graph.add_local_event("alice", insert_op(length, sentence))
            length += len(sentence)
            runs += 1
        for _ in range(10):
            graph.add_local_event("alice", delete_op(0, 8))
            runs += 1
        chars = graph.num_chars
        assert len(graph) == runs
        assert chars > 10 * runs  # the trace really is run-dominated

        # A Document's sender-side coalescing shrinks the same session
        # further: the 50 continuing inserts fold into one run event and the
        # 10 same-index deletes into another — O(runs) *at the source*.
        coalesced = Document("alice")
        for i in range(50):
            coalesced.insert(len(coalesced.text), f"sentence number {i}. ")
        for _ in range(10):
            coalesced.delete(0, 8)
        assert len(coalesced.oplog.graph) == 2
        assert coalesced.oplog.graph.num_chars == chars
        assert coalesced.text == EgWalker(graph).replay_text()

        # Even with the state-clearing optimisation disabled (so nothing is
        # ever thrown away), the internal state holds O(runs) span records,
        # not O(chars): each insert run is one record and each delete run
        # splits at most two of them.
        stats = EgWalker(graph).transform(range(len(graph)), clearing=False).stats
        assert stats.events_processed == runs
        assert stats.chars_processed == chars
        assert stats.peak_records <= 3 * runs
        assert stats.peak_records < chars / 3

    def test_fast_path_counts_runs_and_chars(self, small_sequential_trace):
        graph = small_sequential_trace.graph
        walker = EgWalker(graph)
        walker.replay_text()
        stats = walker.last_stats
        assert stats.events_fast_path == len(graph)
        assert stats.chars_fast_path == graph.num_chars
        assert stats.peak_records == 0  # the CRDT state was never touched

    def test_merge_of_run_branches_stays_run_sized(self):
        """Two branches of run events merge with O(runs) records."""
        alice = Document("alice")
        alice.insert(0, "the shared base paragraph. ")
        bob = Document("bob")
        bob.merge(alice)
        for i in range(20):
            alice.insert(len(alice.text), f"alice writes sentence {i}. ")
            bob.insert(0, f"bob writes sentence {i}. ")
        alice.merge(bob)
        bob.merge(alice)
        assert alice.text == bob.text
        graph = alice.oplog.graph
        order = sort_branch_aware(graph, range(len(graph)))
        stats = EgWalker(graph).transform(order, clearing=False).stats
        assert stats.peak_records <= 4 * len(graph)
        assert stats.peak_records < graph.num_chars / 4


# ----------------------------------------------------------------------
# Transformed output is run-valued
# ----------------------------------------------------------------------
class TestRunTransformedOutput:
    def test_insert_runs_transform_to_single_ops(self):
        doc = Document("alice")
        doc.insert(0, "hello world")
        other = Document("bob")
        ops = other.merge(doc)
        assert len(ops) == 1
        assert ops[0].content == "hello world"

    def test_delete_run_splits_only_when_concurrency_forces_it(self):
        # Alice deletes a run that bob concurrently inserted into the middle
        # of: the transformed delete must come out as two segments.
        alice = Document("alice")
        alice.insert(0, "abcdef")
        bob = Document("bob")
        bob.merge(alice)
        bob.insert(3, "XY")  # abcXYdef at bob
        alice.delete(1, 4)  # delete bcde at alice -> af
        walker_ops = bob.merge(alice)
        assert bob.text == "aXYf"
        deletes = [op for op in walker_ops if op.is_delete]
        assert len(deletes) == 2
        assert sum(op.length for op in deletes) == 4

    def test_coalesce_ops_merges_adjacent_runs(self):
        ops = [
            insert_op(0, "ab"),
            insert_op(2, "cd"),
            delete_op(1, 2),
            delete_op(1, 1),
            insert_op(5, "x"),
        ]
        merged = coalesce_ops(ops)
        assert merged == [insert_op(0, "abcd"), delete_op(1, 3), insert_op(5, "x")]


# ----------------------------------------------------------------------
# Placeholder carving and state clearing across boundaries (§3.5–3.6)
# ----------------------------------------------------------------------
class TestPlaceholderRunCarving:
    @pytest.mark.parametrize("merge_spans", [True, False])
    def test_delete_run_inside_placeholder_carves_one_record(self, merge_spans):
        state = make_state(placeholder=20, merge_spans=merge_spans)
        segments = state.apply_delete(EventId("a", 0), 5, 6)
        assert [(s.length, s.effect_pos) for s in segments] == [(6, 5)]
        assert state.prepare_length() == 14
        assert state.effect_length() == 14
        # left piece + carved record + right piece
        assert state.record_count() == 3
        record = state.record_for(EventId("a", 0))
        assert record.ever_deleted and record.length == 6
        assert record.ph_base == 5

    def test_adjacent_carves_by_separate_deletes_re_merge(self):
        """Carved runs are keyed by their original placeholder offset, so two
        deletes carving adjacent spans coalesce into one record — with
        counter-allocated synthetic ids they never could (the PR 2 leftover)."""
        state = make_state(placeholder=20)
        state.apply_delete(EventId("a", 0), 5, 3)  # carves ph 5..7
        assert state.record_count() == 3  # left ph + carve + right ph
        # A second delete at the same prepare index eats the next 3 chars
        # (ph 8..10): its carve is id- and ph-contiguous with the first.
        state.apply_delete(EventId("a", 3), 5, 3)
        assert state.spans_merged >= 1
        assert state.record_count() == 3  # still left ph + one carve + right ph
        record = state.record_for(EventId("a", 0))
        assert record.length == 6 and record.ph_base == 5
        # Retreating one of the deletes splits the merged carve back apart
        # losslessly, and re-advancing re-merges it.
        state.retreat(EventId("a", 3), False, 3)
        assert state.record_for(EventId("a", 3)).length == 3
        assert state.prepare_length() == 17
        state.advance(EventId("a", 3), False, 3)
        assert state.record_for(EventId("a", 0)).length == 6
        assert state.prepare_length() == 14
        assert state.effect_length() == 14

    @pytest.mark.parametrize("merge_spans", [True, False])
    def test_delete_run_spanning_placeholder_and_record_boundary(self, merge_spans):
        """One delete run covers placeholder chars, an inserted run, and more
        placeholder chars — it must carve/split into per-boundary segments."""
        state = make_state(placeholder=10, merge_spans=merge_spans)
        # An insert run in the middle of the placeholder: [0..4] R(5) [5..9]
        state.apply_insert(EventId("ins", 0), 5, 3)
        assert state.prepare_length() == 13
        # Delete 7 chars starting at 3: placeholder 3..4, the whole inserted
        # run, then placeholder 5..6.
        segments = state.apply_delete(EventId("del", 0), 3, 7)
        assert [s.length for s in segments] == [2, 3, 2]
        assert [s.effect_pos for s in segments] == [3, 3, 3]
        assert state.prepare_length() == 6
        assert state.effect_length() == 6
        # The inserted run was deleted whole — no split of the record itself.
        record = state.record_for(EventId("ins", 0))
        assert record.length == 3 and record.ever_deleted

    def test_delete_run_spanning_boundary_via_walker(self):
        """The same §3.6 scenario end-to-end: a remote delete run spanning the
        base-version placeholder and a freshly merged insert run — merged by
        documents, then replayed by the walker (its state
        clears to a placeholder after the critical first run)."""
        alice = Document("alice")
        alice.insert(0, "0123456789")
        bob = Document("bob")
        bob.merge(alice)
        bob.insert(5, "XYZ")  # 01234XYZ56789 at bob
        alice.delete(3, 4)  # delete 3456 at alice -> 012789
        alice.merge(bob)
        bob.merge(alice)
        assert alice.text == bob.text == "012XYZ789"
        oracle = per_char_text(alice.oplog.graph)
        assert alice.text == oracle
        walker = EgWalker(alice.oplog.graph)
        assert walker.replay_text() == oracle
        assert walker.last_stats.state_clears >= 1

    @pytest.mark.parametrize("merge_spans", [True, False])
    def test_retreat_and_advance_of_split_runs(self, merge_spans):
        """Retreating a run whose record was split by a later delete touches
        every fragment exactly once."""
        state = make_state(merge_spans=merge_spans)
        state.apply_insert(EventId("a", 0), 0, 8)
        state.apply_delete(EventId("b", 0), 2, 3)  # splits the run into 3 spans
        assert state.prepare_length() == 5
        state.retreat(EventId("b", 0), is_insert=False)
        assert state.prepare_length() == 8
        state.retreat(EventId("a", 0), is_insert=True, length=8)
        assert state.prepare_length() == 0
        state.advance(EventId("a", 0), is_insert=True, length=8)
        assert state.prepare_length() == 8
        state.advance(EventId("b", 0), is_insert=False)
        assert state.prepare_length() == 5
        # Effect state is unchanged by retreat/advance.
        assert state.effect_length() == 5

    @pytest.mark.parametrize("merge_spans", [True, False])
    def test_insert_into_middle_of_run_splits_it(self, merge_spans):
        state = make_state(merge_spans=merge_spans)
        state.apply_insert(EventId("a", 0), 0, 6)
        assert state.record_count() == 1
        # A (concurrent) insert between characters 2 and 3 of the run.
        effect_pos = state.apply_insert(EventId("b", 0), 3, 2)
        assert effect_pos == 3
        assert state.record_count() == 3
        assert state.prepare_length() == 8
        left = state.record_for(EventId("a", 2))
        right = state.record_for(EventId("a", 3))
        assert left is not right
        assert left.prepare_state == right.prepare_state == INSERTED
        # The split halves keep id-accurate origins: the right half's left
        # origin is the last character of the left half.
        assert right.origin_left == EventId("a", 2)

    def test_state_clearing_with_run_events_still_converges(self):
        """State clears sit between runs; replay stays correct around them."""
        doc = Document("alice")
        for i in range(30):
            doc.insert(len(doc.text) // 2, f"run {i}! ")
            if i % 3 == 2:
                doc.delete(0, 3)
        graph = doc.oplog.graph
        oracle = per_char_text(graph)
        walker = EgWalker(graph)
        assert walker.replay_text() == oracle
        assert walker.last_stats.state_clears >= 0


# ----------------------------------------------------------------------
# Span re-merging: splits are undone once concurrency resolves
# ----------------------------------------------------------------------
class TestSpanReMerging:
    def test_fragments_only_merge_when_effect_states_match(self):
        state = make_state()
        state.apply_insert(EventId("a", 0), 0, 8)
        state.apply_delete(EventId("b", 0), 2, 3)  # splits into kept|deleted|kept
        assert state.record_count() == 3
        state.retreat(EventId("b", 0), is_insert=False)
        # Prepare visibility is restored, but the middle fragment was deleted
        # in the effect version (s_e never un-deletes), so it must NOT rejoin
        # its never-deleted neighbours — merging is only ever lossless.
        assert state.record_count() == 3
        assert state.spans_merged == 0
        assert state.prepare_length() == 8

    def test_overlapping_concurrent_deletes_re_merge_the_run(self):
        """Once a concurrent delete sweeps over the fragments a first delete
        left behind, every fragment has the same state again and the run
        coalesces back into O(1) spans."""
        state = make_state()
        state.apply_insert(EventId("a", 0), 0, 8)
        state.apply_delete(EventId("b", 0), 2, 3)
        state.retreat(EventId("b", 0), is_insert=False)
        assert state.record_count() == 3
        # A concurrent delete of the whole run: the never-deleted fragments
        # turn Del 1 / ever_deleted, matching the middle fragment.
        segments = state.apply_delete(EventId("c", 0), 0, 8)
        assert [s.effect_pos for s in segments] == [0, None, 0]
        assert state.record_count() == 1
        assert state.spans_merged >= 2
        record = state.record_for(EventId("a", 4))
        assert record.id == EventId("a", 0) and record.length == 8
        # Retreating the big delete restores prepare visibility; the whole run
        # has been effect-deleted by now, so it stays one span.
        state.retreat(EventId("c", 0), is_insert=False)
        assert state.prepare_length() == 8
        assert state.effect_length() == 0
        assert state.record_count() == 1

    def test_adjacent_deleted_fragments_coalesce(self):
        """Single-character deletes at the same index chew through a run but
        leave O(1) spans, not O(chars): each new Del fragment merges into the
        previous one."""
        state = make_state()
        state.apply_insert(EventId("a", 0), 0, 10)
        for k in range(6):
            state.apply_delete(EventId("d", k), 2)
        # kept prefix | one merged deleted span | kept suffix
        assert state.record_count() == 3
        assert state.prepare_length() == 4

    def test_graph_split_runs_coalesce_into_one_record(self):
        """Two id-contiguous events (a run split at the graph level) replay
        into a single internal-state record."""
        state = make_state()
        state.apply_insert(EventId("a", 0), 0, 3)
        state.apply_insert(EventId("a", 3), 3, 4)
        assert state.record_count() == 1
        record = state.record_for(EventId("a", 5))
        assert record.id == EventId("a", 0) and record.length == 7

    def test_merging_can_be_disabled(self):
        state = make_state(merge_spans=False)
        state.apply_insert(EventId("a", 0), 0, 8)
        state.apply_delete(EventId("b", 0), 2, 3)
        state.retreat(EventId("b", 0), is_insert=False)
        assert state.record_count() == 3
        assert state.spans_merged == 0

    def test_walker_stats_show_final_spans_below_peak(self):
        """The acceptance trace: concurrency fragments the state, quiescence
        re-merges it — the final span count drops back below the peak."""
        graph = EventGraph()
        run = graph.add_local_event("x", insert_op(0, "x" * 40))
        # Branch y: spaced single-char deletes fragment x's run badly.
        y_events = []
        parent = run.index
        for k in range(6):
            event = graph.add_event(
                EventId("y", k), (parent,), delete_op(2 + 3 * k), parents_are_indices=True
            )
            y_events.append(event.index)
            parent = event.index
        # Branch z (concurrent with all of y): a sweeping delete whose
        # coverage gives every fragment the same state again, then quiet
        # sequential typing.
        z_events = []
        parent = run.index
        next_seq = 0
        for k, op in enumerate(
            [delete_op(0, 36)] + [insert_op(k, "z") for k in range(6)]
        ):
            event = graph.add_event(
                EventId("z", next_seq), (parent,), op, parents_are_indices=True
            )
            next_seq += op.length
            z_events.append(event.index)
            parent = event.index
        order = [run.index] + y_events + z_events

        # Span merging is a property of the internal state, so the split-only
        # ablation hands the walker a state built with ``merge_spans=False``.
        walker = EgWalker(graph)

        def replay_in_order(merge_spans):
            # Clearing is off so the whole session runs against live CRDT
            # state (the regime span re-merging exists for).
            result = walker.transform(
                order, state=make_state(merge_spans=merge_spans), clearing=False
            )
            return result.text(), result.stats

        oracle = per_char_text(graph)
        merged_text, merged = replay_in_order(True)
        plain_text, plain = replay_in_order(False)
        assert merged_text == plain_text == oracle

        # Replaying branch y fragments the run; retreating it for branch z
        # re-merges the fragments, so the session ends far below its peak ...
        assert merged.spans_merged > 0
        assert merged.final_records < merged.peak_records
        # ... while without re-merging the fragments are kept forever.
        assert plain.spans_merged == 0
        assert plain.final_records == plain.peak_records
        assert merged.final_records < plain.final_records

        # Same session as a *windowed* replay from the base run (§3.6), so
        # the branch deletes carve the placeholder.  Carved runs are keyed by
        # their original placeholder offset, so adjacent carves — even ones
        # made by different delete events across the two branches — re-merge,
        # and the final span count collapses; the split-only ablation keeps
        # every carve fragment forever.
        window = y_events + z_events
        results = {}
        for merging in (True, False):
            results[merging] = walker.transform(
                window,
                base_version=(run.index,),
                state=make_state(40, merge_spans=merging),
                clearing=False,
            )
        assert [t.ops for t in results[True].transformed] == [
            t.ops for t in results[False].transformed
        ]
        carved_merged = results[True].stats
        carved_plain = results[False].stats
        assert carved_merged.spans_merged > 0
        assert carved_merged.final_records < carved_plain.final_records
        # The sweep's 36 deleted characters end as a handful of spans, not
        # one fragment per carve boundary.
        assert carved_merged.final_records <= carved_plain.final_records // 2

    def test_walker_replay_of_differently_carved_graphs_matches(self):
        """Replaying a graph and a re-carved copy of it yields the same text
        (run boundaries are an encoding detail all the way down)."""
        alice, bob = Document("alice"), Document("bob")
        alice.insert(0, "the quick brown fox ")
        bob.merge(alice)
        alice.insert(20, "jumps over ")
        bob.insert(0, "intro: ")
        bob.delete(11, 4)
        alice.merge(bob)
        bob.merge(alice)
        assert alice.text == bob.text
        # Force a different carving of the same history into a third replica.
        from repro.core.oplog import recarve_events

        carol = Document("carol")
        events = alice.oplog.export_events()
        recarved = recarve_events(
            events,
            splits=lambda e: range(1, e.op.length, 2),
            merge_adjacent=True,
        )
        carol.apply_remote_events(recarved)
        assert carol.text == alice.text
        assert EgWalker(carol.oplog.graph).replay_text() == alice.text


# ----------------------------------------------------------------------
# The id range maps stay O(runs)
# ----------------------------------------------------------------------
class TestRangeMaps:
    def test_event_graph_id_map_is_run_ranged(self):
        graph = EventGraph()
        graph.add_local_event("a", insert_op(0, "hello world, this is one run"))
        graph.add_local_event("a", delete_op(0, 5))
        assert len(graph) == 2
        # Any character id resolves without per-character entries.
        assert graph.locate(EventId("a", 0)) == (0, 0)
        assert graph.locate(EventId("a", 27)) == (0, 27)
        assert graph.locate(EventId("a", 28)) == (1, 0)
        assert graph.locate(EventId("a", 32)) == (1, 4)
        assert not graph.contains_id(EventId("a", 33))
        assert graph.index_of(EventId("a", 10)) == 0

    def test_internal_state_record_spans_follow_splits(self):
        state = make_state()
        state.apply_insert(EventId("a", 0), 0, 10)
        state.apply_delete(EventId("b", 0), 4, 2)
        spans = state.sequence.record_spans(EventId("a", 0), 10)
        assert [(r.id.seq, length) for r, _, length in spans] == [
            (0, 4),
            (4, 2),
            (6, 4),
        ]
        assert all(offset == 0 for _, offset, _ in spans)
