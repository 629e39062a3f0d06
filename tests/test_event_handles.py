"""Handle stability under the columnar event graph's indirection table.

The graph stores events in handle-indexed columns and keeps the local order
as an array of handles with strictly increasing order labels (see
``event_graph.py``'s module docstring).  These tests pin down the contract
that the rest of the stack — the critical-cut tracker, the merge engine's
resident checkpoint, saved :class:`Version` handles, the storage codec —
relies on:

* handles and :class:`Event` views are **never renumbered and never go
  stale**: they survive interop splits (the handle stays with the left
  half), in-place run extensions, and arbitrary later growth, and every
  view of an event equals every other;
* ``index_of_handle`` / ``handle_at`` stay exact inverses and order labels
  stay strictly increasing through splits, including the label-space
  re-spread when many splits land between the same two events;
* the tracker's handle-keyed cut list matches a from-scratch
  :func:`critical_cut_positions` rebuild after any split pattern;
* the merge engine's resident checkpoint is *dropped* when an interop split
  or an in-place extension lands inside (or below) the window it covers,
  kept when the change lands above it, and the next merge — a fresh replay
  from the latest critical version, or a resume — converges with a fresh
  observer replica and the per-character oracle.
"""

from __future__ import annotations

from repro.core.critical_versions import CriticalCutTracker, critical_cut_positions
from repro.core.document import Document
from repro.core.event_graph import EventGraph
from repro.core.ids import EventId, delete_op, insert_op
from repro.core.oplog import RemoteEvent
from repro.core.walker import EgWalker
from repro.storage import decode_file, encode_event_graph_v3

from oracles import per_char_text


def sequential_graph(chunks: list[str], agent: str = "a") -> EventGraph:
    """One insert run per chunk, chained — a purely sequential history."""
    graph = EventGraph()
    pos = 0
    for chunk in chunks:
        graph.add_local_event(agent, insert_op(pos, chunk))
        pos += len(chunk)
    return graph


class TestHandleIndirection:
    def build(self) -> EventGraph:
        graph = EventGraph()
        graph.add_event(EventId("a", 0), (), insert_op(0, "abcdef"))
        graph.add_event(EventId("b", 0), (), insert_op(0, "XY"))
        graph.add_event(
            EventId("c", 0), [EventId("a", 5), EventId("b", 1)], insert_op(0, "z")
        )
        return graph

    def test_views_are_values_with_live_attributes(self):
        graph = self.build()
        view = graph[0]
        assert graph[0] == view and graph.events()[0] == view
        graph.split_event(0, 3)
        # The view still points at the left half: same handle, same id, the
        # index reads live.
        assert graph[0] == view
        assert view.index == 0 and view.id == EventId("a", 0)
        assert view.op.content == "abc"

    def test_handles_survive_split(self):
        graph = self.build()
        handles = [graph.handle_at(i) for i in range(len(graph))]
        saved_ids = [graph.id_of(i) for i in range(len(graph))]
        right = graph.split_event(0, 4)
        # Existing handles still resolve to the same events (by id), at their
        # current — shifted — indices.
        assert graph.index_of_handle(handles[0]) == 0
        assert graph.index_of_handle(handles[1]) == 2
        assert graph.index_of_handle(handles[2]) == 3
        for handle, saved in zip(handles, saved_ids):
            assert graph._h_id[handle] == saved  # lint: disable=column-encapsulation -- whitebox: this test pins the column layout itself
        # The right half is a fresh handle directly after the left.
        assert right.index == 1 and right.id == EventId("a", 4)
        assert right.parents == (0,)
        # The whole-run dependency of "c" moved to the right half.
        assert graph.parents_of(3) == (1, 2)

    def test_index_of_handle_is_the_inverse_of_handle_at(self):
        graph = self.build()
        graph.split_event(0, 2)
        graph.split_event(1, 2)
        graph.split_event(3, 1)
        for index in range(len(graph)):
            assert graph.index_of_handle(graph.handle_at(index)) == index

    def test_order_keys_stay_strictly_increasing(self):
        graph = self.build()
        graph.split_event(0, 3)
        keys = [graph.order_key(graph.handle_at(i)) for i in range(len(graph))]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)

    def test_label_respread_when_gap_exhausts(self):
        # Repeatedly splitting off one character bisects the same label gap
        # every time, which must eventually trigger the O(n) re-spread — and
        # everything must keep resolving exactly afterwards.
        graph = EventGraph()
        graph.add_event(EventId("a", 0), (), insert_op(0, "x" * 64))
        view = graph[0]
        for _ in range(40):
            graph.split_event(0, graph[0].op.length - 1)
        assert len(graph) == 41
        assert graph[0] == view and view.index == 0
        keys = [graph.order_key(graph.handle_at(i)) for i in range(len(graph))]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        for index in range(len(graph)):
            assert graph.index_of_handle(graph.handle_at(index)) == index
        # The per-character chaining is intact: a split graph is semantically
        # the unsplit one.
        assert graph.parents_of(5) == (4,)
        assert EgWalker(graph).replay_text() == "x" * 64

    def test_handles_survive_in_place_extension(self):
        graph = EventGraph()
        event = graph.add_local_event("a", insert_op(0, "ab"))
        handle = event.handle
        graph.extend_event(0, insert_op(2, "cd"))
        assert graph.handle_at(0) == handle
        assert graph[0] == event and event.op.content == "abcd"
        assert graph.num_chars == 4
        assert graph.locate(EventId("a", 3)) == (0, 3)

    def test_frontier_handles_match_frontier(self):
        graph = self.build()
        assert {graph.index_of_handle(h) for h in graph.frontier_handles} == set(
            graph.frontier
        )
        graph.split_event(1, 1)
        assert {graph.index_of_handle(h) for h in graph.frontier_handles} == set(
            graph.frontier
        )


class TestTrackerHandleKeyed:
    def test_cuts_survive_splits_elsewhere_without_shifting(self):
        graph = sequential_graph(["ab", "cd", "ef", "gh"])
        tracker = CriticalCutTracker(graph)
        assert tracker.cuts() == list(range(4))
        graph.split_event(1, 1)
        # Every cut position past the split shifted; the handle-keyed list
        # must agree with a from-scratch recompute.
        expected = sorted(critical_cut_positions(graph, range(len(graph))))
        assert tracker.cuts() == expected == list(range(5))
        assert tracker.critical_run_end(0) == 4

    def test_split_of_a_cut_event_gains_a_twin(self):
        graph = EventGraph()
        graph.add_event(EventId("a", 0), (), insert_op(0, "abcd"))
        tracker = CriticalCutTracker(graph)
        assert tracker.cuts() == [0]
        graph.split_event(0, 2)
        assert tracker.cuts() == [0, 1]
        assert tracker.critical_run_end(0) == 1

    def test_cut_queries_after_mixed_splits_match_rebuild(self):
        graph = sequential_graph(["ab", "cd", "ef"])
        # A concurrent root event kills criticality for the history's tail.
        graph.add_event(EventId("z", 0), (), insert_op(0, "Q"))
        graph.add_event(
            EventId("a", 6),
            [EventId("a", 5), EventId("z", 0)],
            insert_op(0, "r"),
        )
        tracker = CriticalCutTracker(graph)
        graph.split_event(1, 1)
        expected = sorted(critical_cut_positions(graph, range(len(graph))))
        assert tracker.cuts() == expected
        for position in range(len(graph) + 1):
            brute = [c for c in expected if c < position]
            assert tracker.latest_cut_before(position) == (
                brute[-1] if brute else None
            )


def _remote(graph_id, parents, op):
    return RemoteEvent(id=graph_id, parents=tuple(parents), op=op)


class ResidentStateAtSplits:
    """Graph listener registered after the document's merge engine: records
    whether walker state was resident right after the engine's split hook
    ran (the merge that carried the split may build new state afterwards)."""

    def __init__(self, document: Document) -> None:
        self.engine = document.engine
        self.resident: list[bool] = []
        document.oplog.graph.add_listener(self)

    def event_split(self, index: int) -> None:
        self.resident.append(self.engine.has_resident_state)


def assert_converged(document: Document) -> None:
    observer = Document("observer")
    observer.merge(document)
    assert observer.text == document.text == per_char_text(document.oplog.graph)


class TestCheckpointDrop:
    def test_insert_split_inside_window_drops_checkpoint(self):
        # carol holds only a prefix of alice's run and edits on top of it;
        # bob's resident checkpoint covers the full run, so carol's event
        # splits the run *inside the resident window*.
        alice = Document("alice")
        bob = Document("bob")
        carol = Document("carol")
        alice.insert(0, "abc")
        carol.merge(alice)  # carol stops at the 3-char prefix
        alice.insert(3, "def")  # extends the run in place: one 6-char run
        bob.insert(0, "Z")  # concurrent with everything of alice
        bob.merge(alice)
        assert bob.engine.has_resident_state
        probe = ResidentStateAtSplits(bob)
        stats_before = bob.merge_stats.snapshot()
        carol.insert(3, "Q")  # parent references mid-run character "c"
        bob.merge(carol)
        stats = bob.merge_stats
        assert probe.resident == [False]
        assert stats.checkpoints_dropped == stats_before["checkpoints_dropped"] + 1
        # The merge that carried the split replays from the critical version.
        assert stats.fresh_replays == stats_before["fresh_replays"] + 1
        assert stats.resumed_merges == stats_before["resumed_merges"]
        assert_converged(bob)
        carol.merge(bob)
        alice.merge(bob)
        assert carol.text == alice.text == bob.text

    def test_delete_split_inside_window_drops_checkpoint(self):
        # Same shape, but the split run is a *delete* run, whose applied
        # targets the resident state keys by the whole run's id.
        alice = Document("alice")
        bob = Document("bob")
        carol = Document("carol")
        alice.insert(0, "abcdef")
        bob.merge(alice)
        carol.merge(alice)
        alice.delete(0, 1)
        alice.delete(0, 1)  # extends the delete run: one 2-char run so far
        carol.merge(alice)  # carol holds the 2-char prefix of the run
        alice.delete(0, 1)
        alice.delete(0, 1)  # ... extended to 4 chars on alice's side
        bob.insert(6, "Z")  # concurrent, forces walker state on merge
        bob.merge(alice)
        assert bob.engine.has_resident_state
        probe = ResidentStateAtSplits(bob)
        stats_before = bob.merge_stats.snapshot()
        carol.insert(0, "Q")  # parent references the delete run mid-way
        bob.merge(carol)
        stats = bob.merge_stats
        assert probe.resident == [False]
        assert stats.checkpoints_dropped == stats_before["checkpoints_dropped"] + 1
        assert stats.fresh_replays == stats_before["fresh_replays"] + 1
        assert stats.resumed_merges == stats_before["resumed_merges"]
        assert_converged(bob)
        alice.merge(bob)
        carol.merge(bob)
        assert alice.text == carol.text == bob.text

    def test_split_below_base_cut_drops_checkpoint(self):
        # The checkpoint's base is the critical cut after "abcd"; splitting
        # that run re-points the indices the base and window are kept at.
        # A peer's reference into the run would also un-make the base cut,
        # so the (semantically no-op) re-carving is made directly.
        doc = Document("local")
        doc.apply_remote_events([_remote(EventId("a", 0), (), insert_op(0, "abcd"))])
        doc.apply_remote_events(
            [
                _remote(EventId("x", 0), (EventId("a", 3),), insert_op(4, "X")),
                _remote(EventId("y", 0), (EventId("a", 3),), insert_op(4, "Y")),
            ]
        )
        assert doc.engine.has_resident_state
        stats_before = doc.merge_stats.snapshot()
        doc.oplog.graph.split_event(0, 2)
        stats = doc.merge_stats
        assert stats.checkpoints_dropped == stats_before["checkpoints_dropped"] + 1
        assert not doc.engine.has_resident_state
        late = _remote(EventId("x", 1), (EventId("x", 0),), insert_op(5, "E"))
        doc.apply_remote_events([late])
        assert stats.fresh_replays == stats_before["fresh_replays"] + 1
        assert stats.resumed_merges == stats_before["resumed_merges"]
        assert_converged(doc)

    def _seed_resident_sole_frontier(self, kind: str) -> Document:
        """A document whose resident checkpoint covers its own agent's run
        as the sole frontier head — the live-typing extension shape."""
        doc = Document("local")
        a0 = _remote(EventId("local", 0), (), insert_op(0, "ab"))
        concurrent = _remote(EventId("remote", 0), (), insert_op(0, "CD"))
        if kind == "insert":
            join_op = insert_op(0, "x")
        else:
            join_op = delete_op(0, 1)
        join = _remote(
            EventId("local", 2), (EventId("local", 1), EventId("remote", 1)), join_op
        )
        doc.apply_remote_events([a0])
        # One batch, so that no critical version intervenes: delivered on its
        # own, ``concurrent`` would leave the two-head version {a0,
        # concurrent} critical and ``join`` (which names both heads) would
        # ride the fast path across it, dropping the state.
        doc.apply_remote_events([concurrent, join])
        assert doc.engine.has_resident_state
        return doc

    def test_insert_extension_drops_checkpoint(self):
        doc = self._seed_resident_sole_frontier("insert")
        stats_before = doc.merge_stats.snapshot()
        # The local user keeps typing: the edit extends the resident join
        # run in place, which retires the state that applied it.
        doc.insert(1, "y")
        stats = doc.merge_stats
        assert stats.checkpoints_dropped == stats_before["checkpoints_dropped"] + 1
        assert not doc.engine.has_resident_state
        assert len(doc.oplog.graph) == 3  # extended in place, no new event
        # A further concurrent remote event replays the window afresh,
        # reading the extended run at its full length.
        late = _remote(EventId("remote", 2), (EventId("remote", 1),), insert_op(2, "E"))
        doc.apply_remote_events([late])
        assert stats.fresh_replays == stats_before["fresh_replays"] + 1
        assert stats.resumed_merges == stats_before["resumed_merges"]
        assert_converged(doc)

    def test_delete_extension_drops_checkpoint(self):
        doc = self._seed_resident_sole_frontier("delete")
        stats_before = doc.merge_stats.snapshot()
        doc.delete(0, 1)  # extends the resident delete run in place
        stats = doc.merge_stats
        assert stats.checkpoints_dropped == stats_before["checkpoints_dropped"] + 1
        assert not doc.engine.has_resident_state
        assert len(doc.oplog.graph) == 3
        late = _remote(EventId("remote", 2), (EventId("remote", 1),), insert_op(0, "E"))
        doc.apply_remote_events([late])
        assert stats.fresh_replays == stats_before["fresh_replays"] + 1
        assert stats.resumed_merges == stats_before["resumed_merges"]
        assert_converged(doc)


    def _seed_resident_with_local_gap(self) -> tuple[Document, Document]:
        """bob holds walker state for alice's run concurrent with his "Z",
        then types "xy" on top: a local run above the resident window."""
        alice = Document("alice")
        bob = Document("bob")
        alice.insert(0, "abc")
        bob.insert(0, "Z")
        bob.merge(alice)
        assert bob.engine.has_resident_state
        bob.insert(4, "xy")
        return alice, bob

    def test_split_above_window_keeps_checkpoint(self):
        alice, bob = self._seed_resident_with_local_gap()
        stats_before = bob.merge_stats.snapshot()
        bob.oplog.graph.split_event(len(bob.oplog.graph) - 1, 1)
        stats = bob.merge_stats
        assert stats.checkpoints_dropped == stats_before["checkpoints_dropped"]
        assert bob.engine.has_resident_state
        # alice's next edit is concurrent with bob's: the merge resumes the
        # state, folding in both halves of the split run as gap events.
        alice.insert(3, "d")
        bob.merge(alice)
        assert stats.resumed_merges == stats_before["resumed_merges"] + 1
        assert stats.replayed_window_events == stats_before["replayed_window_events"] + 2
        assert_converged(bob)

    def test_extension_above_window_keeps_checkpoint(self):
        alice, bob = self._seed_resident_with_local_gap()
        stats_before = bob.merge_stats.snapshot()
        bob.insert(6, "z")  # extends bob's own run in place
        stats = bob.merge_stats
        assert len(bob.oplog.graph) == 3
        assert stats.checkpoints_dropped == stats_before["checkpoints_dropped"]
        assert bob.engine.has_resident_state
        alice.insert(3, "d")
        bob.merge(alice)
        assert stats.resumed_merges == stats_before["resumed_merges"] + 1
        assert stats.replayed_window_events == stats_before["replayed_window_events"] + 1
        assert_converged(bob)
        assert bob.text == "abcdZxyz"


class TestStorageRoundTrip:
    def test_split_history_round_trips_through_codec(self):
        graph = sequential_graph(["ab", "cd", "ef"])
        graph.add_event(EventId("z", 0), (), insert_op(0, "Q"))
        graph.split_event(1, 1)
        original = [(e.id, e.parents, e.op) for e in graph.events()]
        decoded = decode_file(encode_event_graph_v3(graph)).graph
        assert [(e.id, e.parents, e.op) for e in decoded.events()] == original
        # The decoded graph is a live columnar graph: handles resolve, the
        # order labels are consistent, and it accepts further growth.
        for index in range(len(decoded)):
            assert decoded.index_of_handle(decoded.handle_at(index)) == index
        decoded.add_event(
            EventId("z", 1), [decoded.dependency_id(len(decoded) - 1)], insert_op(0, "R")
        )
        assert decoded.contains_id(EventId("z", 1))
