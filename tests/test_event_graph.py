"""Unit tests for the event graph: construction, frontier, merging."""

import pytest

from repro.core.event_graph import EventGraph, ROOT_VERSION
from repro.core.ids import EventId, delete_op, insert_op


def linear_graph(chars: str, agent: str = "a") -> EventGraph:
    graph = EventGraph()
    for i, char in enumerate(chars):
        graph.add_local_event(agent, insert_op(i, char))
    return graph


class TestConstruction:
    def test_empty_graph(self):
        graph = EventGraph()
        assert len(graph) == 0
        assert graph.frontier == ROOT_VERSION

    def test_add_local_event_sets_parents_to_frontier(self):
        graph = linear_graph("abc")
        assert graph.parents_of(0) == ()
        assert graph.parents_of(1) == (0,)
        assert graph.parents_of(2) == (1,)
        assert graph.frontier == (2,)

    def test_local_events_get_sequential_ids(self):
        graph = linear_graph("abc", agent="alice")
        assert [graph.id_of(i) for i in range(3)] == [
            EventId("alice", 0),
            EventId("alice", 1),
            EventId("alice", 2),
        ]

    def test_multi_char_ops_stored_as_single_run_event(self):
        graph = EventGraph()
        event = graph.add_event(
            EventId("a", 0), (), insert_op(0, "ab"), parents_are_indices=True
        )
        assert len(graph) == 1
        assert event.num_chars == 2
        assert graph.num_chars == 2
        # Every character of the run is addressable as (event_index, offset).
        assert graph.locate(EventId("a", 0)) == (0, 0)
        assert graph.locate(EventId("a", 1)) == (0, 1)
        assert graph.next_seq_for("a") == 2

    def test_overlapping_run_ids_rejected(self):
        graph = EventGraph()
        graph.add_event(EventId("a", 0), (), insert_op(0, "abc"), parents_are_indices=True)
        with pytest.raises(ValueError):
            # New run starts inside an existing run.
            graph.add_event(EventId("a", 2), (0,), insert_op(0, "x"), parents_are_indices=True)
        graph.add_event(EventId("a", 5), (0,), insert_op(0, "x"), parents_are_indices=True)
        with pytest.raises(ValueError):
            # New run envelops an existing run's start.
            graph.add_event(EventId("a", 4), (1,), insert_op(0, "xy"), parents_are_indices=True)

    def test_duplicate_id_rejected(self):
        graph = linear_graph("a")
        with pytest.raises(ValueError):
            graph.add_event(EventId("a", 0), (), insert_op(0, "x"), parents_are_indices=True)

    def test_parent_index_out_of_range_rejected(self):
        graph = EventGraph()
        with pytest.raises(ValueError):
            graph.add_event(EventId("a", 0), (3,), insert_op(0, "x"), parents_are_indices=True)

    def test_a_run_length_past_64_bits_leaves_the_graph_as_it_was(self):
        graph = EventGraph()
        graph.add_event(EventId("alice", 0), (), insert_op(0, "abc"))
        with pytest.raises(OverflowError):
            graph.add_event(EventId("bob", 0), [EventId("alice", 2)], delete_op(0, 1 << 64))
        assert len(graph) == 1 and not graph.contains_id(EventId("bob", 0))
        graph.add_event(EventId("alice", 3), [EventId("alice", 2)], insert_op(3, "d"))
        assert [graph.op_of(i).content for i in range(len(graph))] == ["abc", "d"]
        assert graph.parents_of(1) == (0,) and graph.frontier == (1,)
        assert graph.locate(EventId("alice", 3)) == (1, 0)

    def test_children_tracking(self):
        graph = linear_graph("ab")
        graph.add_event(EventId("b", 0), (0,), insert_op(1, "X"), parents_are_indices=True)
        assert list(graph.children_of(0)) == [1, 2]
        assert list(graph.children_of(1)) == []


class TestFrontier:
    def test_concurrent_events_both_in_frontier(self):
        graph = linear_graph("ab")
        graph.add_event(EventId("b", 0), [EventId("a", 1)], insert_op(2, "X"))
        graph.add_event(EventId("c", 0), [EventId("a", 1)], insert_op(2, "Y"))
        assert graph.frontier == (2, 3)

    def test_merge_event_collapses_frontier(self):
        graph = linear_graph("ab")
        graph.add_event(EventId("b", 0), [EventId("a", 1)], insert_op(2, "X"))
        graph.add_event(EventId("c", 0), [EventId("a", 1)], insert_op(2, "Y"))
        graph.add_event(EventId("a", 2), (2, 3), insert_op(0, "Z"), parents_are_indices=True)
        assert graph.frontier == (4,)

    def test_version_id_round_trip(self):
        graph = linear_graph("abc", agent="alice")
        ids = graph.ids_from_version(graph.frontier)
        assert tuple(sorted({graph.index_of(i) for i in ids})) == graph.frontier


class TestRemoteEventsAndMerge:
    def test_add_remote_event_is_idempotent(self):
        graph = linear_graph("ab")
        result = graph.ingest_runs([(EventId("a", 0), (), insert_op(0, "a"))])
        assert result == []
        assert len(graph) == 2

    def test_ingest_runs_is_the_one_remote_entry_point(self):
        for name in ("add_remote_event", "ingest_run"):
            assert not hasattr(EventGraph, name), name
        graph = linear_graph("ab")
        # New events come back as local indices, not Event views.
        assert graph.ingest_runs([(EventId("b", 0), (EventId("a", 1),), insert_op(2, "c"))]) == [2]
        assert graph.parents_of(2) == (1,)

    def test_add_remote_event_conflicting_content_rejected(self):
        graph = EventGraph()
        graph.add_local_event("a", insert_op(0, "abc"))
        # Exact redelivery of the whole run is idempotent ...
        assert graph.ingest_runs([(EventId("a", 0), (), insert_op(0, "abc"))]) == []
        # ... and so is redelivery of a re-carved sub-run ...
        assert graph.ingest_runs([(EventId("a", 1), (), insert_op(1, "bc"))]) == []
        # ... but the same ids carrying different content is the one truly
        # illegal divergence.
        with pytest.raises(ValueError, match="different content"):
            graph.ingest_runs([(EventId("a", 1), (), insert_op(1, "zz"))])

    def test_merge_from_conflicting_content_rejected(self):
        ours = EventGraph()
        ours.add_event(EventId("a", 0), (), insert_op(0, "ab"), parents_are_indices=True)
        theirs = EventGraph()
        theirs.add_event(EventId("a", 0), (), insert_op(0, "xy"), parents_are_indices=True)
        with pytest.raises(ValueError, match="different content"):
            ours.merge_from(theirs)

    def test_merge_from_conflicting_kind_rejected(self):
        ours = EventGraph()
        ours.add_event(EventId("a", 0), (), insert_op(0, "ab"), parents_are_indices=True)
        theirs = EventGraph()
        theirs.add_event(EventId("a", 0), (), delete_op(0, 2), parents_are_indices=True)
        with pytest.raises(ValueError, match="different content"):
            ours.merge_from(theirs)

    def test_add_remote_event_with_missing_parent_raises(self):
        graph = EventGraph()
        with pytest.raises(KeyError):
            graph.ingest_runs([(EventId("b", 0), [EventId("missing", 0)], insert_op(0, "x"))])

    def test_merge_from_unions_graphs(self):
        base = linear_graph("ab", agent="alice")
        other = EventGraph()
        other.merge_from(base)
        other.add_local_event("bob", insert_op(2, "!"))
        added = base.merge_from(other)
        assert added == [2]
        assert base.contains_id(EventId("bob", 0))
        # Merging again adds nothing.
        assert base.merge_from(other) == []

    def test_merge_from_preserves_parent_relationships(self):
        base = linear_graph("ab", agent="alice")
        other = EventGraph()
        other.merge_from(base)
        other.add_local_event("bob", insert_op(0, "X"))
        base.add_local_event("alice", insert_op(2, "Y"))
        base.merge_from(other)
        bob_index = base.index_of(EventId("bob", 0))
        assert base.parents_of(bob_index) == (1,)
        assert set(base.frontier) == {2, 3}


class TestRunCarvingInterop:
    """Run boundaries are a local encoding detail (split-on-ingest)."""

    def test_remote_run_extending_stored_prefix_adds_suffix_only(self):
        graph = EventGraph()
        graph.add_event(EventId("a", 0), (), insert_op(0, "ab"), parents_are_indices=True)
        new = graph.ingest_runs([(EventId("a", 0), (), insert_op(0, "abcde"))])
        added = [graph[i] for i in new]
        # Only the unseen suffix becomes a new event, chained onto the prefix.
        assert [(e.id, e.op.content) for e in added] == [(EventId("a", 2), "cde")]
        assert graph.parents_of(added[0].index) == (0,)
        assert graph.num_chars == 5
        assert graph.frontier == (1,)

    def test_finer_carving_is_absorbed_as_duplicates(self):
        coarse = EventGraph()
        coarse.add_event(EventId("a", 0), (), insert_op(0, "abcd"), parents_are_indices=True)
        fine = EventGraph()
        fine.add_event(EventId("a", 0), (), insert_op(0, "ab"), parents_are_indices=True)
        fine.add_event(EventId("a", 2), (0,), insert_op(2, "cd"), parents_are_indices=True)
        assert coarse.merge_from(fine) == []
        assert len(coarse) == 1  # nothing split: the coverage already agreed
        assert fine.merge_from(coarse) == []
        assert len(fine) == 2

    def test_mid_run_parent_reference_splits_stored_run(self):
        graph = EventGraph()
        graph.add_event(EventId("x", 0), (), insert_op(0, "abcd"), parents_are_indices=True)
        # A peer that only ever saw "ab" replies concurrently with the "cd" half.
        added = graph.ingest_runs([(EventId("y", 0), (EventId("x", 1),), insert_op(2, "Y"))])
        assert len(added) == 1
        # The stored run was split at the dependency boundary ...
        assert [e.id for e in graph.events()] == [
            EventId("x", 0),
            EventId("x", 2),
            EventId("y", 0),
        ]
        assert [e.op.content for e in graph.events()] == ["ab", "cd", "Y"]
        # ... so y is causally after "ab" but concurrent with "cd".
        y_index = graph.index_of(EventId("y", 0))
        assert graph.parents_of(y_index) == (0,)
        assert graph.parents_of(1) == (0,)
        assert set(graph.frontier) == {1, 2}

    def test_split_event_rewrites_children_and_indices(self):
        graph = EventGraph()
        graph.add_event(EventId("x", 0), (), insert_op(0, "abcd"), parents_are_indices=True)
        graph.add_event(EventId("z", 0), (0,), insert_op(4, "!"), parents_are_indices=True)
        right = graph.split_event(0, 2)
        # z depended on the whole run, so it now hangs off the right half.
        assert right.index == 1 and right.id == EventId("x", 2)
        assert graph.parents_of(1) == (0,)
        z_index = graph.index_of(EventId("z", 0))
        assert z_index == 2
        assert graph.parents_of(z_index) == (1,)
        assert list(graph.children_of(0)) == [1]
        assert sorted(graph.children_of(1)) == [2]
        assert graph.frontier == (2,)
        assert graph.num_chars == 5
        # The id map refined in place.
        assert graph.locate(EventId("x", 1)) == (0, 1)
        assert graph.locate(EventId("x", 3)) == (1, 1)

    def test_split_delete_run(self):
        graph = EventGraph()
        graph.add_event(EventId("x", 0), (), insert_op(0, "abcd"), parents_are_indices=True)
        graph.add_event(EventId("x", 4), (0,), delete_op(1, 3), parents_are_indices=True)
        right = graph.split_event(1, 2)
        # Both delete halves keep the original position: the characters shift
        # onto it as their predecessors disappear.
        assert graph[1].op == delete_op(1, 2)
        assert right.op == delete_op(1, 1)
        assert graph.parents_of(2) == (1,)

    def test_differently_carved_graphs_union_cleanly(self):
        """The headline interop property: two graphs carrying the same edits
        carved differently (plus divergent branches) merge to the same set of
        characters and dependencies."""
        ours = EventGraph()
        ours.add_event(EventId("x", 0), (), insert_op(0, "hello "), parents_are_indices=True)
        ours.add_event(EventId("x", 6), (0,), insert_op(6, "world"), parents_are_indices=True)
        theirs = EventGraph()
        theirs.add_event(
            EventId("x", 0), (), insert_op(0, "hello world"), parents_are_indices=True
        )
        theirs.add_event(EventId("y", 0), (0,), insert_op(11, "!"), parents_are_indices=True)
        added = ours.merge_from(theirs)
        assert [ours[i].id for i in added] == [EventId("y", 0)]
        assert ours.num_chars == 12
        # And in the other direction the coarse run is split by the version
        # boundary the finer graph carries.
        theirs.merge_from(ours)
        assert theirs.num_chars == 12
        assert {e.id for e in theirs.events()} >= {EventId("x", 0), EventId("y", 0)}

    def test_dependency_ids_name_last_characters(self):
        graph = EventGraph()
        graph.add_event(EventId("a", 0), (), insert_op(0, "abc"), parents_are_indices=True)
        assert graph.dependency_id(0) == EventId("a", 2)
        assert graph.ids_from_version((0,)) == (EventId("a", 2),)
        assert graph.index_of(EventId("a", 2)) == 0

    def test_dependency_index_splits_only_on_mid_run_reference(self):
        graph = EventGraph()
        graph.add_event(EventId("a", 0), (), insert_op(0, "abc"), parents_are_indices=True)
        assert graph.dependency_index(EventId("a", 2)) == 0
        assert len(graph) == 1  # final character: no split needed
        assert graph.dependency_index(EventId("a", 0)) == 0
        assert len(graph) == 2  # mid-run: split after the referenced char
        assert graph[0].op.content == "a"
        assert graph[1].op.content == "bc"


class TestSummary:
    def test_summary_counts(self):
        graph = linear_graph("abc")
        graph.add_local_event("a", delete_op(0))
        summary = graph.summary()
        assert summary == {"events": 4, "chars": 4, "inserts": 3, "deletes": 1, "agents": 1}

    def test_summary_counts_chars_of_runs(self):
        graph = EventGraph()
        graph.add_local_event("a", insert_op(0, "hello"))
        graph.add_local_event("a", delete_op(1, 2))
        summary = graph.summary()
        assert summary == {"events": 2, "chars": 7, "inserts": 5, "deletes": 2, "agents": 1}

    def test_next_seq_for_unknown_agent(self):
        graph = EventGraph()
        assert graph.next_seq_for("nobody") == 0


class TestBulkConstruction:
    """``EventGraph.from_columns`` — the storage decoder's constructor."""

    @staticmethod
    def _columns(graph: EventGraph):
        events = graph.events()
        return (
            [e.id for e in events],
            [e.parents for e in events],
            [e.op for e in events],
        )

    @staticmethod
    def _state(graph: EventGraph) -> dict:
        """Every private column and side map, in comparable form (range maps
        by their entries)."""
        state = dict(vars(graph))
        state["_agent_index"] = {
            agent: (index._starts, index._values)
            for agent, index in state["_agent_index"].items()
        }
        return state

    @pytest.mark.parametrize("shape", ["sequential", "concurrent"])
    def test_equals_the_add_event_loop_column_by_column(self, shape):
        from repro.traces.generator import generate_concurrent, generate_sequential

        if shape == "sequential":
            source = generate_sequential("bulk-seq", target_events=120, authors=3, seed=3).graph
        else:
            source = generate_concurrent("bulk-conc", target_events=120, seed=4).graph
        ids, parents, ops = self._columns(source)
        looped = EventGraph()
        for event_id, refs, op in zip(ids, parents, ops):
            looped.add_event(event_id, refs, op, parents_are_indices=True)
        bulk = EventGraph.from_columns(ids, parents, ops)
        state = self._state(bulk)
        assert state == self._state(looped)
        assert {"_h_parent", "_h_child", "_more_parents", "_more_children"} <= set(state)
        if shape == "concurrent":
            # Merges have several parents and forks several children, so the
            # side maps are compared with content in them.
            assert state["_more_parents"] and state["_more_children"]
        # ...and it is a live graph: it appends, splits and extends like one.
        for graph in (bulk, looped):
            graph.add_local_event("late", insert_op(0, "xyz"))
            graph.split_event(len(graph) - 1, 1)
            graph.dependency_index(graph.id_of(0))
            if shape != "concurrent":
                continue
            # A split run hands its children (and their side-map entries) to
            # the right half.
            fork = next(
                i for i in range(len(graph))
                if graph.op_of(i).length > 1 and len(graph.children_of(i)) > 1
            )
            children = [graph.id_of(c) for c in graph.children_of(fork)]
            graph.split_event(fork, 1)
            assert graph.children_of(fork) == [fork + 1]
            assert [graph.id_of(c) for c in graph.children_of(fork + 1)] == children
        assert self._state(bulk) == self._state(looped)

    @pytest.mark.parametrize("shape", ["sequential", "concurrent"])
    def test_to_columns_is_the_exact_inverse(self, shape):
        """``from_columns(*g.to_columns()) ≡ g`` column for column on a fresh
        graph, and the same events once extensions and splits have made
        handles differ from indices."""
        from repro.traces.generator import generate_concurrent, generate_sequential

        if shape == "sequential":
            graph = generate_sequential("cols-seq", target_events=120, authors=3, seed=5).graph
        else:
            graph = generate_concurrent("cols-conc", target_events=120, seed=6).graph
        assert graph.to_columns() == self._columns(graph)
        assert self._state(EventGraph.from_columns(*graph.to_columns())) == self._state(
            EventGraph.from_columns(*self._columns(graph))
        )

        graph.add_local_event("late", insert_op(0, "xyz"))
        graph.extend_event(len(graph) - 1, insert_op(3, "w"))
        graph.split_event(len(graph) - 1, 2)
        early_run = next(e.index for e in graph.events() if e.op.length > 1)
        graph.split_event(early_run, 1)  # the right half's handle is the newest
        assert [graph.handle_at(i) for i in range(len(graph))] != list(range(len(graph)))
        ids, parents, ops = graph.to_columns()
        assert (ids, parents, ops) == self._columns(graph)
        rebuilt = EventGraph.from_columns(ids, parents, ops)
        assert rebuilt.to_columns() == (ids, parents, ops)
        assert rebuilt.frontier == graph.frontier
        assert rebuilt.num_chars == graph.num_chars
        assert rebuilt.inserted_chars == graph.inserted_chars
        for agent in ("late", ids[0].agent):
            assert rebuilt.next_seq_for(agent) == graph.next_seq_for(agent)

    def test_empty_columns_give_an_empty_graph(self):
        assert EventGraph().to_columns() == ([], [], [])
        assert self._state(EventGraph.from_columns([], [], [])) == self._state(EventGraph())

    @pytest.mark.parametrize(
        "ids, parents",
        [
            # an id span that overlaps an earlier one of the same agent
            ([EventId("a", 0), EventId("a", 1)], [(), (0,)]),
            # a parent that is the event itself / a later event
            ([EventId("a", 0), EventId("a", 2)], [(), (1,)]),
            ([EventId("a", 0), EventId("a", 2)], [(1,), (0,)]),
            # a negative parent index
            ([EventId("a", 0), EventId("a", 2)], [(), (-1,)]),
            # unsorted and duplicated parents
            ([EventId("a", 0), EventId("b", 0), EventId("a", 2)], [(), (), (1, 0)]),
            ([EventId("a", 0), EventId("b", 0), EventId("a", 2)], [(), (), (0, 0)]),
            # columns of different lengths
            ([EventId("a", 0)], [(), (0,)]),
        ],
    )
    def test_keeps_the_checks_of_add_event(self, ids, parents):
        ops = [insert_op(0, "ab") for _ in parents]
        with pytest.raises(ValueError):
            EventGraph.from_columns(ids, parents, ops)

    @pytest.mark.parametrize(
        "refs",
        [(0, 0), (1, 1, 2), (-1,), (-1, 0), (3,), (0, 3), (0, 4), (2, 2)],
    )
    def test_one_parents_validator_for_both_paths(self, refs):
        """``add_event(..., parents_are_indices=True)`` and the bulk path
        refuse the same parent tuples: a duplicate, a negative index, the
        event's own index or a later one."""
        ids = [EventId("a", 0), EventId("b", 0), EventId("c", 0), EventId("d", 0)]
        parents = [(), (0,), (0,), refs]
        ops = [insert_op(0, "x") for _ in ids]
        with pytest.raises(ValueError, match="sorted, distinct"):
            EventGraph.from_columns(ids, parents, ops)
        looped = EventGraph.from_columns(ids[:3], parents[:3], ops[:3])
        with pytest.raises(ValueError, match="sorted, distinct"):
            looped.add_event(ids[3], refs, ops[3], parents_are_indices=True)
        assert len(looped) == 3  # the refused event left nothing behind
        # ...and both accept the same well-formed tuple.
        looped.add_event(ids[3], (1, 2), ops[3], parents_are_indices=True)
        assert looped.to_columns() == EventGraph.from_columns(
            ids, parents[:3] + [(1, 2)], ops
        ).to_columns()


class TestFreshAppend:
    """``ingest_runs``' branch for a run that is wholly new and whose parents
    name whole stored runs: the same graph as the general (overlap-walking,
    splitting) path builds, and the same refusals."""

    @staticmethod
    def _halves(shape: str, seed: int):
        """A seeded history with every run of length ≥ 2 carved in two:
        ``(source graph, [(left half, right half or None, whole run)])``."""
        from repro.core.oplog import graph_to_remote_events, split_remote_event
        from repro.traces.generator import (
            generate_async,
            generate_concurrent,
            generate_sequential,
        )

        if shape == "sequential":
            source = generate_sequential("fresh", target_events=400, authors=2, seed=seed).graph
        elif shape == "concurrent":
            source = generate_concurrent("fresh", target_events=400, seed=seed).graph
        else:
            source = generate_async(
                "fresh", target_events=600, seed=seed, concurrent_branches=3, events_per_branch=60
            ).graph
        carved = []
        for whole in graph_to_remote_events(source):
            if whole.op.length > 1:
                carved.append((*split_remote_event(whole, whole.op.length // 2), whole))
            else:
                carved.append((whole, None, whole))
        return source, carved

    @pytest.mark.parametrize("shape", ["sequential", "concurrent", "async"])
    def test_same_graph_as_the_general_path(self, shape, monkeypatch):
        from repro.core.document import Document
        from repro.core.walker import EgWalker

        source, carved = self._halves(shape, seed=11)
        resolved = []
        resolve = EventGraph.dependency_index
        monkeypatch.setattr(
            EventGraph,
            "dependency_index",
            lambda graph, event_id: resolved.append(event_id) or resolve(graph, event_id),
        )
        # (a) each half arrives on its own: fresh, parents whole — an append.
        appended = Document("appended")
        appended.apply_remote_events(
            [half for left, right, _ in carved for half in (left, right) if half is not None]
        )
        assert resolved == [], "the general path ran"
        # (b) the left half, then the whole run over it: the general path
        # walks the overlap and adds the rest as the same right half.
        general = Document("general")
        general.apply_remote_events(
            [run for left, right, whole in carved for run in ((left, whole) if right else (whole,))]
        )
        assert len(resolved) >= sum(1 for _, right, _ in carved if right)

        a, b = appended.oplog.graph, general.oplog.graph
        assert a.to_columns() == b.to_columns()
        assert a.frontier == b.frontier
        agents = {event_id.agent for event_id in a.to_columns()[0]}
        assert {x: a.next_seq_for(x) for x in agents} == {x: b.next_seq_for(x) for x in agents}
        assert appended.engine.tracker.cuts() == general.engine.tracker.cuts()
        assert appended.text == general.text == EgWalker(source).replay_text()

    @staticmethod
    def _shape(graph: EventGraph):
        return [(str(e.id), e.parents, e.op.content) for e in graph.events()]

    @staticmethod
    def _abc() -> EventGraph:
        graph = EventGraph()
        graph.ingest_runs([(EventId("a", 0), (), insert_op(0, "abc"))])
        return graph

    def test_redelivery_is_a_no_op_and_a_conflict_is_refused(self):
        graph = self._abc()
        assert graph.ingest_runs([(EventId("a", 0), (), insert_op(0, "abc"))]) == []
        with pytest.raises(ValueError, match="different content"):
            graph.ingest_runs([(EventId("a", 0), (), insert_op(0, "abX"))])
        with pytest.raises(ValueError, match="duplicate"):
            graph.add_event(EventId("a", 1), (0,), insert_op(0, "x"), parents_are_indices=True)
        assert self._shape(graph) == [("a:0", (), "abc")]

    def test_unknown_parent_is_a_key_error_and_adds_nothing(self):
        graph = self._abc()
        with pytest.raises(KeyError, match="zz:4"):
            graph.ingest_runs(
                [(EventId("b", 0), (EventId("a", 2), EventId("zz", 4)), insert_op(0, "x"))]
            )
        assert self._shape(graph) == [("a:0", (), "abc")]
        assert graph.next_seq_for("b") == 0

    def test_mid_run_parent_splits_then_appends(self):
        graph = self._abc()
        (added,) = graph.ingest_runs([(EventId("b", 0), (EventId("a", 1),), insert_op(0, "x"))])
        assert added == 2
        assert self._shape(graph) == [("a:0", (), "ab"), ("a:2", (0,), "c"), ("b:0", (0,), "x")]
        assert graph.frontier == (1, 2)

    def test_two_parent_ids_inside_one_stored_run(self):
        graph = self._abc()
        graph.ingest_runs(
            [(EventId("b", 0), (EventId("a", 1), EventId("a", 2)), insert_op(0, "x"))]
        )
        assert self._shape(graph)[-1] == ("b:0", (0, 1), "x")
        # The same last character named twice is one parent, not two.
        graph = self._abc()
        graph.ingest_runs(
            [(EventId("b", 0), (EventId("a", 2), EventId("a", 2)), insert_op(0, "x"))]
        )
        assert self._shape(graph) == [("a:0", (), "abc"), ("b:0", (0,), "x")]

    def test_parents_are_stored_sorted_whatever_order_they_arrive_in(self):
        graph = self._abc()
        graph.ingest_runs([(EventId("b", 0), (), insert_op(0, "x"))])
        graph.ingest_runs(
            [(EventId("c", 0), (EventId("b", 0), EventId("a", 2)), insert_op(0, "y"))]
        )
        assert graph.parents_of(2) == (0, 1)
        assert graph.frontier == (2,)

    def test_a_seq_gap_is_appended_and_filled_later(self):
        graph = self._abc()
        graph.ingest_runs([(EventId("a", 5), (EventId("a", 2),), insert_op(5, "fg"))])
        assert graph.next_seq_for("a") == 7
        # Below the agent's next seq now: the general path fills the gap and
        # recognises the part it already holds.
        graph.ingest_runs([(EventId("a", 3), (EventId("a", 2),), insert_op(3, "defg"))])
        assert self._shape(graph) == [
            ("a:0", (), "abc"),
            ("a:5", (0,), "fg"),
            ("a:3", (0,), "de"),
        ]

    def test_a_listener_hears_every_append(self):
        class Listener:
            def __init__(self):
                self.heard = []

            def event_added(self, event):
                self.heard.append((str(event.id), event.index, event.parents))

        graph = EventGraph()
        listener = Listener()
        graph.add_listener(listener)
        graph.ingest_runs([(EventId("a", 0), (), insert_op(0, "abc"))])
        graph.ingest_runs([(EventId("b", 0), (EventId("a", 2),), insert_op(0, "x"))])
        assert listener.heard == [("a:0", 0, ()), ("b:0", 1, (0,))]
