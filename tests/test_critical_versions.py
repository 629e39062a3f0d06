"""Unit tests for critical-version detection (§3.5).

A critical version is a *version* (a prefix frontier of any width).  The
brute-force :func:`critical_by_definition` compares ancestor sets exactly as
the paper's definition reads; it pins both the linear pass
(:func:`critical_cut_positions`) and the incremental
:class:`CriticalCutTracker` on seeded random DAGs.
"""

import random

import pytest

from repro.core.causal_graph import CausalGraph
from repro.core.critical_versions import CriticalCutTracker, critical_cut_positions
from repro.core.event_graph import EventGraph
from repro.core.ids import EventId, insert_op
from repro.core.topo_sort import sort_branch_aware


def critical_by_definition(graph, order):
    """``{position: version}`` straight from the definition: the cut after
    position ``i`` is critical iff every later event has every event of
    ``order[:i+1]`` as an ancestor; its version is the prefix's frontier."""
    causal = CausalGraph(graph)
    member = set(order)
    ancestors = {idx: (causal.ancestors((idx,)) - {idx}) & member for idx in order}
    cuts = {}
    for i in range(len(order)):
        prefix = set(order[: i + 1])
        if all(prefix <= ancestors[late] for late in order[i + 1 :]):
            heads = prefix - {p for idx in prefix for p in graph.parents_of(idx)}
            cuts[i] = tuple(sorted(heads))
    return cuts


def tracked(tracker):
    return {position: tracker.version_at(position) for position in tracker.cuts()}


def linear_graph(n: int) -> EventGraph:
    graph = EventGraph()
    for i in range(n):
        graph.add_local_event("a", insert_op(i, "x"))
    return graph


def fork_merge_graph() -> EventGraph:
    """0 - 1 - (2 | 3) - 4 - 5 : one concurrent bubble in the middle."""
    graph = EventGraph()
    graph.add_event(EventId("a", 0), (), insert_op(0, "a"), parents_are_indices=True)
    graph.add_event(EventId("a", 1), (0,), insert_op(1, "b"), parents_are_indices=True)
    graph.add_event(EventId("a", 2), (1,), insert_op(2, "c"), parents_are_indices=True)
    graph.add_event(EventId("b", 0), (1,), insert_op(2, "d"), parents_are_indices=True)
    graph.add_event(EventId("a", 3), (2, 3), insert_op(4, "e"), parents_are_indices=True)
    graph.add_event(EventId("a", 4), (4,), insert_op(5, "f"), parents_are_indices=True)
    return graph


def two_author_graph(exchanges: int, per_author: int = 2) -> EventGraph:
    """The C2 shape: each exchange is one chain per author, concurrent with
    the other's, both starting from the previous exchange's two heads."""
    graph = EventGraph()
    seq = {"a": 0, "b": 0}
    heads: tuple[int, ...] = ()
    for _ in range(exchanges):
        tips = []
        for agent in ("a", "b"):
            parents = heads
            for _ in range(per_author):
                event = graph.add_event(
                    EventId(agent, seq[agent]), parents, insert_op(0, "x"),
                    parents_are_indices=True,
                )
                seq[agent] += 1
                parents = (event.index,)
            tips.append(parents[0])
        heads = tuple(tips)
    return graph


class TestLinearHistories:
    def test_every_cut_is_critical(self):
        graph = linear_graph(6)
        assert critical_cut_positions(graph, list(range(6))) == {i: (i,) for i in range(6)}

    def test_empty_order(self):
        assert critical_cut_positions(EventGraph(), []) == {}

    def test_single_event(self):
        graph = linear_graph(1)
        assert critical_cut_positions(graph, [0]) == {0: (0,)}

    def test_sequential_trace_is_all_critical(self, small_sequential_trace):
        graph = small_sequential_trace.graph
        order = list(range(len(graph)))
        assert list(critical_cut_positions(graph, order)) == order


class TestForkMerge:
    def test_the_bubbles_closing_frontier_is_a_two_head_critical_version(self):
        graph = fork_merge_graph()
        cuts = critical_cut_positions(graph, list(range(len(graph))))
        # 0 and 1 precede the fork; the cut after 2 is inside the bubble (3
        # does not descend from 2); the cut after 3 is the version {2, 3}
        # that the merge event names in full; 4 is the merge; 5 the tail.
        assert cuts == {0: (0,), 1: (1,), 3: (2, 3), 4: (4,), 5: (5,)}

    def test_the_tail_cut_is_the_graph_frontier(self):
        graph = fork_merge_graph()
        assert critical_cut_positions(graph, [0, 1, 2, 3]) == {0: (0,), 1: (1,), 3: (2, 3)}

    def test_every_exchange_of_a_two_author_session_ends_in_a_critical_version(self):
        graph = two_author_graph(exchanges=3, per_author=2)
        cuts = critical_cut_positions(graph, list(range(len(graph))))
        # a a b b | a a b b | a a b b: only the exchange boundaries survive.
        assert cuts == {3: (1, 3), 7: (5, 7), 11: (9, 11)}
        assert cuts == critical_by_definition(graph, list(range(len(graph))))

    def test_partial_naming_of_the_heads_is_not_enough(self):
        graph = two_author_graph(exchanges=1, per_author=1)  # heads {0, 1}
        graph.add_event(EventId("a", 1), (0,), insert_op(0, "y"), parents_are_indices=True)
        assert critical_cut_positions(graph, [0, 1, 2]) == {2: (1, 2)}


def random_dag(rng: random.Random, events: int, tracker_for: list | None = None) -> EventGraph:
    """A seeded random small DAG: sequential runs, forks from old events,
    partial and full merges, extra roots and multi-character runs (so they
    can be split).  ``tracker_for`` receives a tracker attached at birth."""
    graph = EventGraph()
    if tracker_for is not None:
        tracker_for.append(CriticalCutTracker(graph))
    next_seq = {"a": 0, "b": 0, "c": 0}
    for _ in range(events):
        roll = rng.random()
        n = len(graph)
        if n == 0 or roll < 0.05:
            parents: tuple[int, ...] = ()
        elif roll < 0.45:
            parents = graph.frontier
        elif roll < 0.6:
            frontier = graph.frontier
            parents = tuple(sorted(rng.sample(frontier, rng.randint(1, len(frontier)))))
        elif roll < 0.85:
            parents = (rng.randrange(n),)
        else:
            # Mutually concurrent parents picked anywhere in the graph.
            causal = CausalGraph(graph)
            parents = causal.frontier_of(rng.sample(range(n), min(n, rng.randint(1, 3))))
        agent = rng.choice(sorted(next_seq))
        length = rng.randint(1, 3)
        graph.add_event(
            EventId(agent, next_seq[agent]), parents, insert_op(0, "x" * length),
            parents_are_indices=True,
        )
        next_seq[agent] += length
    return graph


class TestDefinitionEquivalence:
    """The linear pass and the tracker must match the paper's definition."""

    @pytest.mark.parametrize("fixture_name", ["small_concurrent_trace", "small_async_trace"])
    def test_against_brute_force_on_traces(self, fixture_name, request):
        graph = request.getfixturevalue(fixture_name).graph
        # A prefix of a replay order keeps the brute force fast; the subset
        # is still a valid "events to replay" set.
        order = sort_branch_aware(graph, range(len(graph)))[:120]
        assert critical_cut_positions(graph, order) == critical_by_definition(graph, order)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_dags_linear_pass_and_tracker(self, seed):
        rng = random.Random(0xD4A6 + seed)
        trackers: list[CriticalCutTracker] = []
        graph = random_dag(rng, rng.randint(1, 28), trackers)
        order = list(range(len(graph)))
        expected = critical_by_definition(graph, order)
        assert critical_cut_positions(graph, order) == expected
        assert tracked(trackers[0]) == expected  # appended event by event
        assert tracked(CriticalCutTracker(graph, attach=False)) == expected  # late rebuild
        # ... and relative to a sub-order (what a partial replay asks).
        sub = sort_branch_aware(graph, order)[len(order) // 3 :]
        assert critical_cut_positions(graph, sub) == critical_by_definition(graph, sub)

    @pytest.mark.parametrize("seed", range(40))
    def test_tracker_under_splits_and_extensions(self, seed):
        rng = random.Random(0x5B11 + seed)
        trackers: list[CriticalCutTracker] = []
        graph = random_dag(rng, rng.randint(2, 20), trackers)
        tracker = trackers[0]
        for _ in range(8):
            splittable = [e.index for e in graph.events() if e.op.length >= 2]
            if splittable and rng.random() < 0.7:
                index = rng.choice(splittable)
                graph.split_event(index, rng.randint(1, graph[index].op.length - 1))
            elif len(graph.frontier) == 1:
                last = graph[len(graph) - 1]
                if graph.next_seq_for(last.id.agent) == last.end_seq:
                    graph.extend_event(len(graph) - 1, insert_op(last.op.pos + last.op.length, "yz"))
            else:
                agent = rng.choice("abc")
                graph.add_event(
                    EventId(agent, graph.next_seq_for(agent)), graph.frontier,
                    insert_op(0, "mm"), parents_are_indices=True,
                )
            assert tracked(tracker) == critical_by_definition(graph, list(range(len(graph))))


class TestTrackerSplits:
    """An interop split of a run that is (a head of) a multi-head cut."""

    def test_split_of_a_multi_head_cut_moves_it_to_the_right_half(self):
        graph = EventGraph()
        graph.add_event(EventId("a", 0), (), insert_op(0, "aa"), parents_are_indices=True)
        graph.add_event(EventId("b", 0), (), insert_op(0, "bb"), parents_are_indices=True)
        graph.add_event(EventId("a", 2), (0, 1), insert_op(0, "c"), parents_are_indices=True)
        tracker = CriticalCutTracker(graph)
        assert tracked(tracker) == {1: (0, 1), 2: (2,)}
        graph.split_event(1, 1)
        # The left half of b's run is not critical: its twin names only it.
        assert tracked(tracker) == {2: (0, 2), 3: (3,)}
        assert tracker.critical_run_end(2) == 3 and tracker.critical_run_end(1) == 0

    def test_split_of_an_earlier_head_repoints_the_stored_version(self):
        graph = EventGraph()
        graph.add_event(EventId("a", 0), (), insert_op(0, "aa"), parents_are_indices=True)
        graph.add_event(EventId("b", 0), (), insert_op(0, "bb"), parents_are_indices=True)
        tracker = CriticalCutTracker(graph)
        assert tracked(tracker) == {1: (0, 1)}
        graph.split_event(0, 1)  # a's run is a head of the cut after b's
        assert tracked(tracker) == {2: (1, 2)}
        graph.add_event(EventId("a", 2), (1, 2), insert_op(0, "c"), parents_are_indices=True)
        assert tracked(tracker) == {2: (1, 2), 3: (3,)}

    def test_single_head_cut_still_gains_a_twin(self):
        graph = linear_graph(1)
        graph.extend_event(0, insert_op(1, "yz"))
        tracker = CriticalCutTracker(graph)
        graph.split_event(0, 2)
        assert tracked(tracker) == {0: (0,), 1: (1,)}
