"""Unit tests for the branch-aware topological sort (§3.2)."""

import pytest

from repro.core.event_graph import EventGraph
from repro.core.ids import EventId, insert_op
from repro.bench.harness import sort_interleaved
from repro.core.topo_sort import (
    estimate_descendants,
    is_topological_order,
    sort_branch_aware,
)


def two_branch_graph(k: int, m: int) -> EventGraph:
    """A root, then two branches of k and m events, then a merge event."""
    graph = EventGraph()
    graph.add_event(EventId("root", 0), (), insert_op(0, "r"), parents_are_indices=True)
    prev_a = 0
    for i in range(k):
        graph.add_event(
            EventId("a", i), (prev_a,), insert_op(i + 1, "a"), parents_are_indices=True
        )
        prev_a = len(graph) - 1
    prev_b = 0
    for i in range(m):
        graph.add_event(
            EventId("b", i), (prev_b,), insert_op(i + 1, "b"), parents_are_indices=True
        )
        prev_b = len(graph) - 1
    graph.add_event(
        EventId("root", 1), (prev_a, prev_b), insert_op(0, "m"), parents_are_indices=True
    )
    return graph


#: The engine's order and the sort-order ablation's interleaved one.
ALL_SORTERS = [sort_branch_aware, sort_interleaved]


class TestValidity:
    @pytest.mark.parametrize("sorter", ALL_SORTERS)
    def test_orders_are_topological(self, sorter, small_async_trace):
        graph = small_async_trace.graph
        order = sorter(graph, range(len(graph)))
        assert len(order) == len(graph)
        assert sorted(order) == list(range(len(graph)))
        assert is_topological_order(graph, order)

    @pytest.mark.parametrize("sorter", ALL_SORTERS)
    def test_empty_input(self, sorter):
        assert sorter(EventGraph(), []) == []

    @pytest.mark.parametrize("sorter", ALL_SORTERS)
    def test_subset_sorting(self, sorter):
        graph = two_branch_graph(3, 3)
        subset = [0, 1, 2, 4, 5]
        order = sorter(graph, subset)
        assert sorted(order) == sorted(subset)
        assert is_topological_order(graph, order)


class TestBranchAwareness:
    def test_branches_stay_contiguous(self):
        graph = two_branch_graph(4, 6)
        order = sort_branch_aware(graph, range(len(graph)))
        agents = [graph.id_of(idx).agent for idx in order]
        # After the root, all "a" events should be consecutive and all "b"
        # events should be consecutive (no alternation).
        interior = agents[1:-1]
        switches = sum(1 for x, y in zip(interior, interior[1:]) if x != y)
        assert switches == 1

    def test_smaller_branch_emitted_first(self):
        graph = two_branch_graph(2, 8)
        order = sort_branch_aware(graph, range(len(graph)))
        agents = [graph.id_of(idx).agent for idx in order]
        first_branch_agent = agents[1]
        assert first_branch_agent == "a"  # the 2-event branch

    def test_interleaved_order_alternates(self):
        graph = two_branch_graph(5, 5)
        order = sort_interleaved(graph, range(len(graph)))
        agents = [graph.id_of(idx).agent for idx in order][1:-1]
        switches = sum(1 for x, y in zip(agents, agents[1:]) if x != y)
        assert switches > 5  # far more branch switches than the branch-aware order


class TestDescendantEstimates:
    def test_linear_chain_estimates(self):
        graph = EventGraph()
        for i in range(5):
            graph.add_local_event("a", insert_op(i, "x"))
        estimates = estimate_descendants(graph, range(5))
        assert estimates[4] == 1
        assert estimates[0] == 5

    def test_estimates_reflect_branch_sizes(self):
        graph = two_branch_graph(2, 6)
        estimates = estimate_descendants(graph, range(len(graph)))
        first_a = 1
        first_b = 3
        assert estimates[first_b] > estimates[first_a]
