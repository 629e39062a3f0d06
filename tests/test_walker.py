"""Tests for the Eg-walker replay engine (§3): correctness and optimisations."""

import itertools

import pytest

from repro.core.causal_graph import CausalGraph
from repro.core.event_graph import EventGraph
from repro.core.ids import EventId, delete_op, insert_op
from repro.core.topo_sort import is_topological_order, sort_branch_aware
from repro.bench.harness import SORT_ORDERS
from repro.core.walker import EgWalker

#: (replay order, clearing) pairs: the walker takes both per call.
WALKER_CONFIGS = [
    ("branch_aware", True),
    ("branch_aware", False),
    ("local", True),
    ("interleaved", False),
]


def replay(graph: EventGraph, config: tuple[str, bool] = ("branch_aware", True)) -> str:
    """The whole graph through the walker, in one of the ablation orders."""
    order, clearing = config
    return EgWalker(graph).transform(SORT_ORDERS[order](graph), clearing=clearing).text()


class TestPaperExamples:
    @pytest.mark.parametrize("config", WALKER_CONFIGS)
    def test_figure_1_and_2(self, figure2_graph, config):
        assert replay(figure2_graph, config) == "Hello!"

    @pytest.mark.parametrize("config", WALKER_CONFIGS)
    def test_figure_4(self, figure4_graph, config):
        assert replay(figure4_graph, config) == "Hey!"

    def test_figure2_all_replay_orders_agree(self, figure2_graph):
        """Any topologically sorted order yields the same document (Lemma C.8)."""
        graph = figure2_graph
        base_order = list(range(len(graph)))
        expected = EgWalker(graph).replay_text()
        causal = CausalGraph(graph)
        valid_orders = [
            order
            for order in itertools.permutations(base_order)
            if is_topological_order(graph, order)
        ]
        assert len(valid_orders) > 1
        for order in valid_orders:
            assert EgWalker(graph).transform(order, clearing=False).text() == expected

    def test_figure4_transformed_ops_shape(self, figure4_graph):
        walker = EgWalker(figure4_graph)
        result = walker.transform(range(len(figure4_graph)), clearing=False)
        # 8 events in, 8 transformed entries out (some may be no-ops).
        assert len(result.transformed) == len(figure4_graph)
        assert result.final_length == 4


class TestConcurrentScenarios:
    def build_two_user_graph(self, edits_a, edits_b, base="base "):
        """A graph with a shared sequential base and two concurrent branches."""
        graph = EventGraph()
        for i, char in enumerate(base):
            graph.add_local_event("base", insert_op(i, char))
        fork = graph.frontier
        prev = fork
        for seq, (kind, pos, char) in enumerate(edits_a):
            op = insert_op(pos, char) if kind == "i" else delete_op(pos)
            event = graph.add_event(EventId("alice", seq), prev, op, parents_are_indices=True)
            prev = (event.index,)
        prev = fork
        for seq, (kind, pos, char) in enumerate(edits_b):
            op = insert_op(pos, char) if kind == "i" else delete_op(pos)
            event = graph.add_event(EventId("bob", seq), prev, op, parents_are_indices=True)
            prev = (event.index,)
        return graph

    @pytest.mark.parametrize("config", WALKER_CONFIGS)
    def test_concurrent_edits_at_different_positions(self, config):
        graph = self.build_two_user_graph(
            edits_a=[("i", 0, "A"), ("i", 1, "B")],
            edits_b=[("d", 4, None), ("i", 4, "Z")],
        )
        text = replay(graph, config)
        assert text.startswith("AB")
        assert "Z" in text
        assert len(text) == 5 + 2 + 1 - 1

    @pytest.mark.parametrize("config", WALKER_CONFIGS)
    def test_concurrent_deletes_of_same_char(self, config):
        graph = self.build_two_user_graph(
            edits_a=[("d", 0, None)],
            edits_b=[("d", 0, None)],
        )
        text = replay(graph, config)
        assert text == "ase "

    @pytest.mark.parametrize("config", WALKER_CONFIGS)
    def test_delete_concurrent_with_insert_before_it(self, config):
        graph = self.build_two_user_graph(
            edits_a=[("i", 0, "X")],
            edits_b=[("d", 4, None)],  # delete the space in "base "
        )
        text = replay(graph, config)
        assert text == "Xbase"


class TestTraceEquivalence:
    """All walker configurations agree on every generated trace."""

    @pytest.mark.parametrize(
        "trace_fixture",
        ["small_sequential_trace", "small_concurrent_trace", "small_async_trace"],
    )
    def test_all_configs_agree(self, trace_fixture, request):
        trace = request.getfixturevalue(trace_fixture)
        texts = {replay(trace.graph, config) for config in WALKER_CONFIGS}
        assert len(texts) == 1

    @pytest.mark.parametrize(
        "trace_fixture",
        ["small_concurrent_trace", "small_async_trace"],
    )
    def test_sort_strategies_agree(self, trace_fixture, request):
        trace = request.getfixturevalue(trace_fixture)
        expected = EgWalker(trace.graph).replay_text()
        for order in SORT_ORDERS:
            assert replay(trace.graph, (order, True)) == expected


class TestOptimisations:
    def test_sequential_trace_uses_fast_path(self, small_sequential_trace):
        walker = EgWalker(small_sequential_trace.graph)
        walker.replay_text()
        stats = walker.last_stats
        assert stats.events_fast_path == len(small_sequential_trace.graph)
        assert stats.retreats == 0 and stats.advances == 0

    def test_disabling_clearing_disables_fast_path(self, small_sequential_trace):
        graph = small_sequential_trace.graph
        result = EgWalker(graph).transform(range(len(graph)), clearing=False)
        assert result.stats.events_fast_path == 0

    def test_clearing_bounds_peak_records(self, small_async_trace):
        graph = small_async_trace.graph
        order = sort_branch_aware(graph, range(len(graph)))
        with_opt = EgWalker(graph).transform(order, clearing=True).stats
        without_opt = EgWalker(graph).transform(order, clearing=False).stats
        assert with_opt.peak_records <= without_opt.peak_records

    def test_stats_counts_every_event(self, small_concurrent_trace):
        walker = EgWalker(small_concurrent_trace.graph)
        walker.replay_text()
        assert walker.last_stats.events_processed == len(small_concurrent_trace.graph)


class TestPartialReplayAndHistory:
    def test_text_at_every_prefix_version_of_linear_history(self):
        graph = EventGraph()
        text = "abcdef"
        for i, char in enumerate(text):
            graph.add_local_event("a", insert_op(i, char))
        walker, causal = EgWalker(graph), CausalGraph(graph)
        for i in range(len(text)):
            assert walker.replay_text(causal.ancestors((i,))) == text[: i + 1]

    def test_text_at_version_on_branches(self, figure4_graph):
        walker, causal = EgWalker(figure4_graph), CausalGraph(figure4_graph)

        def text_at(version):
            return walker.replay_text(causal.ancestors(version))

        # Version (1,): just "hi" typed.
        assert text_at((1,)) == "hi"
        # Version (3,): the capitalisation branch only.
        assert text_at((3,)) == "Hi"
        # Version (6,): the "hey" branch only.
        assert text_at((6,)) == "hey"
        # The merge of both branches plus the exclamation mark.
        assert text_at((7,)) == "Hey!"

    def test_transform_with_emit_only_filters_output(self, figure2_graph):
        walker = EgWalker(figure2_graph)
        result = walker.transform(range(len(figure2_graph)), emit_only={4, 5}, clearing=True)
        assert {entry.event_index for entry in result.transformed} == {4, 5}

    def test_invalid_backend_rejected(self, figure2_graph):
        # The tree is the only sequence: there is no backend option at all.
        with pytest.raises(TypeError):
            EgWalker(figure2_graph, backend="hash-table")  # type: ignore[call-arg]

    def test_the_walker_takes_orders_not_knobs(self, figure2_graph):
        # Order and clearing are per-call arguments; the constructor takes
        # only the graph, and a transform must say whether it clears.
        with pytest.raises(TypeError):
            EgWalker(figure2_graph, enable_clearing=False)  # type: ignore[call-arg]
        with pytest.raises(TypeError):
            EgWalker(figure2_graph).transform(range(len(figure2_graph)))  # type: ignore[call-arg]
