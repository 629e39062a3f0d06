"""Tests for the synthetic editing traces and their statistics (§4.1, Table 1)."""

import pytest

from repro.core.causal_graph import CausalGraph
from repro.core.walker import EgWalker
from repro.traces import (
    PAPER_TABLE1,
    TRACE_NAMES,
    compute_stats,
    generate_async,
    generate_concurrent,
    generate_sequential,
    get_trace,
)


class TestGenerators:
    def test_sequential_trace_is_linear(self, small_sequential_trace):
        stats = compute_stats(small_sequential_trace)
        assert stats.average_concurrency == 0.0
        assert stats.graph_runs == 1
        assert stats.authors == 2

    def test_sequential_trace_is_deterministic(self):
        a = generate_sequential("det", target_events=150, authors=1, seed=9)
        b = generate_sequential("det", target_events=150, authors=1, seed=9)
        assert a.final_text == b.final_text
        assert len(a.graph) == len(b.graph)

    def test_different_seeds_give_different_traces(self):
        a = generate_sequential("det", target_events=150, authors=1, seed=1)
        b = generate_sequential("det", target_events=150, authors=1, seed=2)
        assert a.final_text != b.final_text

    def test_concurrent_trace_has_branches(self, small_concurrent_trace):
        stats = compute_stats(small_concurrent_trace)
        assert stats.average_concurrency > 0.1
        assert stats.graph_runs > 5
        assert stats.authors == 2

    def test_async_trace_has_multiple_authors_and_branches(self, small_async_trace):
        stats = compute_stats(small_async_trace)
        assert stats.authors >= 4
        assert stats.average_concurrency > 0.5

    def test_async_trace_with_unmerged_heads(self):
        trace = generate_async(
            "heads",
            target_events=200,
            seed=5,
            concurrent_branches=3,
            events_per_branch=40,
            authors=3,
            keep_unmerged=True,
        )
        assert len(trace.graph.frontier) >= 2

    @pytest.mark.parametrize(
        "trace_fixture",
        ["small_sequential_trace", "small_concurrent_trace", "small_async_trace"],
    )
    def test_generated_graphs_are_valid(self, trace_fixture, request):
        """Every event's position is valid in its parents' document (Def. C.1)."""
        trace = request.getfixturevalue(trace_fixture)
        graph = trace.graph
        walker = EgWalker(graph)
        causal = CausalGraph(graph)
        # Spot-check a sample of events (checking all is quadratic).
        step = max(1, len(graph) // 40)
        for idx in range(0, len(graph), step):
            event = graph[idx]
            parent_text = walker.replay_text(causal.ancestors(event.parents))
            if event.op.is_insert:
                assert 0 <= event.op.pos <= len(parent_text)
            else:
                assert 0 <= event.op.pos < len(parent_text)

    def test_trace_final_text_is_cached(self, small_sequential_trace):
        first = small_sequential_trace.final_text
        assert small_sequential_trace.final_text is first

    def test_summary_line(self, small_sequential_trace):
        line = small_sequential_trace.summary_line()
        assert "sequential" in line and "events=" in line


class TestStats:
    def test_chars_remaining_accounts_for_deletes(self, small_sequential_trace):
        stats = compute_stats(small_sequential_trace)
        assert 0 < stats.chars_remaining_percent <= 100
        assert stats.inserts + stats.deletes == stats.events
        assert stats.final_size_bytes == len(small_sequential_trace.final_text.encode())

    def test_as_row_keys_match_paper_table(self, small_sequential_trace):
        row = compute_stats(small_sequential_trace).as_row()
        paper_keys = set(PAPER_TABLE1["S1"].keys())
        assert paper_keys <= set(row.keys()) | {"name"}


class TestDatasetRegistry:
    def test_all_names_present(self):
        assert TRACE_NAMES == ("S1", "S2", "S3", "C1", "C2", "A1", "A2")
        assert set(PAPER_TABLE1) == set(TRACE_NAMES)

    def test_unknown_trace_rejected(self):
        with pytest.raises(KeyError):
            get_trace("S9")

    def test_get_trace_caches(self):
        a = get_trace("S1", scale=0.02)
        b = get_trace("S1", scale=0.02)
        assert a is b

    @pytest.mark.parametrize("name", ["S1", "C1", "A2"])
    def test_tiny_scale_traces_have_expected_shape(self, name):
        trace = get_trace(name, scale=0.02)
        stats = compute_stats(trace)
        if name.startswith("S"):
            assert stats.average_concurrency == 0.0
        else:
            assert stats.average_concurrency > 0.0
        assert stats.events >= 150
