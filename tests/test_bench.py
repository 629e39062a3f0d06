"""Tests for the benchmark harness: adapters, memory measurement, experiment runners."""

import json

import pytest

from repro.bench import (
    ALL_ADAPTERS,
    EgWalkerAdapter,
    OTAdapter,
    RefCRDTAdapter,
    adapter_by_name,
    format_results,
    format_table,
    measure_memory,
    results_to_json,
    run_clearing_ablation,
    run_file_size_full,
    run_file_size_pruned,
    run_memory,
    run_merge_time,
    run_scaling,
    run_sort_order_ablation,
    run_table1,
)
from repro.traces import generate_concurrent, generate_sequential


@pytest.fixture(scope="module")
def tiny_traces():
    return {
        "S1": generate_sequential("S1", target_events=180, authors=2, seed=41),
        "C1": generate_concurrent("C1", target_events=180, seed=42),
    }


class TestAdapters:
    def test_all_adapters_have_unique_names(self):
        names = [adapter.name for adapter in ALL_ADAPTERS()]
        assert len(names) == len(set(names)) == 5

    def test_adapter_by_name(self):
        assert adapter_by_name("eg-walker").name == "eg-walker"
        with pytest.raises(KeyError):
            adapter_by_name("not-an-algorithm")

    @pytest.mark.parametrize("adapter_name", ["eg-walker", "ot", "ref-crdt", "automerge-like", "yjs-like"])
    def test_merge_save_load_round_trip(self, adapter_name, tiny_traces):
        adapter = adapter_by_name(adapter_name)
        trace = tiny_traces["C1"]
        outcome = adapter.merge(trace)
        assert outcome.text == trace.final_text
        saved = adapter.save(trace, outcome)
        assert isinstance(saved, bytes) and saved
        assert adapter.load(saved) == outcome.text

    def test_all_algorithms_agree_on_final_text(self, tiny_traces):
        trace = tiny_traces["C1"]
        texts = {adapter.name: adapter.merge(trace).text for adapter in ALL_ADAPTERS()}
        assert len(set(texts.values())) == 1

    def test_egwalker_snapshot_fast_load(self, tiny_traces):
        adapter = EgWalkerAdapter()
        trace = tiny_traces["S1"]
        outcome = adapter.merge(trace)
        snapshot = adapter.save_snapshot_only(outcome, trace)
        assert adapter.load_snapshot(snapshot) == outcome.text

    def test_egwalker_pruned_save_is_smaller(self, tiny_traces):
        adapter = EgWalkerAdapter()
        trace = tiny_traces["S1"]
        outcome = adapter.merge(trace)
        assert len(adapter.save_pruned(trace, outcome)) < len(adapter.save(trace, outcome))


class TestMemoryMeasurement:
    def test_measure_memory_reports_peak_and_retained(self):
        def build():
            temporary = [0] * 50_000
            kept = list(range(10_000))
            del temporary
            return kept

        result, measurement = measure_memory(build)
        assert len(result) == 10_000
        assert measurement.peak_bytes > measurement.retained_bytes > 0
        assert measurement.peak_mib > 0

    def test_crdt_retains_more_than_egwalker(self, tiny_traces):
        trace = tiny_traces["C1"]
        _, eg = measure_memory(lambda: EgWalkerAdapter().merge(trace))
        _, crdt = measure_memory(lambda: RefCRDTAdapter().merge(trace))
        assert crdt.retained_bytes > eg.retained_bytes


class TestExperimentRunners:
    def test_table1_rows(self, tiny_traces):
        rows = run_table1(tiny_traces)
        assert len(rows) == len(tiny_traces)
        assert {"trace", "measured_events_k"} <= set(rows[0])

    def test_merge_time_rows(self, tiny_traces):
        rows = run_merge_time(tiny_traces, adapters=[EgWalkerAdapter(), OTAdapter()])
        assert len(rows) == len(tiny_traces) * 2
        for row in rows:
            assert row["merge_ms"] >= 0
            assert row["load_ms"] >= 0

    def test_clearing_ablation_rows(self, tiny_traces):
        rows = run_clearing_ablation(tiny_traces)
        by_key = {(row["trace"], row["optimisation"]): row for row in rows}
        assert by_key[("S1", "enabled")]["fast_path_events"] > 0
        assert by_key[("S1", "disabled")]["fast_path_events"] == 0

    def test_memory_rows(self, tiny_traces):
        rows = run_memory(tiny_traces, adapters=[EgWalkerAdapter(), RefCRDTAdapter()])
        by_key = {(row["trace"], row["algorithm"]): row for row in rows}
        for name in tiny_traces:
            assert (
                by_key[(name, "ref-crdt")]["steady_kib"]
                > by_key[(name, "eg-walker")]["steady_kib"]
            )

    def test_file_size_rows(self, tiny_traces):
        full = run_file_size_full(tiny_traces)
        pruned = run_file_size_pruned(tiny_traces)
        assert len(full) == len(pruned) == len(tiny_traces)
        for row in full:
            assert row["egwalker_bytes"] > row["inserted_text_bytes"] * 0.5
            assert row["egwalker_cached_doc_bytes"] >= row["egwalker_bytes"]
            assert row["egwalker_compressed_bytes"] <= row["egwalker_bytes"]
            assert (
                row["egwalker_compressed_cached_doc_bytes"]
                <= row["egwalker_cached_doc_bytes"]
            )
        for row in pruned:
            assert row["egwalker_pruned_bytes"] >= row["final_doc_bytes"] * 0.5
            assert row["egwalker_compressed_pruned_bytes"] <= row["egwalker_pruned_bytes"]

    def test_sort_order_ablation(self, tiny_traces):
        rows = run_sort_order_ablation(tiny_traces, trace_names=("C1",))
        strategies = {row["sort_order"] for row in rows}
        assert strategies == {"branch_aware", "local", "interleaved"}

    def test_scaling_rows(self):
        rows = run_scaling(branch_sizes=(40, 80))
        assert len(rows) == 2
        assert rows[1]["ot_work_units"] > rows[0]["ot_work_units"]


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        table = format_table(rows, title="demo")
        lines = table.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no data)" in format_table([], title="empty")

    def test_format_results_and_json(self, tiny_traces):
        results = {"table1_trace_stats": run_table1(tiny_traces)}
        rendered = format_results(results)
        assert "Table 1" in rendered
        parsed = json.loads(results_to_json(results))
        assert "table1_trace_stats" in parsed
