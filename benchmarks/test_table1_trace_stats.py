"""Table 1 — editing trace statistics.

Checks the statistics :func:`repro.bench.harness.run_table1` measures for
each benchmark trace (number of events, average concurrency, graph runs,
authors, surviving characters, final size) against the shape of the paper's
values, which the row carries alongside.
"""

from __future__ import annotations


def test_table1_statistics(bench_row, trace):
    row = bench_row("table1", trace.name)
    # Structural sanity: the trace has the right *shape* relative to the paper.
    assert row["measured_events_k"] > 0
    if row["paper_avg_concurrency"] == 0.0:
        assert row["measured_avg_concurrency"] == 0.0
        assert row["measured_graph_runs"] == 1
    else:
        assert row["measured_avg_concurrency"] > 0.0
        assert row["measured_graph_runs"] > 1
    assert row["measured_authors"] >= 1
    assert 0 < row["measured_chars_remaining_pct"] <= 100
