"""Per-merge latency vs. history length — the merge engine's acceptance curve.

A live replica receives one event at a time from a peer while its history
grows (see :func:`repro.bench.harness.run_merge_latency`).  The quantity
that matters is the cost of *each* merge as a function of how much history
already exists:

* the :class:`~repro.core.merge_engine.MergeEngine` must be **flat** — a
  sequential delivery touches exactly the new event (fast path), and a
  concurrent delivery touches the new event plus the small post-critical-cut
  window kept resident between merges, at every history length;
* a **two-author** session delivered one event per delta (the last row) must
  replay a window bounded by one exchange: each exchange ends in a two-head
  critical version, and an engine that misses it replays from the root.

Both the latency and the engine's own work counters are recorded per history
checkpoint and written to ``BENCH_merge_latency.json`` (the perf-smoke CI
job uploads it, so the perf trajectory accumulates).  The regression gate
asserts on the **work counters**, not wall-clock: per-merge events touched
at the largest checkpoint must stay within a constant of those at the
smallest, so a regression back to O(history) bookkeeping fails the test on
any machine, however fast.

``REPRO_MERGE_LATENCY_EVENTS`` scales the history length (default 1600).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench.harness import run_merge_latency

MAX_EVENTS = int(os.environ.get("REPRO_MERGE_LATENCY_EVENTS", "1600"))
CHECKPOINTS = [MAX_EVENTS // 8, MAX_EVENTS // 4, MAX_EVENTS // 2, MAX_EVENTS]
RESULT_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_merge_latency.json"
)


@pytest.fixture(scope="module")
def latency_rows():
    rows = run_merge_latency(MAX_EVENTS, CHECKPOINTS)
    payload = {
        "benchmark": "merge_latency",
        "max_events": MAX_EVENTS,
        "checkpoints": CHECKPOINTS,
        "rows": rows,
    }
    with open(RESULT_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return rows


#: Slack, in events, between the per-merge work at the smallest and at the
#: largest checkpoint: the live stream is the same shape at every length.
FLAT_SLACK = 2


def _series(rows, delivery):
    return [r for r in rows if r["delivery"] == delivery]


def test_incremental_sequential_merges_are_flat(latency_rows):
    """Fast-path deliveries touch exactly the new event at every history
    length — the flat curve, asserted on work counters."""
    series = _series(latency_rows, "sequential")
    assert len(series) == len(CHECKPOINTS)
    assert all(row["merge_work_events"] == 1 for row in series)


def test_incremental_concurrent_merges_are_flat(latency_rows):
    """Concurrent deliveries replay the resident window, whose size is set
    by the concurrency (O(1) here), not by the history length."""
    series = _series(latency_rows, "concurrent")
    works = [row["merge_work_events"] for row in series]
    assert max(works) <= 8, works
    assert works[0] == works[-1], "window size must not grow with history"


def test_engine_fast_paths_the_live_stream(latency_rows):
    (summary,) = _series(latency_rows, "summary")
    assert summary["fast_path_merges"] >= summary["merges"] * 0.9


def test_two_author_session_replays_only_its_own_exchange(latency_rows):
    """One event per delta from two authors typing at once: every exchange
    ends in a (two-head) critical version, so the window replayed per event
    is bounded by an exchange, not by the history.  A regression back to
    replaying from the root once per exchange puts this ratio in the tens."""
    (row,) = _series(latency_rows, "two_author")
    assert row["events_integrated"] == row["history_events"] >= MAX_EVENTS // 4
    assert row["replayed_window_events"] / row["events_integrated"] <= 2


def test_merge_work_does_not_grow_with_history(latency_rows):
    """The flatness gate: the history grows about eightfold between the
    first and the last checkpoint, the per-merge work by at most a constant."""
    for delivery in ("sequential", "concurrent"):
        series = _series(latency_rows, delivery)
        first, last = series[0], series[-1]
        assert last["history_events"] >= 4 * first["history_events"]
        assert last["merge_work_events"] <= first["merge_work_events"] + FLAT_SLACK


def test_result_file_written(latency_rows):
    with open(RESULT_PATH, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["benchmark"] == "merge_latency"
    # Two deliveries per checkpoint, then the summary and two-author rows.
    assert len(payload["rows"]) == 2 * len(CHECKPOINTS) + 2
