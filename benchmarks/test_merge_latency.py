"""Per-merge latency vs. history length — the merge engine's acceptance curve.

A live replica receives one event at a time from a peer while its history
grows (see :func:`repro.bench.harness.run_merge_latency`).  The quantity
that matters is the cost of *each* merge as a function of how much history
already exists:

* the incremental :class:`~repro.core.merge_engine.MergeEngine` must be
  **flat** — a sequential delivery touches exactly the new event (fast
  path), and a concurrent delivery touches the new event plus the small
  post-critical-cut window kept resident between merges;
* the legacy rebuild path (``incremental=False``) grows **linearly**: every
  merge materialises the full local order and re-scans it for critical
  versions, regardless of how little arrived;
* a **two-author** session delivered one event per delta (the last row) must
  replay a window bounded by one exchange: each exchange ends in a two-head
  critical version, and an engine that misses it replays from the root.

Both the latency and the engine's own work counters are recorded per history
checkpoint and written to ``BENCH_merge_latency.json`` (the perf-smoke CI
job uploads it, so the perf trajectory accumulates).  The regression gate
asserts on the **work counters**, not wall-clock: per-merge events touched
must stay constant for the engine and must scale with history for the
rebuild path, so a regression back to O(history) bookkeeping fails the test
on any machine, however fast.

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


def _series(rows, incremental, delivery):
    return [
        r for r in rows if r["incremental"] is incremental and r["delivery"] == delivery
    ]


def test_incremental_sequential_merges_are_flat(latency_rows):
    """Fast-path deliveries touch exactly the new event at every history
    length — the flat curve, asserted on work counters."""
    series = _series(latency_rows, True, "sequential")
    assert len(series) == len(CHECKPOINTS)
    assert all(row["merge_work_events"] == 1 for row in series)


def test_incremental_concurrent_merges_are_flat(latency_rows):
    """Concurrent deliveries replay the resident window, whose size is set
    by the concurrency (O(1) here), not by the history length."""
    series = _series(latency_rows, True, "concurrent")
    works = [row["merge_work_events"] for row in series]
    assert max(works) <= 8, works
    assert works[0] == works[-1], "window size must not grow with history"


def test_incremental_engine_never_does_o_history_bookkeeping(latency_rows):
    summary = _series(latency_rows, True, "summary")[0]
    assert summary["walkers_rebuilt"] == 0
    assert summary["cut_scan_events"] == 0
    assert summary["order_events_materialised"] == 0
    assert summary["fast_path_merges"] >= summary["merges"] * 0.9


def test_two_author_session_replays_only_its_own_exchange(latency_rows):
    """One event per delta from two authors typing at once: every exchange
    ends in a (two-head) critical version, so the window replayed per event
    is bounded by an exchange, not by the history.  A regression back to
    replaying from the root once per exchange puts this ratio in the tens."""
    (row,) = _series(latency_rows, True, "two_author")
    assert row["events_integrated"] == row["history_events"] >= MAX_EVENTS // 4
    assert row["replayed_window_events"] / row["events_integrated"] <= 2


def test_legacy_rebuild_path_grows_linearly(latency_rows):
    """The ablation contrast: per-merge work scales with history length."""
    for delivery in ("sequential", "concurrent"):
        series = _series(latency_rows, False, delivery)
        first, last = series[0], series[-1]
        assert last["merge_work_events"] >= last["history_events"]
        # Work grows one-for-one with the history between the checkpoints.
        assert last["merge_work_events"] - first["merge_work_events"] >= (
            last["history_events"] - first["history_events"]
        )


def test_result_file_written(latency_rows):
    with open(RESULT_PATH, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["benchmark"] == "merge_latency"
    assert len(payload["rows"]) == 2 * (2 * len(CHECKPOINTS) + 1) + 1
