"""End-to-end replay throughput — the hot-path acceptance curve.

A fresh replica consumes a whole trace in small batches (see
:func:`repro.bench.harness.run_replay_throughput`): the live-session shape,
where every batch is one merge against a growing history.  Two traces bracket
the behaviour:

* **S3** (sequential): every delivery takes the transform-free fast path, so
  the replica never builds walker state at all;
* **C2** (concurrent): two authors interleave, so merges run the walker
  against the resident :class:`~repro.core.merge_engine.WalkerCheckpoint`
  within an exchange and release it at the two-head critical version each
  exchange ends in.  A critical version the engine misses, or a checkpoint
  dropped *inside* an exchange (by a re-carving split or an in-place run
  extension), forces a merge to re-replay events that are already in the
  text, which multiplies ``replayed_window_events``.

Results (events/sec plus the attribution counters) are written to
``BENCH_replay_throughput.json`` so the perf trajectory accumulates alongside
``BENCH_merge_latency.json``.  The regression gate asserts on **work
counters**, not wall-clock: machine speed cancels out, so a regression back
to re-replaying history (or to fast-path misses on sequential input) fails on
any hardware.

``REPRO_TRACE_SCALE`` scales the traces (the perf-smoke CI job runs reduced
ones); the JSON always records the scale used.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench.harness import run_replay_throughput
from repro.traces.datasets import default_scale, get_trace

TRACE_NAMES = ("S3", "C2")
BATCH_SIZE = 8
RESULT_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_replay_throughput.json"
)


@pytest.fixture(scope="module")
def throughput_rows():
    traces = {name: get_trace(name) for name in TRACE_NAMES}
    rows = run_replay_throughput(traces, TRACE_NAMES, BATCH_SIZE)
    payload = {
        "benchmark": "replay_throughput",
        "trace_scale": default_scale(),
        "batch_size": BATCH_SIZE,
        "rows": rows,
    }
    with open(RESULT_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return rows


def _row(rows, trace, incremental):
    matches = [
        r for r in rows if r["trace"] == trace and r["incremental"] is incremental
    ]
    assert len(matches) == 1
    return matches[0]


def test_sequential_trace_never_touches_the_walker(throughput_rows):
    """S3 is purely sequential: every event must take the fast path, with no
    window replay and no walker state ever built."""
    row = _row(throughput_rows, "S3", True)
    assert row["fast_path_events"] == row["run_events"]
    assert row["replayed_window_events"] == 0
    assert row["checkpoints_kept"] == 0


def test_concurrent_trace_releases_its_state_between_exchanges(throughput_rows):
    """Every C2 exchange ends in a (two-head) critical version: the engine
    drops the resident state there and starts the next exchange with a small
    fresh replay, so a closed session holds no walker state at all (§3.5's
    "memory is just the text").  That the drops are never paid for with
    re-replayed history is the window bound below; that splits and
    extensions inside an exchange patch the state instead of dropping it is
    pinned in ``tests/test_event_handles.py``."""
    row = _row(throughput_rows, "C2", True)
    assert row["resident_state_after_close"] is False
    assert row["checkpoints_dropped"] >= row["fresh_replays"] - 1 > 0


def test_window_replay_stays_proportional_to_new_events(throughput_rows):
    """The redundant-work bound: total window events replayed across the
    whole C2 session must stay below the new events integrated.  (Before
    checkpoint patching the ratio was ~16x the other way.)"""
    row = _row(throughput_rows, "C2", True)
    assert row["replayed_window_events"] <= row["replayed_new_events"]


def test_incremental_beats_legacy_on_work(throughput_rows):
    """The ablation contrast, on counters: the legacy path replays every
    event through a rebuilt walker (fast-pathing nothing) and re-scans the
    whole history for critical versions on every merge; the incremental
    engine fast-paths sequential input, tracks the cuts as events arrive,
    and replays no more window than the rebuild does (both start from the
    same critical versions)."""
    for trace in TRACE_NAMES:
        legacy = _row(throughput_rows, trace, False)
        assert legacy["fast_path_events"] == 0
        assert legacy["cut_scan_events"] >= legacy["run_events"]
        assert _row(throughput_rows, trace, True)["cut_scan_events"] == 0
    assert _row(throughput_rows, "S3", True)["fast_path_events"] > 0
    c2_incremental = _row(throughput_rows, "C2", True)
    c2_legacy = _row(throughput_rows, "C2", False)
    assert c2_incremental["replayed_window_events"] <= c2_legacy["replayed_window_events"]


def test_result_file_written(throughput_rows):
    with open(RESULT_PATH, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["benchmark"] == "replay_throughput"
    assert len(payload["rows"]) == 2 * len(TRACE_NAMES)
