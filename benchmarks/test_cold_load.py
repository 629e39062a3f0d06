"""Cold-load-to-first-text from a storage container — the selective-read
acceptance gate.

The production cold-start story is: an evicted document
is a pruned container with a snapshot column, and waking it up to *display*
must not pay for its history.  :func:`repro.bench.harness.run_cold_load`
persists every trace that way and loads it cold three ways (selective text,
lazy history, full decode); results land in ``BENCH_cold_load.json``.

The regression gates are **structural counters**, not timings (machine speed
cancels out, so a regression to eager hydration fails on any hardware):

* a cold text read materialises **zero** ``EventGraph`` events and touches
  only a fraction of the file's bytes;
* the first ``History`` access hydrates the remaining columns **exactly
  once** — repeated accesses never re-decode;
* the full decode baseline materialises every event, which is what the
  selective path is measured against;
* an **editable** open adopts what it decodes: one graph built once, zero
  events merged, no walker state — and the document it yields takes a local
  edit and reads back as the oracle text.

``REPRO_TRACE_SCALE`` scales the traces (the storage-format CI job runs
reduced ones); the JSON always records the scale used.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench.harness import run_cold_load
from repro.traces.datasets import TRACE_NAMES, default_scale, get_trace

RESULT_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_cold_load.json"
)


@pytest.fixture(scope="module")
def cold_load_rows():
    traces = {name: get_trace(name) for name in TRACE_NAMES}
    rows = run_cold_load(traces)
    payload = {
        "benchmark": "cold_load",
        "trace_scale": default_scale(),
        "rows": rows,
    }
    with open(RESULT_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return rows


def _row(rows, trace):
    matches = [r for r in rows if r["trace"] == trace]
    assert len(matches) == 1
    return matches[0]


def test_cold_text_materialises_zero_events(cold_load_rows):
    """The headline claim: current text from a pruned v3 file without
    materialising a single event graph event."""
    for name in TRACE_NAMES:
        row = _row(cold_load_rows, name)
        assert row["cold_text_ok"], f"{name}: cold text does not match the oracle"
        assert row["cold_text_events_materialised"] == 0, (
            f"{name}: selective text read materialised "
            f"{row['cold_text_events_materialised']} events"
        )


def test_cold_text_reads_a_fraction_of_the_file(cold_load_rows):
    """Selective reads must skip the history columns' bytes, not just their
    decoding: the snapshot-only load stays well under the full file size."""
    for name in TRACE_NAMES:
        row = _row(cold_load_rows, name)
        assert row["cold_text_bytes_read"] < row["file_bytes"], name
        assert row["cold_text_read_fraction"] < 0.9, (
            f"{name}: cold text read {row['cold_text_read_fraction']:.0%} "
            "of the file; selective column reads are not selective"
        )


def test_history_hydrates_exactly_once(cold_load_rows):
    """Lazy hydration: first ``History`` access decodes the history columns
    once; the second access in the harness must not re-hydrate."""
    for name in TRACE_NAMES:
        row = _row(cold_load_rows, name)
        assert row["history_hydrations"] == 1, (
            f"{name}: {row['history_hydrations']} hydrations for two accesses"
        )


def test_full_load_materialises_every_event(cold_load_rows):
    """The baseline the selective path is measured against really does decode
    the whole graph."""
    for name in TRACE_NAMES:
        row = _row(cold_load_rows, name)
        assert row["full_load_events"] == len(get_trace(name).graph)
        assert row["full_load_bytes_read"] >= row["cold_text_bytes_read"]


def test_editable_open_is_a_decode(cold_load_rows):
    """Load is a decode: the editable open builds one graph, once, takes the
    text from the snapshot column and merges nothing — a regression to
    decode + re-ingest + re-merge fails here on any hardware."""
    for name in TRACE_NAMES:
        row = _row(cold_load_rows, name)
        assert row["editable_open_events_materialised"] == len(get_trace(name).graph), (
            f"{name}: the editable open did not build exactly one graph"
        )
        assert row["editable_open_merges"] == 0, name
        assert row["editable_open_events_integrated"] == 0, name
        assert not row["editable_open_resident_state"], name
        assert row["editable_open_text_ok"], (
            f"{name}: text after one local insert does not match the oracle"
        )


def test_result_file_written(cold_load_rows):
    with open(RESULT_PATH, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["benchmark"] == "cold_load"
    assert len(payload["rows"]) == len(TRACE_NAMES)
