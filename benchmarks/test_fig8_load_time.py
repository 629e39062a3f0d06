"""Figure 8 (load series) — CPU time to reload a document from disk.

After each merge, :func:`repro.bench.harness.run_merge_time` persists the
document and times loading it back into a state where the user can view and
edit it:

* Eg-walker and OT save the event-graph file with its snapshot column, and the
  Eg-walker load reads only that column — the event graph stays on disk — so
  loads are orders of magnitude faster than the CRDTs;
* the CRDTs must rebuild their full per-character structure (Automerge-like
  even replays its stored operation history), which is why the paper reports
  CRDT loads costing as much as merges.

The cells read the same rows as the merge series: each merge runs once.
"""

from __future__ import annotations

import pytest

from repro.bench.adapters import ALL_ADAPTERS


@pytest.mark.parametrize("algorithm", [adapter.name for adapter in ALL_ADAPTERS()])
def test_load_document_from_disk(bench_row, trace, algorithm):
    row = bench_row("fig8", trace.name, algorithm=algorithm)
    assert row["load_matches_merge"]
