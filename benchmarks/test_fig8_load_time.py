"""Figure 8 (load series) — CPU time to reload a document from disk.

After a merge, each algorithm persists its document and we measure the time to
load it back into a state where the user can view and edit it:

* Eg-walker and OT save the event-graph file with its snapshot column, and the
  Eg-walker load reads only that column — the event graph stays on disk — so
  loads are orders of magnitude faster than the CRDTs;
* the CRDTs must rebuild their full per-character structure (Automerge-like
  even replays its stored operation history), which is why the paper reports
  CRDT loads costing as much as merges.
"""

from __future__ import annotations

import pytest

from repro.bench.adapters import (
    AutomergeLikeAdapter,
    EgWalkerAdapter,
    OTAdapter,
    RefCRDTAdapter,
    YjsLikeAdapter,
)

ADAPTERS = {
    "eg-walker": EgWalkerAdapter,
    "ot": OTAdapter,
    "ref-crdt": RefCRDTAdapter,
    "automerge-like": AutomergeLikeAdapter,
    "yjs-like": YjsLikeAdapter,
}


@pytest.mark.parametrize("algorithm", list(ADAPTERS))
def test_load_document_from_disk(benchmark, trace, algorithm):
    adapter = ADAPTERS[algorithm]()
    outcome = adapter.merge(trace)
    saved = adapter.save(trace, outcome)

    benchmark.group = f"fig8-load-{trace.name}"
    rounds = 3 if algorithm in ("eg-walker", "ot") else 1
    text = benchmark.pedantic(adapter.load, args=(saved,), rounds=rounds, iterations=1)
    benchmark.extra_info["trace"] = trace.name
    benchmark.extra_info["algorithm"] = algorithm
    benchmark.extra_info["file_bytes"] = len(saved)
    assert text == outcome.text
