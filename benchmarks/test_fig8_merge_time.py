"""Figure 8 (merge series) — CPU time to merge a remote editing trace.

For every trace and every algorithm, :func:`repro.bench.harness.run_merge_time`
times the integration of the entire editing history — as received from a
remote replica — into an empty local document.  The paper's headline results:

* on sequential traces (S1–S3) Eg-walker and OT are fast and the CRDTs pay a
  constant per-character overhead;
* on the asynchronous traces (A1–A2) OT blows up quadratically while Eg-walker
  stays close to the reference CRDT;
* Eg-walker is never far behind the best algorithm on any trace (claim C1).

The timings are one sample each and are printed, not asserted; this module
checks that every merge produced the right document.
"""

from __future__ import annotations

import pytest

from repro.bench.adapters import ALL_ADAPTERS


@pytest.mark.parametrize("algorithm", [adapter.name for adapter in ALL_ADAPTERS()])
def test_merge_remote_trace(bench_row, trace, algorithm):
    row = bench_row("fig8", trace.name, algorithm=algorithm)
    # Every algorithm must produce the same merged document as Eg-walker
    # produces (OT may reorder concurrent runs, so compare lengths there).
    if algorithm == "ot":
        assert row["final_chars"] == len(trace.final_text)
    else:
        assert row["text_matches_trace"]
