"""Figure 9 — Eg-walker merge time with and without the §3.5 optimisations.

The state-clearing / fast-path optimisation is what lets Eg-walker skip the
CRDT machinery entirely on the (dominant) sequential portions of a history.
The paper reports a 5–10× speed-up on the sequential traces and essentially no
difference on the highly concurrent ones (A2 has no critical versions at all);
:func:`repro.bench.harness.run_clearing_ablation` replays both halves, and this
module checks the walker's counters behind them.
"""

from __future__ import annotations

import pytest


@pytest.mark.parametrize("optimisation", ["enabled", "disabled"])
def test_merge_with_and_without_clearing(bench_row, trace, optimisation):
    row = bench_row("fig9", trace.name, optimisation=optimisation)
    assert row["text_matches_trace"]
    if optimisation == "disabled":
        assert row["fast_path_events"] == 0
    elif trace.kind == "sequential":
        # Sequential histories are entirely fast-pathed when the optimisation is on.
        assert row["fast_path_events"] == row["run_events"] == len(trace.graph)
