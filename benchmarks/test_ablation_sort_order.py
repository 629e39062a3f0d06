"""Ablation X1 — sensitivity of Eg-walker to the topological-sort order (§4.3).

The paper notes that on highly concurrent graphs (A2) a poorly chosen
traversal order makes merging up to 8× slower, because the walker has to
retreat and advance events far more often.
:func:`repro.bench.harness.run_sort_order_ablation` replays the concurrent and
asynchronous traces under the branch-aware heuristic, the plain local order,
and a deliberately interleaved (breadth-first) order.
"""

from __future__ import annotations

import pytest


@pytest.mark.parametrize("trace_name", ["C1", "C2", "A1", "A2"])
@pytest.mark.parametrize("strategy", ["branch_aware", "local", "interleaved"])
def test_sort_order_sensitivity(bench_row, trace_name, strategy):
    row = bench_row("x1", trace_name, sort_order=strategy)
    # The traversal order must never change the result (Lemma C.8).
    assert row["text_matches_trace"]
