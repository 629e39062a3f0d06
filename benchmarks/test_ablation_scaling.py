"""Ablation X2 — merge cost of two long offline branches (§1, §3.7).

Two users each perform k events while offline and then merge.  The paper's
complexity analysis says Eg-walker pays O((k+m)·log(k+m)) while OT pays at
least O(k·m); :func:`repro.bench.harness.run_scaling` sweeps the branch length
and records the cost of each algorithm so the scaling exponents (and the
crossover against the reference CRDT) can be read off the report.  This
module checks that every merge produced the right document.
"""

from __future__ import annotations

import pytest


@pytest.mark.parametrize("algorithm", ["eg-walker", "ot", "ref-crdt"])
@pytest.mark.parametrize("branch_size", [250, 500, 1000, 2000])
def test_two_branch_merge_scaling(bench_row, branch_size, algorithm):
    row = bench_row("x2", None, branch_events=branch_size)
    if algorithm == "eg-walker":
        assert row["egwalker_matches_trace"]
    elif algorithm == "ot":
        assert row["ot_chars"] == row["final_chars"]
    else:
        assert row["ref_crdt_matches_trace"]
