"""Figure 11 — file size when the full editing history is retained.

Compares the Eg-walker columnar event-graph file (§3.8) — uncompressed, as
the paper's like-for-like comparison has it (§4.5), and with the container's
per-column deflate — with and without a cached copy of the final document,
against the Automerge-like full-history format.  The lightly shaded lower
bound in the paper's chart — the concatenated length of all inserted text —
is reported alongside.

Two structural gates per trace family: the compressed file is no larger than
its uncompressed twin (store-raw-if-not-smaller, column by column), and the
paper's ordering holds — the uncompressed event-graph file is smaller than
the CRDT baseline's.
"""

from __future__ import annotations

import pytest

from repro.bench.adapters import AutomergeLikeAdapter, EgWalkerAdapter

VARIANTS = [
    "egwalker",
    "egwalker+cached-doc",
    "egwalker-compressed",
    "egwalker-compressed+cached-doc",
    "automerge-like",
]


@pytest.mark.parametrize("variant", VARIANTS)
def test_full_history_file_size(benchmark, trace, variant):
    benchmark.group = f"fig11-filesize-{trace.name}"
    inserted_text_bytes = sum(
        len(e.op.content.encode()) for e in trace.graph.events() if e.op.is_insert
    )

    if variant == "automerge-like":
        adapter = AutomergeLikeAdapter()
    else:
        adapter = EgWalkerAdapter(
            cache_final_doc=variant.endswith("+cached-doc"),
            compress_columns="-compressed" in variant,
        )
    outcome = adapter.merge(trace)
    data = benchmark.pedantic(lambda: adapter.save(trace, outcome), rounds=1, iterations=1)
    benchmark.extra_info["trace"] = trace.name
    benchmark.extra_info["variant"] = variant
    benchmark.extra_info["file_bytes"] = len(data)
    benchmark.extra_info["inserted_text_bytes"] = inserted_text_bytes

    if "-compressed" not in variant:
        # The inserted text is a lower bound on any *uncompressed*
        # full-history format (deflated columns may dip below it).
        assert len(data) > inserted_text_bytes
    if variant == "automerge-like":
        # The paper's ordering: the history-only, uncompressed event-graph
        # file (which needs no merge outcome) against the CRDT's.
        eg_data = EgWalkerAdapter(cache_final_doc=False).save(trace, outcome)
        assert len(eg_data) < len(data), (
            f"event-graph file ({len(eg_data)} B) not smaller than the "
            f"Automerge-like one ({len(data)} B) on {trace.name}"
        )
        return
    # The event-graph encoding keeps the overhead over raw text modest.
    assert len(data) < inserted_text_bytes * 4 + 10_000
    if adapter.compress_columns:
        plain = EgWalkerAdapter(cache_final_doc=adapter.cache_final_doc)
        plain_data = plain.save(trace, outcome)
        assert len(data) <= len(plain_data), (
            f"compressed file ({len(data)} B) larger than uncompressed "
            f"({len(plain_data)} B) on {trace.name}"
        )
