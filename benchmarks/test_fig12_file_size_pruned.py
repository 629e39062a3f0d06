"""Figure 12 — file size when deleted text content is omitted (as Yjs does).

Compares the pruned Eg-walker event-graph file (structure kept, deleted
characters' content dropped) — uncompressed, as the paper compares it, and
with the container's per-column deflate — against the Yjs-like item format,
with the final document size as the lower bound.  Gated per trace family:
compressed ≤ uncompressed, and the uncompressed pruned file is no larger than
the Yjs-like one (the paper's ordering).
"""

from __future__ import annotations

import pytest

from repro.bench.adapters import EgWalkerAdapter, YjsLikeAdapter

VARIANTS = ["egwalker-pruned", "egwalker-compressed-pruned", "yjs-like"]


@pytest.mark.parametrize("variant", VARIANTS)
def test_pruned_file_size(benchmark, trace, variant):
    benchmark.group = f"fig12-filesize-{trace.name}"
    final_doc_bytes = len(trace.final_text.encode())

    if variant == "yjs-like":
        adapter = YjsLikeAdapter()
        outcome = adapter.merge(trace)
        encode = lambda: adapter.save(trace, outcome)  # noqa: E731
    else:
        adapter = EgWalkerAdapter(compress_columns="-compressed" in variant)
        outcome = adapter.merge(trace)
        encode = lambda: adapter.save_pruned(trace, outcome)  # noqa: E731

    data = benchmark.pedantic(encode, rounds=1, iterations=1)
    benchmark.extra_info["trace"] = trace.name
    benchmark.extra_info["variant"] = variant
    benchmark.extra_info["file_bytes"] = len(data)
    benchmark.extra_info["final_doc_bytes"] = final_doc_bytes

    if variant == "egwalker-compressed-pruned":
        plain_data = EgWalkerAdapter().save_pruned(trace, outcome)
        assert len(data) <= len(plain_data), (
            f"compressed pruned file ({len(data)} B) larger than uncompressed "
            f"({len(plain_data)} B) on {trace.name}"
        )
        return
    # The final document text is (approximately) a lower bound for the
    # uncompressed formats (deflated columns may dip below it).
    assert len(data) > final_doc_bytes * 0.5
    if variant == "yjs-like":
        # The paper's ordering, against the uncompressed pruned file.
        eg_data = EgWalkerAdapter().save_pruned(trace, outcome)
        assert len(eg_data) <= len(data), (
            f"pruned event-graph file ({len(eg_data)} B) larger than the "
            f"Yjs-like one ({len(data)} B) on {trace.name}"
        )
