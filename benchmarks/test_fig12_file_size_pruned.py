"""Figure 12 — file size when deleted text content is omitted (as Yjs does).

:func:`repro.bench.harness.run_file_size_pruned` compares the pruned
Eg-walker event-graph file (structure kept, deleted characters' content
dropped) — uncompressed, as the paper compares it, and with the container's
per-column deflate — against the Yjs-like item format, with the final
document size as the lower bound.  Gated per trace family: compressed ≤
uncompressed, and the uncompressed pruned file is no larger than the Yjs-like
one (the paper's ordering).
"""

from __future__ import annotations

import pytest

#: Figure 12's variants and the row column holding each one's file size.
VARIANTS = {
    "egwalker-pruned": "egwalker_pruned_bytes",
    "egwalker-compressed-pruned": "egwalker_compressed_pruned_bytes",
    "yjs-like": "yjs_like_bytes",
}


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_pruned_file_size(bench_row, trace, variant):
    row = bench_row("fig12", trace.name)
    size = row[VARIANTS[variant]]
    plain = row["egwalker_pruned_bytes"]

    if variant == "egwalker-compressed-pruned":
        assert size <= plain, (
            f"compressed pruned file ({size} B) larger than uncompressed "
            f"({plain} B) on {trace.name}"
        )
        return
    # The final document text is (approximately) a lower bound for the
    # uncompressed formats (deflated columns may dip below it).
    assert size > row["final_doc_bytes"] * 0.5
    if variant == "yjs-like":
        # The paper's ordering, against the uncompressed pruned file.
        assert plain <= size, (
            f"pruned event-graph file ({plain} B) larger than the "
            f"Yjs-like one ({size} B) on {trace.name}"
        )
