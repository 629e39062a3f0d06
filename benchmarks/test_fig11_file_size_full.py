"""Figure 11 — file size when the full editing history is retained.

:func:`repro.bench.harness.run_file_size_full` compares the Eg-walker
columnar event-graph file (§3.8) — uncompressed, as the paper's like-for-like
comparison has it (§4.5), and with the container's per-column deflate — with
and without a cached copy of the final document, against the Automerge-like
full-history format.  The lightly shaded lower bound in the paper's chart —
the UTF-8 bytes of all inserted text — is reported alongside.

Two structural gates per trace family: the compressed file is no larger than
its uncompressed twin, and the paper's ordering holds — the uncompressed
event-graph file is smaller than the CRDT baseline's.  The first compares
whole files, so it does not check the container's per-column rule (store a
column raw unless deflate makes it smaller): deflate wins file-wide even
when one column would grow.  That rule is pinned column by column in
``tests/test_storage_container.py::test_compressed_file_holds_the_uncompressed_payloads``.
"""

from __future__ import annotations

import pytest

#: Figure 11's variants and the row column holding each one's file size.
VARIANTS = {
    "egwalker": "egwalker_bytes",
    "egwalker+cached-doc": "egwalker_cached_doc_bytes",
    "egwalker-compressed": "egwalker_compressed_bytes",
    "egwalker-compressed+cached-doc": "egwalker_compressed_cached_doc_bytes",
    "automerge-like": "automerge_like_bytes",
}


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_full_history_file_size(bench_row, trace, variant):
    row = bench_row("fig11", trace.name)
    size = row[VARIANTS[variant]]
    inserted_text_bytes = row["inserted_text_bytes"]

    if "-compressed" not in variant:
        # The inserted text is a lower bound on any *uncompressed*
        # full-history format (deflated columns may dip below it).
        assert size > inserted_text_bytes
    if variant == "automerge-like":
        # The paper's ordering: the history-only, uncompressed event-graph
        # file (which needs no merge outcome) against the CRDT's.
        assert row["egwalker_bytes"] < size, (
            f"event-graph file ({row['egwalker_bytes']} B) not smaller than the "
            f"Automerge-like one ({size} B) on {trace.name}"
        )
        return
    # The event-graph encoding keeps the overhead over raw text modest.
    assert size < inserted_text_bytes * 4 + 10_000
    if "-compressed" in variant:
        plain = row[VARIANTS[variant.replace("-compressed", "")]]
        assert size <= plain, (
            f"compressed file ({size} B) larger than uncompressed ({plain} B) on {trace.name}"
        )
