"""Offline editing / long-running branches: where Eg-walker shines over OT.

Two authors work on the same report while disconnected (a flight, fieldwork,
or simply a feature branch).  Each writes hundreds of sentences; when they
reconnect, their long-running branches must be merged.  This is the scenario
where classical OT needs O(k·m) transformations (the paper's trace A2 takes an
hour) while Eg-walker replays the two branches in O((k+m)·log(k+m)).

The example merges the branches with both algorithms, checks they agree, and
prints how much work each one did.

Run with::

    python examples/offline_editing.py
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro import Document
from repro.ot import replay_ot

SENTENCES_PER_AUTHOR = 120


def write_report_section(doc: Document, author: str, sentences: int) -> None:
    """Simulate an author appending prose and fixing up earlier wording."""
    for i in range(sentences):
        doc.insert(len(doc.text), f"{author} wrote sentence {i}. ")
        if i % 7 == 3 and len(doc.text) > 40:
            # Go back and tighten some earlier wording.
            doc.delete(10, 5)
            doc.insert(10, "edit.")


def main() -> None:
    # A shared starting point.
    alice = Document("alice")
    alice.insert(0, "Trip report, draft zero. ")
    bob = Document("bob")
    bob.merge(alice)

    # Both go offline and write a lot of text independently.
    write_report_section(alice, "alice", SENTENCES_PER_AUTHOR)
    write_report_section(bob, "bob", SENTENCES_PER_AUTHOR)
    print(f"alice wrote {len(alice.oplog)} events, bob wrote {len(bob.oplog)} events")

    # Reconnect: merge bob's branch into alice's replica (and vice versa).
    start = time.perf_counter()
    alice.merge(bob)
    bob.merge(alice)
    merge_seconds = time.perf_counter() - start
    assert alice.text == bob.text
    print(f"Eg-walker merged both branches in {merge_seconds * 1000:.1f} ms")
    print(f"merged document: {len(alice.text)} characters")

    # What alice's merge engine did: the window since the last critical
    # version replayed silently, bob's events transformed, and the walker's
    # retreats and advances between the two branches.
    stats = alice.merge_stats
    walker = alice.engine.walker.last_stats
    assert walker is not None
    print(
        f"alice's merge: {stats.fresh_replays} window replay "
        f"({stats.replayed_window_events} window events, "
        f"{stats.replayed_new_events} new events; "
        f"{walker.retreats} retreats, {walker.advances} advances)"
    )

    # And through the OT baseline, counting its quadratic work.
    start = time.perf_counter()
    ot_result = replay_ot(alice.oplog.graph)
    ot_seconds = time.perf_counter() - start
    print(
        f"OT merge: {ot_seconds * 1000:.1f} ms, "
        f"{ot_result.work_units} work units over "
        f"{ot_result.concurrent_events} concurrent events"
    )
    print(f"documents agree in length: {len(ot_result.text) == len(alice.text)}")


if __name__ == "__main__":
    main()
