"""History browsing and time travel over the event graph.

Because Eg-walker keeps the full, fine-grained editing history of a document
(the event graph), an application can reconstruct any past version, diff
between versions, branch off a historical state, and show who wrote what —
the paper highlights this as a benefit of storing the event graph (§6).

The currency for all of it is the **id-based version handle**
(:class:`repro.history.Version`), returned by ``Document.version()``: a
frozen frontier of character ids that stays exact across later edits,
sender-side run coalescing (runs extended in place), re-carved interop syncs
and storage round trips.  This example builds a document with two authors and
a concurrent branch, then:

* saves version handles mid-session and reconstructs their texts later,
* diffs between saved versions (cheap walker work, not a full replay),
* compares versions under the causal partial order (meet / join),
* checks out a historical version as an editable branch, and
* saves/loads history *and handles* through the columnar storage format,
  proving the reloaded file supports the same time travel.

Run with::

    python examples/history_browsing.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro import Document, apply_ops
from repro.history import History
from repro.storage import (
    ContainerOptions,
    LazyDecodedFile,
    decode_version,
    encode_event_graph_v3,
    encode_version,
)


def main() -> None:
    alice = Document("alice")
    alice.insert(0, "Minutes of the meeting. ")
    draft = alice.version()  # a stable handle: save it, send it, persist it
    alice.insert(len(alice.text), "Attendees: alice. ")

    # Bob joins, and the two edit concurrently for a while.
    bob = Document("bob")
    bob.merge(alice)
    bob.insert(len(bob.text), "Attendees: bob. ")
    alice.insert(len(alice.text), "Agenda: event graphs. ")
    fork_alice = alice.version()  # two concurrent views of the document
    fork_bob = bob.version()
    alice.merge(bob)
    bob.merge(alice)
    bob.delete(0, 8)                      # "Minutes " -> trimmed
    bob.insert(0, "Notes ")
    alice.merge(bob)
    final = alice.version()

    print(f"final document ({len(alice.text)} chars): {alice.text!r}\n")

    # --- time travel through saved handles ---------------------------------
    print("document at saved versions (reconstructed after all later edits):")
    for name, version in [
        ("draft", draft),
        ("alice's fork", fork_alice),
        ("bob's fork", fork_bob),
        ("final", final),
    ]:
        print(f"  {name:13s}: {alice.text_at(version)[:58]!r}")

    # --- version algebra ----------------------------------------------------
    history = alice.history
    print(f"\ndraft vs final        : {history.compare(draft, final)}")
    print(f"alice fork vs bob fork: {history.compare(fork_alice, fork_bob)}")
    meet = history.meet(fork_alice, fork_bob)
    print(f"common ancestor text  : {alice.text_at(meet)[:58]!r}")

    # --- diffs between versions --------------------------------------------
    ops = alice.diff(draft, fork_alice)
    print(f"\ndiff draft -> alice's fork: {len(ops)} operation(s)")
    for op in ops:
        kind = "insert" if op.is_insert else "delete"
        print(f"  {kind} @{op.pos}: {op.content[:40]!r}" if op.is_insert
              else f"  {kind} @{op.pos} x{op.length}")
    assert apply_ops(alice.text_at(draft), ops) == alice.text_at(fork_alice)

    # --- branching from history --------------------------------------------
    branch = alice.checkout(draft, agent="editor")
    branch.insert(len(branch.text), "(approved) ")
    print(f"\nbranch from draft     : {branch.text!r}")
    alice.merge(branch)  # a checkout is a full replica: it merges back
    print(f"after merging branch  : {alice.text[:70]!r}")

    # --- per-author statistics ---------------------------------------------
    inserts: dict[str, int] = {}
    deletes: dict[str, int] = {}
    for event in alice.oplog.graph.events():
        bucket = inserts if event.op.is_insert else deletes
        bucket[event.id.agent] = bucket.get(event.id.agent, 0) + 1
    print("\nper-author contribution (events):")
    for agent in sorted(set(inserts) | set(deletes)):
        print(
            f"  {agent:6s}: {inserts.get(agent, 0):4d} insertions, "
            f"{deletes.get(agent, 0):3d} deletions"
        )

    # --- persistence round trip --------------------------------------------
    data = encode_event_graph_v3(
        alice.oplog.graph,
        ContainerOptions(include_snapshot=True, final_text=alice.text),
    )
    saved_handle = encode_version(draft)  # handles persist independently
    lazy = LazyDecodedFile(data)
    print(f"\nhistory file: {len(data)} bytes (columnar container, snapshot column), "
          f"saved handle: {len(saved_handle)} bytes")
    # Selective read: the current text costs only the snapshot column.
    print(f"fast load from snapshot column: {lazy.text == alice.text} "
          f"({lazy.stats.bytes_read} of {len(data)} bytes read, "
          f"{lazy.stats.events_materialised} events materialised)")
    # History access hydrates the remaining columns, exactly once.
    reloaded = lazy.history
    print(f"time travel after reload works: "
          f"{reloaded.text_at(decode_version(saved_handle)) == alice.text_at(draft)} "
          f"(hydrations: {lazy.stats.hydrations})")


if __name__ == "__main__":
    main()
