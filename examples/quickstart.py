"""Quickstart: two users collaboratively editing a document with Eg-walker.

This walks through the scenario of Figure 1 in the paper: starting from the
shared text "Helo", user 1 fixes the typo while user 2 appends an exclamation
mark, concurrently.  Both replicas merge each other's events and converge to
"Hello!" — with the exclamation mark in the right place even though user 1
never saw user 2's index.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro import Document


def main() -> None:
    # Each user edits their own replica; no server is involved.
    user1 = Document("user1")
    user2 = Document("user2")

    # User 1 types the initial text and user 2 receives it.
    user1.insert(0, "Helo")
    user2.merge(user1)
    print(f"after initial sync : user1={user1.text!r}  user2={user2.text!r}")

    # Now both users edit *concurrently*.
    user1.insert(3, "l")   # "Helo" -> "Hello"
    user2.insert(4, "!")   # "Helo" -> "Helo!"
    print(f"concurrent edits   : user1={user1.text!r}  user2={user2.text!r}")

    # They exchange their events (in any order) and both converge.
    ops_for_user1 = user1.merge(user2)
    ops_for_user2 = user2.merge(user1)
    print(f"after merging      : user1={user1.text!r}  user2={user2.text!r}")
    print(f"transformed op applied at user1: {ops_for_user1}")
    print(f"transformed op applied at user2: {ops_for_user2}")
    assert user1.text == user2.text == "Hello!"

    # The whole editing history is retained, so any past version can be
    # shown.  Versions are stable, id-based handles (repro.history.Version):
    # they keep meaning the same text no matter what is edited later.
    print("\ndocument history at user1:")
    for version in user1.versions():
        print(f"  {version}: {user1.text_at(version)!r}")

    # The history can be persisted with the compact columnar format of §3.8.
    from repro.storage import ContainerOptions, encode_event_graph_v3

    data = encode_event_graph_v3(
        user1.oplog.graph,
        ContainerOptions(include_snapshot=True, final_text=user1.text),
    )
    print(f"\non-disk size of the full history + cached text: {len(data)} bytes")


if __name__ == "__main__":
    main()
