"""Eg-walker: collaborative text editing via event graph replay.

A from-scratch Python reproduction of *Collaborative Text Editing with
Eg-walker: Better, Faster, Smaller* (Gentle & Kleppmann, EuroSys 2025),
including the Eg-walker algorithm itself, the substrates it depends on (event
graphs, order-statistic trees, ropes, causal broadcast, columnar storage), the
baselines it is evaluated against (a reference list CRDT, Automerge-like and
Yjs-like CRDTs, and a TTF-based OT implementation), synthetic editing traces
matching the paper's benchmark suite, and the harness that regenerates every
table and figure of the paper's evaluation.

Quickstart::

    from repro import Document

    alice = Document("alice")
    bob = Document("bob")

    alice.insert(0, "Helo")
    bob.merge(alice)

    alice.insert(3, "l")        # "Hello"
    bob.insert(4, "!")          # "Helo!"

    alice.merge(bob)
    bob.merge(alice)
    assert alice.text == bob.text == "Hello!"
"""

from .core import (
    Document,
    EgWalker,
    Event,
    EventGraph,
    EventId,
    Operation,
    OpKind,
    OpLog,
    RemoteEvent,
    ReplayResult,
    delete_op,
    insert_op,
)
from .history import ROOT, History, Version, apply_ops
from .rope import Rope

__version__ = "1.0.0"

__all__ = [
    "Document",
    "EgWalker",
    "Event",
    "EventGraph",
    "EventId",
    "History",
    "Operation",
    "OpKind",
    "OpLog",
    "RemoteEvent",
    "ReplayResult",
    "ROOT",
    "Rope",
    "Version",
    "apply_ops",
    "delete_op",
    "insert_op",
    "__version__",
]
