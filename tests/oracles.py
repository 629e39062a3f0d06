"""The per-character oracle the test modules share.

A plain module rather than a ``conftest.py`` helper: the tier-1 run
collects ``tests/`` and ``benchmarks/`` together, and both have a
``conftest.py``, so ``from conftest import …`` would resolve to whichever
was imported last.  Test modules import it with
``from oracles import per_char_text``.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.causal_graph import CausalGraph
from repro.core.event_graph import EventGraph, expand_to_chars
from repro.core.ids import EventId
from repro.core.topo_sort import sort_branch_aware
from repro.core.walker import EgWalker

__all__ = ["per_char_text"]


def per_char_text(graph: EventGraph, version: Iterable[EventId] | None = None) -> str:
    """The text of ``graph`` at ``version`` (the character ids of its heads;
    default: the frontier), replayed from ``graph`` expanded to one event per
    character (:func:`expand_to_chars`) by the walker alone, without
    clearing — so it shares no run-length, critical-run or clearing code
    with the merge engine it checks."""
    expanded = expand_to_chars(graph)
    if version is None:
        events: Iterable[int] = range(len(expanded))
    else:
        heads = tuple(sorted({expanded.index_of(eid) for eid in version}))
        events = CausalGraph(expanded).ancestors(heads)
    order = sort_branch_aware(expanded, events)
    return EgWalker(expanded).transform(order, clearing=False).text()
