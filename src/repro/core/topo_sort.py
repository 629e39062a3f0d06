"""Branch-aware topological sorting of event graphs (paper §3.2, §3.7).

Eg-walker replays events in a topologically sorted order.  Any such order
yields the same final document (Appendix C), but the choice of order affects
performance: alternating between concurrent branches forces the walker to
retreat and advance events over and over, whereas visiting each branch as one
consecutive run only pays the retreat/advance cost once per branch.  The
heuristic from the paper is implemented here: do a depth-first style traversal
starting from the oldest events, keep extending the current run for as long as
the next event's only parent is the previously emitted event, and when a
choice must be made prefer the branch with the fewest estimated descendants so
that small branches are emitted (and retired) before large ones.

:func:`sort_branch_aware` is the only order the merge engine and the
reference replay use.  The walker takes any topological order its caller
builds (:meth:`repro.core.walker.EgWalker.transform`); the deliberately poor
orders of the sort-order ablation (§4.3) live with the benchmarks, in
:mod:`repro.bench.harness`.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from .event_graph import EventGraph

__all__ = ["sort_branch_aware", "estimate_descendants", "is_topological_order"]


def _restricted_children(
    graph: EventGraph, events: Sequence[int], event_set: set[int]
) -> dict[int, list[int]]:
    """Children restricted to the event subset being sorted."""
    children: dict[int, list[int]] = {idx: [] for idx in events}
    for idx in events:
        for child in graph.children_of(idx):
            if child in event_set:
                children[idx].append(child)
    return children


def _restricted_parent_counts(
    graph: EventGraph, events: Sequence[int], event_set: set[int]
) -> dict[int, int]:
    """Number of parents each event has *within* the subset being sorted."""
    counts: dict[int, int] = {}
    for idx in events:
        counts[idx] = sum(1 for p in graph.parents_of(idx) if p in event_set)
    return counts


def estimate_descendants(graph: EventGraph, events: Sequence[int]) -> dict[int, int]:
    """Estimate, for each event, how many events happened after it.

    The paper's heuristic orders sibling branches by the number of events that
    happened after each branch head.  Computing exact descendant counts is
    quadratic, so — like the reference implementation — we use an estimate:
    processing events in reverse topological order, each event's estimate is
    one plus the sum of its children's estimates.  Shared descendants are
    counted multiple times, which is fine for a tie-breaking heuristic.
    """
    event_set = set(events)
    children = _restricted_children(graph, events, event_set)
    estimates: dict[int, int] = {}
    for idx in sorted(events, reverse=True):
        total = 1
        for child in children[idx]:
            total += estimates.get(child, 1)
        estimates[idx] = total
    return estimates


def sort_branch_aware(graph: EventGraph, events: Iterable[int]) -> list[int]:
    """The paper's branch-aware topological sort.

    Produces an order in which events on the same branch are consecutive as
    much as possible, and when several branches are ready the one with the
    smallest estimated size is emitted first.
    """
    events = sorted(events)
    if not events:
        return []
    event_set = set(events)
    children = _restricted_children(graph, events, event_set)
    pending_parents = _restricted_parent_counts(graph, events, event_set)
    estimates = estimate_descendants(graph, events)

    # Ready events, keyed by (estimated branch size, local index) so that
    # heapq pops small branches first and breaks ties deterministically.
    ready: list[tuple[int, int]] = []
    for idx in events:
        if pending_parents[idx] == 0:
            heapq.heappush(ready, (estimates[idx], idx))

    order: list[int] = []
    emitted: set[int] = set()
    last: int | None = None
    while ready or last is not None:
        chosen: int | None = None
        # Prefer to continue the current linear run: if the previously emitted
        # event has a ready child whose only in-subset parent is that event,
        # take it without consulting the heap.  This keeps branches contiguous
        # even when the heap holds other ready events.
        if last is not None:
            for child in children[last]:
                if child not in emitted and pending_parents[child] == 0:
                    parents_in_set = [
                        p for p in graph.parents_of(child) if p in event_set
                    ]
                    if parents_in_set == [last]:
                        chosen = child
                        break
        if chosen is None:
            while ready:
                _, idx = heapq.heappop(ready)
                if idx not in emitted and pending_parents[idx] == 0:
                    chosen = idx
                    break
            if chosen is None:
                break
        order.append(chosen)
        emitted.add(chosen)
        last = chosen
        for child in children[chosen]:
            pending_parents[child] -= 1
            if pending_parents[child] == 0 and child != chosen:
                heapq.heappush(ready, (estimates[child], child))
    if len(order) != len(events):  # pragma: no cover - defensive
        raise RuntimeError("topological sort failed to cover all events")
    return order


def is_topological_order(graph: EventGraph, order: Sequence[int]) -> bool:
    """Check that ``order`` respects the happened-before relation."""
    position = {idx: i for i, idx in enumerate(order)}
    member = set(order)
    for idx in order:
        for p in graph.parents_of(idx):
            if p in member and position[p] >= position[idx]:
                return False
    return True
