"""Critical version detection (paper §3.5).

A version ``V`` is *critical* in an event graph ``G`` iff it partitions the
graph into ``G1 = Events(V)`` and ``G2 = G - G1`` such that every event in
``G1`` happened before every event in ``G2``.  Critical versions are the key
to Eg-walker's performance on mostly-sequential histories: whenever the walker
crosses one it can throw away its internal CRDT state, and when an event's own
version *and* its parent version are both critical the event needs no
transformation at all.

A critical version is a *version* — the frontier of a prefix, one head or
several.  Two authors typing at once end every exchange in a two-head
frontier ``{a_k, b_k}`` that both authors' next events name as parents: that
version is critical although neither head alone is.

This module computes, for a given topologically sorted sequence of events, the
positions after which the prefix's version is critical (with respect to that
event subset) together with those versions.  The characterisation used is
proved in the docstring of :func:`critical_cut_positions`; it finds all cuts
in a single linear pass instead of the quadratic ancestor-set comparison
implied by the definition, and :class:`CriticalCutTracker` maintains the same
set incrementally for a graph's local order.
"""

from __future__ import annotations

import bisect
from array import array
from typing import Sequence

from .event_graph import ROOT_VERSION, Event, EventGraph, Version

__all__ = ["critical_cut_positions", "CriticalCutTracker"]


def critical_cut_positions(graph: EventGraph, order: Sequence[int]) -> dict[int, Version]:
    """The critical cuts of ``order``: ``{position: version}``, ascending.

    The cut after position ``i`` splits ``order`` into a prefix ``order[:i+1]``
    and a suffix.  It is critical iff every suffix event has **every** prefix
    event as an ancestor; its version is the prefix's frontier ``F_i`` (the
    prefix events with no child inside the prefix; ``order[i]`` is always one
    of them), given as a sorted tuple of event indices.

    Every prefix event is an ancestor-or-self of some head in ``F_i``, and a
    head has no descendant inside the prefix, so a suffix event ``j`` whose
    parents all sit in the prefix descends from all of it iff its parents
    include all of ``F_i``.  By induction along the suffix, a ``j`` with a
    parent *inside* the suffix inherits the property from that parent.  With
    ``top(j)`` the largest position of ``j``'s parents (``-1`` if it has
    none), the cut after ``i`` is therefore critical iff for every ``j > i``

    * ``top(j) > i``, or
    * ``top(j) == i`` and ``parents(j) ⊇ F_i``

    (``top(j) < i`` fails outright: position ``i`` itself is a head that
    ``j`` does not name).  A single forward pass keeps the surviving cuts as
    a stack: appending ``j`` kills the cuts above ``top(j)``, tests the one
    at ``top(j)`` against its recorded heads, leaves earlier ones alone, and
    pushes ``j`` — the cut after the last position has an empty suffix and
    is always critical.

    Only events inside ``order`` are considered; parents outside the subset
    are ignored, which is what partial replay needs (§3.6): criticality there
    is relative to the replayed range.
    """
    position = {idx: i for i, idx in enumerate(order)}
    alive: list[int] = []
    #: Heads (as positions) of every multi-head prefix frontier seen.
    heads: dict[int, frozenset[int]] = {}
    frontier: set[int] = set()
    for i, idx in enumerate(order):
        parents = [position[p] for p in graph.parents_of(idx) if p in position]
        top = max(parents) if parents else -1
        while alive and alive[-1] > top:
            alive.pop()
        if top in heads and alive and alive[-1] == top and not heads[top].issubset(parents):
            alive.pop()
        alive.append(i)
        frontier.difference_update(parents)
        frontier.add(i)
        if len(frontier) > 1:
            heads[i] = frozenset(frontier)
    return {
        c: tuple(sorted(order[h] for h in heads[c])) if c in heads else (order[c],)
        for c in alive
    }


class CriticalCutTracker:
    """Incrementally tracked critical cuts of a graph's *local order*.

    :func:`critical_cut_positions` answers the question for an arbitrary
    order with a linear pass; a live replica asks it about the same,
    append-only local order after every single merge, which turns O(n) per
    query into O(n²) per session.  This tracker maintains the exact same
    cuts with O(1) amortized work per appended event, by exploiting how they
    evolve under the three mutations an :class:`EventGraph` performs:

    * **append** of an event ``n`` with parents ``P`` (the forward-pass step
      of :func:`critical_cut_positions`):

      - every cut at a position ``> max(P)`` dies (``n`` does not name the
        head at that position); if ``P`` is empty, *every* cut dies (the new
        root is concurrent with all of history).
      - the cut **at** ``max(P)`` survives iff ``P`` contains all of its
        heads; cuts before ``max(P)`` are untouched (``n`` inherits them
        from its latest parent).
      - ``n`` itself becomes a cut whose heads are the graph frontier (its
        suffix is empty).  Such a tail cut is *transient* until the next
        append has tested it.  No other position can *become* critical:
        prefixes never change, and suffixes only grow.

      Each cut is appended at most once and removed at most once, hence O(1)
      amortized (the removals are a tail truncation of a sorted list).  Heads
      are stored only for multi-head cuts, so a sequential history allocates
      nothing beyond its one list entry per event.

    * **split** of the run at ``index`` (interop re-carving, a semantic
      no-op): the right half's only parent is the left half and every other
      reference to the run moves to the right half.  A single-head cut after
      the whole run becomes a cut after the *right half* and gains a twin
      after the left half.  A multi-head cut just moves to the right half —
      the cut after the left half still has the other heads, which the right
      half does not name.  A stored head naming the run re-points to the
      right half; only one cut can hold it (the one just before the run's
      first child, or the tail cut), so this is a lookup, not a scan.

    * **in-place extension** of the frontier run (sender-side coalescing):
      no event set changes, so the cuts are untouched.

    Cuts are stored as **stable event handles** (:meth:`EventGraph.handle_at`),
    not positions: "the cut after event X" survives any number of splits
    elsewhere in the order without bookkeeping, so :meth:`event_split` is
    O(log cuts + children of the split run) instead of the O(cuts)
    shift-everything loop a position-keyed list needs (which made a single
    interop split O(n) on a mostly-sequential history, where nearly every
    position is a cut).  The handle list stays sorted by *current* position
    because order labels are comparison-stable (:meth:`EventGraph.order_key`);
    the external API still speaks positions.

    The tracker registers itself as a listener on the graph
    (:meth:`EventGraph.add_listener`) and must be attached while the graph is
    empty, or be explicitly :meth:`rebuild` from the current state.
    """

    def __init__(self, graph: EventGraph, *, attach: bool = True) -> None:
        self.graph = graph
        #: Event handles whose prefix version is critical ("the cut after
        #: event X"), kept sorted by current local position (equivalently, by
        #: live order label); an array, like the graph's own columns.
        self._cuts = array("q")
        #: Cut handle -> handles of its version's heads, multi-head cuts only
        #: (a cut without an entry has the single head X).
        self._heads: dict[int, tuple[int, ...]] = {}
        if len(graph) > 0:
            self.rebuild()
        if attach:
            graph.add_listener(self)

    def _bisect_position(self, position: int) -> int:
        """Index into ``_cuts`` of the first cut at a position ``>= position``."""
        graph = self.graph
        if position >= len(graph):
            return len(self._cuts)
        return bisect.bisect_left(
            self._cuts, graph.order_key(graph.handle_at(position)), key=graph.order_key
        )

    # -- listener hooks -------------------------------------------------
    def event_added(self, event: Event) -> None:
        graph = self.graph
        cuts = self._cuts
        heads = self._heads
        parents = event.parents
        latest = graph.handle_at(parents[-1]) if parents else None
        # Cuts strictly after the event's latest parent die — none, in the
        # common case where the newest cut *is* that parent (no search then).
        if not cuts or cuts[-1] != latest:
            keep = self._bisect_position(parents[-1] + 1) if parents else 0
            if keep < len(cuts):
                if heads:
                    for dead in cuts[keep:]:
                        heads.pop(dead, None)
                del cuts[keep:]
        # The cut at the latest parent survives iff the event names all of
        # its heads (a single head is that parent itself).
        if cuts and cuts[-1] in heads and cuts[-1] == latest:
            if not set(heads[cuts[-1]]) <= {graph.handle_at(p) for p in parents}:
                del heads[cuts.pop()]
        cuts.append(event.handle)
        frontier = graph.frontier_handles
        if len(frontier) > 1:
            heads[event.handle] = frontier

    def event_split(self, index: int) -> None:
        graph = self.graph
        heads = self._heads
        left, right = graph.handle_at(index), graph.handle_at(index + 1)
        # The left half keeps the split run's handle, so a stored cut "after
        # the whole run" now reads "after the left half".  Nothing else
        # moves: every other cut is keyed by an untouched handle.
        pos = bisect.bisect_left(self._cuts, graph.order_key(left), key=graph.order_key)
        if pos < len(self._cuts) and self._cuts[pos] == left:
            if left in heads:
                self._cuts[pos] = right
                heads[right] = heads.pop(left)
            else:
                self._cuts.insert(pos + 1, right)
        # The run as a head of a multi-head cut: it had no child inside that
        # cut's prefix and (the cut being critical) one right after it.
        children = graph.children_of(index + 1)
        holder = graph.handle_at(min(children, default=len(graph)) - 1)
        if left in heads.get(holder, ()):
            heads[holder] = tuple(right if h == left else h for h in heads[holder])

    def event_extended(self, index: int, added_length: int) -> None:
        return None  # run lengths do not affect criticality

    # -- queries --------------------------------------------------------
    def cuts(self) -> list[int]:
        """The current critical cut positions, ascending (a copy)."""
        return [self.graph.index_of_handle(h) for h in self._cuts]

    def version_at(self, position: int | None) -> Version:
        """The critical version of the cut at ``position`` (which must be a
        tracked cut); the root version for ``None``.  O(heads log n)."""
        if position is None:
            return ROOT_VERSION
        heads = self._heads.get(self.graph.handle_at(position))
        if heads is None:
            return (position,)
        return tuple(sorted(map(self.graph.index_of_handle, heads)))

    def latest_cut_before(self, position: int) -> int | None:
        """The largest cut position strictly smaller than ``position``, or
        ``None`` when a partial replay ending there must start from the
        root.  O(log n)."""
        idx = self._bisect_position(position)
        return self.graph.index_of_handle(self._cuts[idx - 1]) if idx > 0 else None

    def critical_run_end(self, position: int) -> int:
        """The end of the consecutive run of critical cuts starting at
        ``position``: the largest ``m`` such that every position
        ``position .. m`` is a cut, or ``position - 1`` if ``position``
        itself is not one.

        This is the sequential fast-path test of the merge engine: an event
        whose own cut and the cut before it are both critical applies
        verbatim, so from the cut just before a batch it peels the
        sequential prefix off (batched delivery can hand the engine
        sequential events followed by a concurrent tail; only the tail needs
        the walker).  Every cut of a run but its first is single-headed.
        O(log cuts + run length).
        """
        graph = self.graph
        n = len(graph)
        idx = self._bisect_position(position)
        end = position - 1
        while (
            idx < len(self._cuts)
            and end + 1 < n
            and self._cuts[idx] == graph.handle_at(end + 1)
        ):
            end += 1
            idx += 1
        return end

    def rebuild(self) -> None:
        """Recompute from scratch (O(n); only used when attaching late)."""
        graph = self.graph
        cuts = critical_cut_positions(graph, range(len(graph)))
        self._cuts = array("q", map(graph.handle_at, cuts))
        self._heads = {
            graph.handle_at(p): tuple(map(graph.handle_at, version))
            for p, version in cuts.items()
            if len(version) > 1
        }
