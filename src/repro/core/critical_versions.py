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

    Parents are read in bulk (:meth:`EventGraph.to_columns`).  A prefix
    ``range(k)`` of the local order (what :meth:`CriticalCutTracker.rebuild`
    passes for a history that is not linear) is its own position map, and a chain step (a one-head frontier
    that the event names) moves that head without touching the frontier
    set, so a sequential history allocates nothing per event.
    """
    prefix = isinstance(order, range) and order.start == 0 and order.step == 1
    position = None if prefix else {idx: i for i, idx in enumerate(order)}
    _, parent_columns, _ = graph.to_columns(order)
    alive: list[int] = []
    #: Heads (as positions) of every multi-head prefix frontier seen.
    heads: dict[int, frozenset[int]] = {}
    #: The prefix frontier: ``single`` while it is one head, else ``frontier``.
    frontier: set[int] = set()
    single = -1
    for i, parents in enumerate(parent_columns):
        if position is not None:
            parents = tuple([position[p] for p in parents if p in position])
            top = max(parents) if parents else -1
        else:
            top = parents[-1] if parents else -1
        while alive and alive[-1] > top:
            alive.pop()
        if top in heads and alive and alive[-1] == top and not heads[top].issubset(parents):
            alive.pop()
        alive.append(i)
        if single < 0 or top != single:
            if single >= 0:
                frontier = {single}
            frontier.difference_update(parents)
            frontier.add(i)
            if len(frontier) > 1:
                heads[i] = frozenset(frontier)
                single = -1
                continue
        single = i
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

    **Storage: runs of consecutive cuts.**  The cuts are kept as maximal
    runs of consecutive positions, each stored as the handles of its first
    and last event (:meth:`EventGraph.handle_at`) in two 32-bit columns
    sorted by position.  A linear history is one run, whatever its length;
    an append that keeps its predecessor's cut extends the last run in O(1),
    and the deaths an append causes are a truncation of the run list.  Only
    a run's first cut can have several heads (a cut right after another cut
    is single-headed: the event after a critical prefix descends from all
    of it), so ``_heads`` holds an entry for a run's first handle at most.

    Handles, not positions, so "the cut after event X" survives any number
    of splits elsewhere without bookkeeping.  A split inside a run leaves
    the run valid (the twin lands inside it), a split of its last event
    moves the run's end to the right half, and a multi-head cut that opens a
    run moves its start there.  The runs stay sorted by *current* position
    because order labels are comparison-stable (:meth:`EventGraph.order_key`),
    so every query is a bisect over run starts; the external API still
    speaks positions.

    The tracker registers itself as a listener on the graph
    (:meth:`EventGraph.add_listener`) and must be attached while the graph is
    empty, or be explicitly :meth:`rebuild` from the current state.
    """

    def __init__(self, graph: EventGraph, *, attach: bool = True) -> None:
        self.graph = graph
        #: Handles of the first and of the last event of each maximal run of
        #: consecutive cut positions ("the cut after event X" for every X
        #: from first to last), sorted by current local position.
        self._first = array("i")
        self._last = array("i")
        #: Cut handle -> handles of its version's heads, multi-head cuts only
        #: (a cut without an entry has the single head X).
        self._heads: dict[int, tuple[int, ...]] = {}
        if len(graph) > 0:
            self.rebuild()
        if attach:
            graph.add_listener(self)

    def _run_at(self, position: int) -> int:
        """Index of the last run starting at or before ``position`` (a local
        position of the graph), ``-1`` if none."""
        graph = self.graph
        key = graph.order_key
        return bisect.bisect_right(self._first, key(graph.handle_at(position)), key=key) - 1

    def _truncate(self, keep: int) -> None:
        """Drop every run from the ``keep``-th on."""
        first = self._first
        if keep < len(first):
            if self._heads:
                for dead in first[keep:]:
                    self._heads.pop(dead, None)
            del first[keep:]
            del self._last[keep:]

    # -- listener hooks -------------------------------------------------
    def event_added(self, event: Event) -> None:
        graph = self.graph
        first, last, heads = self._first, self._last, self._heads
        parents = event.parents
        extends = False
        if not parents:
            self._truncate(0)
        else:
            top = parents[-1]
            latest = graph.handle_at(top)
            # Cuts strictly after the event's latest parent die — none, in the
            # common case where the newest cut *is* that parent (no search).
            if not last or last[-1] != latest:
                run = self._run_at(top)
                self._truncate(run + 1)
                if run >= 0 and graph.index_of_handle(last[run]) > top:
                    last[run] = latest
            # The cut at the latest parent survives iff the event names all
            # of its heads (a single head is that parent itself); a
            # multi-head cut is the only cut of its run here.
            if last and last[-1] == latest and latest in heads:
                if not set(heads[latest]) <= set(map(graph.handle_at, parents)):
                    self._truncate(len(first) - 1)
            # The event's own cut continues the last run iff that run now
            # ends right before it.
            extends = bool(last) and last[-1] == latest and top == len(graph) - 2
        handle = event.handle
        if extends:
            last[-1] = handle
        else:
            first.append(handle)
            last.append(handle)
        frontier = graph.frontier_handles
        if len(frontier) > 1:
            heads[handle] = frontier

    def event_split(self, index: int) -> None:
        graph = self.graph
        heads = self._heads
        left, right = graph.handle_at(index), graph.handle_at(index + 1)
        # The left half keeps the split run's handle, so a stored cut "after
        # the whole run" now reads "after the left half".  A single-head one
        # gains its twin after the right half, inside its run unless the run
        # ended there; a multi-head one (its run's first cut) moves to the
        # right half.  Every other cut is keyed by an untouched handle.
        run = self._run_at(index)
        if run >= 0 and graph.index_of_handle(self._last[run]) >= index:
            if self._last[run] == left:
                self._last[run] = right
            if left in heads:
                self._first[run] = right
                heads[right] = heads.pop(left)
        # The run as a head of a multi-head cut: it had no child inside that
        # cut's prefix and (the cut being critical) one right after it.
        children = graph.children_of(index + 1)
        holder = graph.handle_at(min(children, default=len(graph)) - 1)
        if left in heads.get(holder, ()):
            heads[holder] = tuple(right if h == left else h for h in heads[holder])

    def event_extended(self, index: int, added_length: int) -> None:
        return None  # run lengths do not affect criticality

    # -- queries --------------------------------------------------------
    def runs(self) -> list[tuple[int, int]]:
        """The cut positions as maximal runs ``(first, last)`` of
        consecutive positions, ascending."""
        index_of = self.graph.index_of_handle
        return [(index_of(a), index_of(b)) for a, b in zip(self._first, self._last)]

    def cuts(self) -> list[int]:
        """The current critical cut positions, ascending (a copy)."""
        return [p for a, b in self.runs() for p in range(a, b + 1)]

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
        root.  O(log runs)."""
        if position <= 0 or not self._first:
            return None
        below = min(position, len(self.graph)) - 1
        run = self._run_at(below)
        return min(below, self.graph.index_of_handle(self._last[run])) if run >= 0 else None

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
        the walker).  O(log runs): the runs are maximal, so the answer is the
        end of the run holding ``position``.
        """
        if not 0 <= position < len(self.graph):
            return position - 1
        run = self._run_at(position)
        end = self.graph.index_of_handle(self._last[run]) if run >= 0 else -1
        return end if end >= position else position - 1

    def rebuild(self) -> None:
        """Recompute from scratch (O(n); only used when attaching late).  A
        linear history is one run, found without a pass over its parents."""
        graph = self.graph
        n = len(graph)
        self._heads = {}
        if graph.is_linear():
            self._first = array("i", [0] if n else [])
            self._last = array("i", [n - 1] if n else [])
            return
        first, last = array("i"), array("i")
        previous = -2
        for position, version in critical_cut_positions(graph, range(n)).items():
            handle = graph.handle_at(position)
            if position == previous + 1:
                last[-1] = handle
            else:
                first.append(handle)
                last.append(handle)
            if len(version) > 1:
                self._heads[handle] = tuple(map(graph.handle_at, version))
            previous = position
        self._first, self._last = first, last
