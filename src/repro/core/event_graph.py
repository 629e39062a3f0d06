"""The event graph: an append-only DAG of editing events (paper §2.2, §4).

Every replica stores the full editing history of a document as a directed
acyclic graph.  Each node is an :class:`Event` holding an insert or delete
**run** (one or more consecutive characters — the native unit of the whole
pipeline, matching the paper's run-length encoded storage and replay), a
globally unique :class:`~repro.core.ids.EventId` naming the run's first
character, and the set of ids of its parent events.  Character ``k`` of a run
event has id ``event.id.advance(k)`` and is addressable locally as
``(event_index, offset)``.  The graph is transitively reduced by construction:
a new event's parents are always the frontier of the graph as the generating
replica saw it.

Run boundaries are a **local encoding detail**, not a protocol invariant:
two replicas may carve the same per-character history into different runs
(e.g. one batched a paragraph into a single run while a peer received it in
two deliveries).  Locally a run event is stored whole, but ingesting a remote
run that only partially overlaps stored coverage *splits* runs on either side
until the two carvings agree (:meth:`EventGraph.ingest_run`), and a remote
parent reference to a mid-run character splits the stored run at that
boundary so the dependency covers exactly the referenced prefix
(:meth:`EventGraph.dependency_index`).  In replicated form a parent id names
the **last** character the event depends on; within a trusted local graph
(:meth:`EventGraph.add_event`) any character of a run still identifies the
whole run, because locally-created runs are only ever depended on whole.

Storage layout — integer columns keyed by **stable event handles**
------------------------------------------------------------------

Algorithms address events by their integer position in the local topological
order (the *local index*; versions are sorted tuples of local indices).  But
local indices shift whenever an interop split inserts a right half mid-order,
so indices cannot be the storage key: the original row-of-objects layout
paid an O(n) Python re-indexing pass per split, and every listener had to
shift its own bookkeeping in lockstep.

The graph therefore separates *identity* from *position*:

* Each event gets a **handle** — a small integer allocated once and never
  reused or renumbered.  All per-event data lives in parallel columns
  indexed by handle — the columnar layout the storage format has on disk,
  here as the in-memory representation, at one machine word per event per
  column.  ``_h_id`` / ``_h_op`` are lists of references to the caller's
  :class:`~repro.core.ids.EventId` / :class:`~repro.core.ids.Operation`
  objects; every integer column (run length, order label, first parent,
  first child) is an ``array('q')``.
* **Parents and children are a first entry plus a side map.**  The first
  parent handle sits in ``_h_parent`` (−1 for a root) and the first child in
  ``_h_child`` (−1 for none); only the rare event with two or more parents
  (a merge) or children (a fork) has an entry in ``_more_parents`` /
  ``_more_children`` holding the rest.
* The local order is one array of handles (``_order``) plus a parallel array
  of strictly increasing **order labels**.  ``index → handle`` is an array
  lookup (O(1)); ``handle → index`` is a bisect over the labels (O(log n)).
  A split allocates the right half a label midway between its neighbours, so
  no existing label (and no listener keyed by handles) needs touching; label
  space is re-spread in the rare case two neighbours become adjacent.
* **Identity fast path.**  Appends allocate handles and positions in
  lockstep, so until the first split (``_gen == 0``) a handle *is* its
  index: :meth:`index_of_handle` and parent resolution return the stored
  handles as they are, with no bisect and no cache, and the label columns
  stay empty — the first split creates them.

:meth:`split_event` is then O(log n + degree) Python work: rewrite the
whole-run parent references of the split run's children (via the child
columns) and insert the right half's handle into the order — the only O(n)
residue is a few C-level array inserts.  Consumers that key off handles
(the merge engine's critical-cut tracker, the per-agent range map, the
frontier) do not shift anything.

:class:`Event` is a **view made on access** — ``(graph, handle)``, nothing
stored: two views of the same event compare and hash equal, ``event.index``
always reports the current position, and ``event.op`` / ``event.id`` /
``event.parents`` read the columns, so holding an ``Event`` across splits is
safe — it never goes stale.  Bulk readers (:meth:`EventGraph.to_columns`,
:meth:`EventGraph.id_spans`, :meth:`EventGraph.ingest_runs`) make no views.

:func:`expand_to_chars` converts a run graph into the equivalent
one-event-per-character graph — the representation the paper uses for
presentation, kept here as a correctness oracle for the run-length pipeline.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import accumulate
from operator import ge, lt
from typing import Iterable, Iterator, Sequence

from .ids import EventId, Operation, OpKind, delete_op, insert_op
from .range_map import RangeIndex

__all__ = ["Event", "EventGraph", "Version", "ROOT_VERSION", "expand_to_chars"]

#: A version (frontier) is a sorted tuple of local event indices.  The empty
#: tuple is the root version: the state of the document before any events.
Version = tuple[int, ...]

ROOT_VERSION: Version = ()

#: Gap left between consecutive order labels on append; a split bisects the
#: gap, so ~20 splits must land between the *same* two events before the
#: label space is re-spread (O(n), amortised away).
_LABEL_GAP = 1 << 20


def _check_parent_indices(refs: Sequence[int], index: int) -> None:
    """The one rule for an event's parents given as local indices: sorted,
    distinct, and inside ``[0, index)`` (``index`` = the event's own)."""
    if refs and (
        refs[0] < 0
        or refs[-1] >= index
        or (len(refs) > 1 and any(map(ge, refs, refs[1:])))
    ):
        raise ValueError(
            f"parents {tuple(refs)} of event {index} are not sorted, distinct "
            f"indices of earlier events"
        )


class Event:
    """A view of one run event in the graph — a stable, never-stale handle.

    Views are made on access and compare and hash by ``(graph, handle)``, so
    every view of an event is equal to every other.  All attributes read
    through to the graph's columns, so they are live:

    * ``index`` — the event's *current* local index (splits shift it);
    * ``id`` — globally unique ``(agent, seq)`` of the run's first character;
      the run covers seqs ``id.seq .. id.seq + op.length - 1``;
    * ``parents`` — current local indices of the parent events (sorted;
      empty tuple = generated against the empty document);
    * ``op`` — the run operation (shrinks on split, grows on extension);
    * ``handle`` — the graph-internal stable integer key.
    """

    __slots__ = ("graph", "handle")

    def __init__(self, graph: "EventGraph", handle: int) -> None:
        self.graph = graph
        self.handle = handle

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self.graph is other.graph and self.handle == other.handle

    def __hash__(self) -> int:
        return hash((id(self.graph), self.handle))

    @property
    def index(self) -> int:
        return self.graph.index_of_handle(self.handle)

    @property
    def id(self) -> EventId:
        return self.graph._h_id[self.handle]

    @property
    def parents(self) -> Version:
        return self.graph._parent_indices(self.handle)

    @property
    def op(self) -> Operation:
        return self.graph._h_op[self.handle]

    @property
    def num_chars(self) -> int:
        """Number of characters this event covers."""
        return self.graph._h_len[self.handle]

    @property
    def end_seq(self) -> int:
        """One past the seq of the run's last character."""
        return self.id.seq + self.graph._h_len[self.handle]

    def id_at(self, offset: int) -> EventId:
        """Id of the ``offset``-th character of this run."""
        if offset < 0 or offset >= self.graph._h_len[self.handle]:
            raise IndexError(f"offset {offset} out of range for event {self.index}")
        return self.id.advance(offset)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        op = self.op
        kind = "ins" if op.is_insert else "del"
        payload = repr(op.content) if op.is_insert else f"x{op.length}"
        return (
            f"Event({self.index}, {self.id.agent}:{self.id.seq}, "
            f"parents={list(self.parents)}, {kind}@{op.pos}{payload})"
        )


class EventGraph:
    """Append-only store of run events plus the id <-> index range mapping.

    The graph grows monotonically; events are never removed and an existing
    event's parents never change (paper §2.2).  Two replicas merge their
    graphs by taking the union of their event sets, which here is implemented
    by :meth:`add_remote_event` / :meth:`merge_from`.

    The id mapping is a *range map*: per agent, a sorted list of run start
    seqs resolving to event handles, so that any character id maps to
    ``(event_index, offset)`` in O(log runs) with O(runs) memory — not
    O(chars).  See the module docstring for the columnar, handle-keyed
    storage layout.
    """

    def __init__(self) -> None:
        # -- per-handle columns (indexed by handle) -------------------------
        self._h_id: list[EventId] = []  # first-char id
        self._h_op: list[Operation] = []  # operation payload
        self._h_len = array("q")  # run length (in sync with the op)
        self._h_label = array("q")  # order label (from the first split on)
        self._h_parent = array("q")  # first parent handle, -1 for a root
        self._h_child = array("q")  # first child handle, -1 for none
        #: The rest of a multi-parent event's parent handles, and of a
        #: multi-child event's child handles (append order).
        self._more_parents: dict[int, tuple[int, ...]] = {}
        self._more_children: dict[int, list[int]] = {}
        #: Splits so far; while 0, every handle is its own local index.
        self._gen = 0
        # -- the local order ----------------------------------------------
        self._order = array("q")  # handles in local (topological) order
        self._labels = array("q")  # _h_label along _order (ascending)
        # -- id range maps --------------------------------------------------
        #: Per-agent range map: run-start seq -> event handle, the handles
        #: in an array (shared RangeIndex machinery with the internal-state
        #: record index).
        self._agent_index: dict[str, RangeIndex[int]] = {}
        # -- aggregates ------------------------------------------------------
        self._frontier: list[int] = []  # handles of events with no children
        self._next_seq: dict[str, int] = {}
        self._num_chars = 0
        #: ``_cum_inserts[i]`` = total characters inserted by events ``0..i``
        #: (index-parallel, like ``_order``).  Kept in lockstep (O(1) per
        #: append/extension; splits insert one entry) so
        #: :meth:`inserted_chars_through` is O(1).  The history subsystem
        #: uses it as a safe upper bound on the document length at any
        #: version contained in a prefix, to size replay placeholders.
        self._cum_inserts = array("q")
        #: Structural-change observers (see :meth:`add_listener`).  Listeners
        #: are how incremental consumers (the merge engine's critical-cut
        #: tracker) stay in sync without rescanning the graph.
        self._listeners: list[object] = []

    @classmethod
    def from_columns(
        cls,
        ids: Sequence[EventId],
        parents: Sequence[tuple[int, ...]],
        ops: Sequence[Operation],
    ) -> "EventGraph":
        """The graph that ``add_event(ids[i], parents[i], ops[i],
        parents_are_indices=True)`` for ``i = 0 .. n-1`` builds — column for
        column — constructed in bulk (the storage decoder's constructor).

        On a fresh graph handle ``i`` *is* index ``i``, so the decoded
        columns are the handle-indexed columns verbatim and the derived ones
        (range maps, children, frontier, cumulative inserts) are whole-array
        operations instead of n rounds of per-event bookkeeping.
        Every check :meth:`add_event` makes is kept: each agent's id spans
        fresh and non-overlapping, every parent tuple sorted, de-duplicated
        and inside ``[0, own index)``.

        Raises:
            ValueError: if the columns disagree in length or fail a check.
        """
        n = len(ops)
        if len(ids) != n or len(parents) != n:
            raise ValueError(f"{len(ids)} ids and {len(parents)} parents for {n} ops")
        graph = cls()
        children, more_children = array("q", [-1]) * n, graph._more_children
        for handle, refs in enumerate(parents):
            _check_parent_indices(refs, handle)
            for parent in refs:
                if children[parent] < 0:
                    children[parent] = handle
                elif parent in more_children:
                    more_children[parent].append(handle)
                else:
                    more_children[parent] = [handle]
        lengths = array("q", [op.length for op in ops])
        seqs = [event_id.seq for event_id in ids]
        graph._h_id = list(ids)
        graph._h_op = list(ops)
        graph._h_len = lengths
        graph._h_parent = array("q", [refs[0] if refs else -1 for refs in parents])
        graph._more_parents = {
            handle: tuple(refs[1:]) for handle, refs in enumerate(parents) if len(refs) > 1
        }
        graph._h_child = children
        graph._order = array("q", range(n))
        graph._frontier = [handle for handle in range(n) if children[handle] < 0]
        graph._num_chars = sum(lengths)
        graph._cum_inserts = array(
            "q", accumulate(op.length if op.kind is OpKind.INSERT else 0 for op in ops)
        )
        by_agent: dict[str, list[int]] = {}
        for handle, event_id in enumerate(ids):
            by_agent.setdefault(event_id.agent, []).append(handle)
        for agent, handles in by_agent.items():
            handles.sort(key=seqs.__getitem__)
            starts = [seqs[handle] for handle in handles]
            ends = [seqs[handle] + lengths[handle] for handle in handles]
            if any(map(lt, starts[1:], ends)):
                raise ValueError(f"overlapping event id spans for agent {agent!r}")
            graph._agent_index[agent] = RangeIndex.from_sorted(
                lengths.__getitem__, starts, array("q", handles)
            )
            graph._next_seq[agent] = ends[-1]
        return graph

    def to_columns(
        self, indices: Iterable[int] | None = None
    ) -> tuple[list[EventId], list[tuple[int, ...]], list[Operation]]:
        """The inverse of :meth:`from_columns`: ids, sorted parent-index
        tuples and operations, each in local order (the storage encoder's
        view of the graph — three list builds, no :class:`Event` views).

        With ``indices`` the three lists are parallel to it instead: the bulk
        read of a replay, which visits the same events in its own order.
        """
        order = self._order
        handles = order if indices is None else [order[i] for i in indices]
        ids, ops = self._h_id, self._h_op
        if self._gen:
            parents = list(map(self._parent_indices, handles))
        else:
            first, more = self._h_parent, self._more_parents
            parents = [
                () if (p := first[h]) < 0 else (p, *more[h]) if h in more else (p,)
                for h in handles
            ]
        return [ids[h] for h in handles], parents, [ops[h] for h in handles]

    def id_spans(self, indices: Iterable[int] | None = None) -> list[tuple[EventId, int]]:
        """``(first-character id, run length)`` of each event in local order
        (or parallel to ``indices``): the graph's id coverage, without
        :class:`Event` views."""
        order = self._order
        handles = order if indices is None else [order[i] for i in indices]
        ids, lengths = self._h_id, self._h_len
        return [(ids[h], lengths[h]) for h in handles]

    # ------------------------------------------------------------------
    # Listeners
    # ------------------------------------------------------------------
    def add_listener(self, listener: object) -> None:
        """Register a structural-change observer.

        A listener may implement any of

        * ``event_added(event)`` — called after a new event is appended,
        * ``event_split(index)`` — called after the run at ``index`` was split
          in place (the right half now lives at ``index + 1`` and every later
          index shifted up by one; handles and order labels of existing
          events are untouched), and
        * ``event_extended(index, added_length)`` — called after the run at
          ``index`` grew in place by ``added_length`` characters (sender-side
          run coalescing; only ever the frontier run).

        Missing methods are simply skipped, so listeners only implement what
        they care about.  Listeners that key their bookkeeping by *handle*
        (:meth:`handle_at` / :meth:`order_key`) never need to shift anything
        on a split.
        """
        self._listeners.append(listener)

    def remove_listener(self, listener: object) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def _notify(self, method: str, *args: object) -> None:
        for listener in self._listeners:
            hook = getattr(listener, method, None)
            if hook is not None:
                hook(*args)

    # ------------------------------------------------------------------
    # Handles <-> indices
    # ------------------------------------------------------------------
    def handle_at(self, index: int) -> int:
        """The stable handle of the event currently at ``index``.  O(1).

        Handles are never reused or renumbered: they survive splits (the
        handle stays with the *left* half; the right half gets a fresh one),
        in-place extensions, and any amount of later growth.
        """
        return self._order[index]

    def index_of_handle(self, handle: int) -> int:
        """Current local index of the event with the given handle: the handle
        itself until the first split (O(1)), a bisect over the labels after
        (O(log n))."""
        if not self._gen:
            return handle
        return bisect_left(self._labels, self._h_label[handle])

    def order_key(self, handle: int) -> int:
        """The handle's order label: comparing two events' labels orders them
        by current local index, without resolving either index.  O(1).

        Labels are reassigned when the first split creates them (before it
        the handle itself is the key) and when a label-space re-spread occurs
        (rare, amortised), so consumers must read them live, never cache them.
        """
        return self._h_label[handle] if self._gen else handle

    def _child_handles(self, handle: int) -> list[int]:
        first = self._h_child[handle]
        return [] if first < 0 else [first, *self._more_children.get(handle, ())]

    def _parent_indices(self, handle: int) -> Version:
        """Parent handles resolved to sorted local indices: stored sorted and
        returned as they are until the first split, bisected after."""
        first = self._h_parent[handle]
        if first < 0:
            return ()
        more = self._more_parents.get(handle)
        parents = (first,) if more is None else (first, *more)
        if not self._gen:
            return parents
        labels, order_labels = self._h_label, self._labels
        return tuple(sorted(bisect_left(order_labels, labels[p]) for p in parents))

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events())

    def __getitem__(self, index: int) -> Event:
        return Event(self, self._order[index])

    def events(self) -> Sequence[Event]:
        """All events in local (topological) order."""
        return [Event(self, h) for h in self._order]

    @property
    def num_chars(self) -> int:
        """Total number of characters across all run events."""
        return self._num_chars

    def contains_id(self, event_id: EventId) -> bool:
        """Does some stored run cover this character id?  O(log runs)."""
        return self._locate_handle(event_id) is not None

    def locate(self, event_id: EventId) -> tuple[int, int]:
        """Resolve a character id to ``(event_index, offset)``.

        O(log runs) via the per-agent range map (no per-character memory).

        Raises:
            KeyError: if no run in this graph covers the id.
        """
        handle, offset = self._located(event_id)
        return self.index_of_handle(handle), offset

    def index_of(self, event_id: EventId) -> int:
        """Local index of the event whose run covers the given id.

        O(log runs).

        Raises:
            KeyError: if the id is not (yet) covered by this graph.
        """
        return self.locate(event_id)[0]

    def _locate_handle(self, event_id: EventId) -> tuple[int, int] | None:
        index = self._agent_index.get(event_id.agent)
        if index is None:
            return None
        return index.find(event_id.seq)

    def _located(self, event_id: EventId) -> tuple[int, int]:
        found = self._locate_handle(event_id)
        if found is None:
            raise KeyError(f"event id {event_id} not in graph")
        return found

    def id_of(self, index: int) -> EventId:
        """Id of the first character of the event at ``index``.  O(1)."""
        return self._h_id[self._order[index]]

    def op_of(self, index: int) -> Operation:
        """The run operation of the event at ``index``.  O(1)."""
        return self._h_op[self._order[index]]

    def parents_of(self, index: int) -> Version:
        """Local indices of the event's parents (sorted).  O(parents) until
        the first split, O(parents log n) after."""
        return self._parent_indices(self._order[index])

    def children_of(self, index: int) -> Sequence[int]:
        """Local indices of the event's children, maintained incrementally as
        events are appended or split.  O(children log n)."""
        children = self._child_handles(self._order[index])
        return list(map(self.index_of_handle, children)) if self._gen else children

    @property
    def frontier(self) -> Version:
        """The current version of the graph: all events with no children."""
        return tuple(sorted(self.index_of_handle(h) for h in self._frontier))

    @property
    def frontier_handles(self) -> tuple[int, ...]:
        """The frontier as stable handles, unordered.  O(frontier size).

        Handle-keyed consumers (the critical-cut tracker) use this to test
        "is the newest event the sole head" without resolving any indices.
        """
        return tuple(self._frontier)

    def next_seq_for(self, agent: str) -> int:
        """The next unused sequence number for ``agent`` in this graph.

        O(1).  Covers everything the graph has ever stored for the agent,
        including runs later split or extended in place.
        """
        return self._next_seq.get(agent, 0)

    def inserted_chars_through(self, index: int) -> int:
        """Total characters inserted by events ``0 .. index`` (inclusive).

        O(1).  For any version ``V`` whose events all have indices
        ``<= index`` this is a safe **upper bound** on the document length at
        ``V`` (deletions only shrink it, and ``Events(V)`` is a subset of the
        prefix), which is exactly what a partial replay needs to size its
        placeholder (§3.6) — oversizing leaves unreferenced slack at the end
        of the placeholder and is harmless.
        """
        return self._cum_inserts[index]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_event(
        self,
        event_id: EventId,
        parents: Iterable[EventId] | Iterable[int],
        op: Operation,
        *,
        parents_are_indices: bool = False,
    ) -> Event:
        """Add a run event to the graph.

        Args:
            event_id: the globally unique id of the run's first character.
                The run's whole id span must be fresh.
            parents: parent events, either as :class:`EventId` values (any
                character of the parent run identifies it, and the dependency
                covers the whole run — use :meth:`ingest_run` for remote
                references, where a mid-run id means a dependency on only a
                prefix) or as local indices (set ``parents_are_indices``).  All
                parents must already be in the graph (causal delivery is the
                caller's responsibility — see
                :mod:`repro.network.causal_broadcast`).
            op: an insert or delete run operation (length >= 1).

        Returns:
            The newly created :class:`Event`.

        Complexity: O(parents + log runs) amortized — the children, frontier,
        range-map and cumulative-insert indices all update in place, which is
        what lets long-lived consumers (the merge engine, the cut tracker)
        avoid ever rescanning the graph.

        Raises:
            ValueError: if any character of the run's id span is already
                covered (duplicate), or a parent index is out of range or
                named twice.
        """
        agent_index = self._agent_index.get(event_id.agent)
        if self._locate_handle(event_id) is not None or (
            agent_index is not None
            and agent_index.next_start_in(event_id.seq, event_id.seq + op.length)
            is not None
        ):
            raise ValueError(f"duplicate event id span {event_id}+{op.length}")
        if parents_are_indices:
            parent_indices = sorted(int(p) for p in parents)
        else:
            parent_indices = sorted({self.index_of(p) for p in parents})  # type: ignore[arg-type]
        _check_parent_indices(parent_indices, len(self._order))
        return Event(self, self._append(event_id, parent_indices, op))

    def _append(self, event_id: EventId, parent_indices: Sequence[int], op: Operation) -> int:
        """The one way an event enters the graph; returns its handle.  Its
        callers (:meth:`add_event`, :meth:`ingest_run`) have validated it:
        the run's id span is fresh and ``parent_indices`` are sorted,
        distinct indices of stored events."""
        order = self._order
        parents = [order[p] for p in parent_indices] if self._gen else parent_indices
        agent, seq, length = event_id.agent, event_id.seq, op.length

        handle = len(self._h_id)
        self._h_id.append(event_id)
        self._h_op.append(op)
        self._h_len.append(length)
        self._h_child.append(-1)
        order.append(handle)
        if self._gen:
            label = self._labels[-1] + _LABEL_GAP
            self._h_label.append(label)
            self._labels.append(label)
        cum_inserts = self._cum_inserts
        cum_inserts.append(
            (cum_inserts[-1] if cum_inserts else 0)
            + (length if op.kind is OpKind.INSERT else 0)
        )
        agent_index = self._agent_index.get(agent)
        if agent_index is None:
            agent_index = self._agent_index[agent] = RangeIndex(
                self._h_len.__getitem__, array("q")
            )
        agent_index.register(seq, handle)
        self._num_chars += length
        if seq + length > self._next_seq.get(agent, 0):
            self._next_seq[agent] = seq + length
        # Parent and child columns, and the frontier, incrementally: the new
        # event replaces any of its parents that were frontier members, and
        # is itself a frontier member (nothing can be its child yet).
        if parents:
            self._h_parent.append(parents[0])
            if len(parents) > 1:
                self._more_parents[handle] = tuple(parents[1:])
            children, more_children = self._h_child, self._more_children
            for parent in parents:
                if children[parent] < 0:
                    children[parent] = handle
                elif parent in more_children:
                    more_children[parent].append(handle)
                else:
                    more_children[parent] = [handle]
            self._frontier = [f for f in self._frontier if f not in parents]
        else:
            self._h_parent.append(-1)
        self._frontier.append(handle)
        if self._listeners:
            self._notify("event_added", Event(self, handle))
        return handle

    def extend_event(self, index: int, op: Operation) -> Event:
        """Grow the run at ``index`` in place by the run ``op`` continues.

        This is the sender-side run coalescing: a local edit that continues
        the frontier run (same agent, contiguous seqs, an insert continuing at
        the run's end or a delete at the same index) is folded into the
        existing event instead of creating a new one, so a single-keystroke
        session stores O(runs) events at the source.  The result is a legal
        re-encoding of the same history — a peer that already received the
        shorter run resolves the difference through the usual split-on-ingest
        machinery (:meth:`ingest_run` / :meth:`dependency_index`).

        The event must be the sole frontier head (which also makes it the last
        event in local order): the new characters depend on everything, which
        is exactly what "continuing the run" means.
        """
        handle = self._order[index]
        if self._frontier != [handle]:
            raise ValueError("only the sole frontier run can be extended in place")
        event_id = self._h_id[handle]
        old = self._h_op[handle]
        if self._next_seq.get(event_id.agent, 0) != event_id.seq + old.length:
            raise ValueError("cannot extend a run that is not the agent's latest")
        if old.kind is not op.kind:
            raise ValueError("cannot extend a run with an operation of another kind")
        if op.is_insert:
            if op.pos != old.pos + old.length:
                raise ValueError("insert does not continue the run")
            new_op = insert_op(old.pos, old.content + op.content)
        else:
            if op.pos != old.pos:
                raise ValueError("delete does not continue the run")
            new_op = delete_op(old.pos, old.length + op.length)
        self._h_op[handle] = new_op
        self._h_len[handle] = new_op.length
        self._num_chars += op.length
        if op.is_insert:
            self._cum_inserts[index] += op.length  # the sole frontier run is last
        self._next_seq[event_id.agent] = event_id.seq + new_op.length
        self._notify("event_extended", index, op.length)
        return Event(self, handle)

    def add_local_event(self, agent: str, op: Operation) -> Event:
        """Add a run event generated locally by ``agent``.

        The new event's parents are the current frontier and its sequence
        numbers (one per character) are allocated automatically.
        """
        event_id = EventId(agent, self.next_seq_for(agent))
        return self.add_event(event_id, self.frontier, op, parents_are_indices=True)

    def split_event(self, index: int, offset: int) -> Event:
        """Split the run event at ``index`` in place, before character ``offset``.

        The event keeps its first ``offset`` characters (and its handle); the
        remainder becomes a new event inserted directly after it (at
        ``index + 1``) whose sole parent is the left half — exactly the
        chaining :func:`expand_to_chars` produces, so the split is
        semantically a no-op.  Every existing parent reference to the
        original event is rewritten to the right half (a dependency on a
        whole run is a dependency on its last character, which now lives in
        the right half and implies the left transitively).

        Returns the right half.  O(log n + children of the split run) Python
        work: the right half's order label is bisected between its
        neighbours, the split run's children (found via the child column)
        have one parent handle rewritten, and the split ends the identity
        fast path (handles no longer equal indices).  The only O(n) residue
        is a few C-level array inserts into the order.  Splits only happen
        when interoperating with a peer that carved runs differently, never
        on the local editing path.
        """
        left = self._order[index]
        op = self._h_op[left]
        if offset <= 0 or offset >= op.length:
            raise ValueError(f"cannot split a run of length {op.length} at {offset}")

        label = self._split_label(index)
        right = len(self._h_id)
        right_op = op.slice(offset, op.length - offset)
        right_id = self._h_id[left].advance(offset)
        self._h_id.append(right_id)
        self._h_op.append(right_op)
        self._h_len.append(right_op.length)
        self._h_label.append(label)
        self._h_parent.append(left)

        self._h_op[left] = op.slice(0, offset)
        self._h_len[left] = offset

        # Children who depended on the whole run now depend on the right
        # half; the left half's only child is the right half.  Handles are
        # rewritten via the child columns — no scan over the graph.
        moved = self._child_handles(left)
        self._h_child.append(self._h_child[left])
        self._h_child[left] = right
        if left in self._more_children:
            self._more_children[right] = self._more_children.pop(left)
        for child in moved:
            if self._h_parent[child] == left:
                self._h_parent[child] = right
            else:
                self._more_parents[child] = tuple(
                    right if p == left else p for p in self._more_parents[child]
                )
        self._gen += 1

        self._order.insert(index + 1, right)
        self._labels.insert(index + 1, label)
        # A frontier entry for the whole run moves to the right half.
        self._frontier = [right if f == left else f for f in self._frontier]
        # Cumulative insert counts: the left half's running total drops by the
        # right half's inserted chars; every later entry keeps its value (the
        # totals are unchanged, only the positions shift by one).
        right_inserts = right_op.length if right_op.is_insert else 0
        self._cum_inserts.insert(index, self._cum_inserts[index] - right_inserts)
        # The id range map refines: the left entry now covers less (its
        # length is consulted live) and the right half gets its own entry.
        self._agent_index[right_id.agent].register(right_id.seq, right)
        self._notify("event_split", index)
        return Event(self, right)

    def _split_label(self, index: int) -> int:
        """An order label strictly between positions ``index`` and
        ``index + 1``, re-spreading the label space if the gap is exhausted
        (needs ~20 splits between the same two events; O(n) then, amortised
        away)."""
        if not self._gen:
            # The first split: until now handle and index were one, so the
            # labels (not kept before) start out evenly spread.
            self._labels = array("q", range(0, len(self._order) * _LABEL_GAP, _LABEL_GAP))
            self._h_label = array("q", self._labels)
        labels = self._labels
        left = labels[index]
        right = labels[index + 1] if index + 1 < len(labels) else left + 2 * _LABEL_GAP
        label = (left + right) // 2
        if label == left:
            h_label = self._h_label
            for pos, handle in enumerate(self._order):
                h_label[handle] = pos * _LABEL_GAP
            self._labels = array("q", range(0, len(self._order) * _LABEL_GAP, _LABEL_GAP))
            left = self._labels[index]
            label = left + _LABEL_GAP // 2
        return label

    def dependency_id(self, index: int) -> EventId:
        """Id of the *last* character of the event at ``index``.

        This is the replication-safe way to reference a dependency on a run:
        a peer that carved the same history into finer runs resolves it to the
        event ending at that character, preserving exactly the intended causal
        coverage (a first-character id would under-specify it).
        """
        handle = self._order[index]
        return self._h_id[handle].advance(self._h_len[handle] - 1)

    def dependency_index(self, event_id: EventId) -> int:
        """Index of the event covering ids *up to and including* ``event_id``.

        If ``event_id`` falls mid-run, the stored run is split at the boundary
        first so that the returned event covers exactly the referenced prefix
        — the peer that emitted the reference did not causally depend on the
        rest of the run.  Raises :class:`KeyError` if the id is unknown.
        """
        handle, offset = self._located(event_id)
        index = self.index_of_handle(handle)
        if offset + 1 < self._h_len[handle]:
            self.split_event(index, offset + 1)
        return index

    def _whole_run_indices(self, parent_ids: Iterable[EventId]) -> Version | None:
        """``parent_ids`` as sorted, distinct local indices if each names the
        **last** character of a stored run; ``None`` if one falls mid-run
        (resolving it means a split: :meth:`dependency_index`).  Raises
        :class:`KeyError` for an unknown id."""
        indices: list[int] = []
        for parent_id in parent_ids:
            handle, offset = self._located(parent_id)
            if offset + 1 < self._h_len[handle]:
                return None
            indices.append(self.index_of_handle(handle))
        if len(indices) > 1:
            indices = sorted(set(indices))
        return tuple(indices)

    def ingest_run(
        self, event_id: EventId, parent_ids: Iterable[EventId], op: Operation
    ) -> list[Event]:
        """Add a (possibly differently-carved) remote run to the graph.

        The incoming id span is walked against stored coverage: sub-spans
        already covered are verified to carry the same operation (redelivery
        and legal re-carvings are idempotent), uncovered sub-spans are added
        as new events.  The first new sub-span takes ``parent_ids`` (resolved
        with :meth:`dependency_index`, splitting stored runs at mid-run parent
        references); later sub-spans chain onto the previous character of the
        run, mirroring :func:`expand_to_chars`.

        A run that starts at or past the agent's next unused seq and whose
        parents name whole stored runs — every run of a peer we are merely
        behind — skips the walk: it is validated and appended directly.

        Returns the newly created events (empty for a full redelivery).
        Raises :class:`ValueError` if stored coverage disagrees with the
        incoming operation (same ids, different content — the one truly
        illegal divergence), and :class:`KeyError` if a needed parent is
        missing (the replication layer holds such events back).
        """
        return [Event(self, h) for h in self._ingest_run(event_id, parent_ids, op)]

    def ingest_runs(
        self,
        runs: Iterable[tuple[EventId, Iterable[EventId], Operation]],
        added_spans: list[tuple[str, int, int]] | None = None,
    ) -> list[int]:
        """:meth:`ingest_run` for a causally ordered batch of ``(id, parent
        ids, op)`` runs, without :class:`Event` views.

        Returns the current local indices of the events covering the new id
        spans, resolved once the batch is done (a later run may split an
        earlier one).  ``added_spans``, if given, receives each new ``(agent,
        seq, length)`` span as it is added, so a caller can account for a
        batch that raises midway.
        """
        if added_spans is None:
            added_spans = []
        ids, lengths = self._h_id, self._h_len
        for event_id, parent_ids, op in runs:
            for handle in self._ingest_run(event_id, parent_ids, op):
                new_id = ids[handle]
                added_spans.append((new_id.agent, new_id.seq, lengths[handle]))
        return self.indices_covering(added_spans)

    def _ingest_run(
        self, event_id: EventId, parent_ids: Iterable[EventId], op: Operation
    ) -> list[int]:
        """:meth:`ingest_run`, returning the new events' handles."""
        agent = event_id.agent
        if event_id.seq >= self._next_seq.get(agent, 0):
            # The whole span is new (nothing stored reaches its first seq), so
            # there is no overlap to walk; parents that each name the last
            # character of a stored run need no split either, and the run is
            # a plain append.  A mid-run parent takes the general path below.
            parent_indices = self._whole_run_indices(parent_ids)
            if parent_indices is not None:
                return [self._append(event_id, parent_indices, op)]
        added: list[int] = []
        parent_handles: list[int] | None = None
        seq = event_id.seq
        end = event_id.seq + op.length
        while seq < end:
            located = self._locate_handle(EventId(agent, seq))
            if located is not None:
                stored_handle, stored_offset = located
                span = min(self._h_len[stored_handle] - stored_offset, end - seq)
                self._verify_overlap(
                    stored_handle, stored_offset, op, seq - event_id.seq, span, event_id
                )
                seq += span
                continue
            agent_index = self._agent_index.get(agent)
            next_start = (
                agent_index.next_start_in(seq, end) if agent_index is not None else None
            )
            span = (next_start if next_start is not None else end) - seq
            offset = seq - event_id.seq
            if offset == 0:
                if parent_handles is None:
                    # Resolve to handles first: each dependency_index call may
                    # split a stored run, shifting later indices (handles
                    # never move).
                    parent_handles = [
                        self._order[self.dependency_index(p)] for p in parent_ids
                    ]
                parent_indices: Iterable[int] = set(
                    map(self.index_of_handle, parent_handles)
                )
            else:
                parent_indices = (self.dependency_index(EventId(agent, seq - 1)),)
            added.append(
                self.add_event(
                    EventId(agent, seq),
                    parent_indices,
                    op.slice(offset, span),
                    parents_are_indices=True,
                ).handle
            )
            seq += span
        return added

    def _verify_overlap(
        self,
        stored_handle: int,
        stored_offset: int,
        op: Operation,
        op_offset: int,
        span: int,
        event_id: EventId,
    ) -> None:
        """Check that stored coverage agrees with an incoming run's sub-span."""
        stored_op = self._h_op[stored_handle]
        same = stored_op.kind is op.kind
        if same and op.is_insert:
            same = (
                stored_op.pos + stored_offset == op.pos + op_offset
                and stored_op.content[stored_offset : stored_offset + span]
                == op.content[op_offset : op_offset + span]
            )
        elif same:
            same = stored_op.pos == op.pos
        if not same:
            raise ValueError(
                f"remote event {event_id}+{op.length} conflicts with stored run "
                f"{self._h_id[stored_handle]}+{stored_op.length}: same ids, "
                f"different content"
            )

    def add_remote_event(
        self, event_id: EventId, parent_ids: Iterable[EventId], op: Operation
    ) -> list[Event]:
        """Add a run event received from another replica.

        Run boundaries are a local encoding detail, so the incoming run may be
        carved differently than this graph's coverage of the same characters:
        already-known sub-spans are skipped (delivery is idempotent), new
        sub-spans are added, and stored runs are split where the carvings
        disagree.  See :meth:`ingest_run` for the exact semantics and error
        cases.

        Returns the list of newly created events (empty if the run was fully
        known already).
        """
        return self.ingest_run(event_id, parent_ids, op)

    def merge_from(
        self, other: "EventGraph", added_spans: list[tuple[str, int, int]] | None = None
    ) -> list[int]:
        """Union this graph with ``other`` (paper §2.2).

        Events of ``other`` that are missing locally are added in ``other``'s
        local order, which is guaranteed to deliver parents before children.
        The two graphs may carve the same edits into different runs; the
        overlap handling is the same (shared) path as
        :meth:`add_remote_event`.

        Returns:
            The local indices (in *this* graph) of the events now covering the
            newly added id spans, ascending.  (A span added early in the merge
            may be split by a later event of the batch, in which case both
            halves are reported.)  ``added_spans``, if given, receives the
            ``(agent, seq, length)`` span of each event as it is added, so a
            caller can account for a merge that raises midway.
        """
        dependency_id = other.dependency_id
        return self.ingest_runs(
            (
                (event_id, list(map(dependency_id, parents)), op)
                for event_id, parents, op in zip(*other.to_columns())
            ),
            added_spans,
        )

    def indices_covering(self, spans: Iterable[tuple[str, int, int]]) -> list[int]:
        """Current event indices covering the given ``(agent, seq, length)`` spans.

        Used after a batch ingest: events added early in the batch may have
        been split (and every index shifted) by later events, so callers track
        the added *id spans* and resolve them to indices once the batch is
        done.
        """
        indices: set[int] = set()
        for agent, seq, length in spans:
            end = seq + length
            while seq < end:
                handle, offset = self._located(EventId(agent, seq))
                indices.add(self.index_of_handle(handle))
                seq += self._h_len[handle] - offset
        return sorted(indices)

    # ------------------------------------------------------------------
    # Version helpers
    # ------------------------------------------------------------------
    def version_from_ids(self, ids: Iterable[EventId]) -> Version:
        """Convert a set of event ids into a local-index version tuple."""
        return tuple(sorted({self.index_of(i) for i in ids}))

    def ids_from_version(self, version: Version) -> tuple[EventId, ...]:
        """Convert a local-index version into globally meaningful event ids.

        Each event is represented by the id of its **last** character (its
        :meth:`dependency_id`): a version means "everything up to and
        including these characters", and a peer that carved the same history
        into finer runs resolves a last-character id to exactly the right
        causal coverage.
        """
        return tuple(self.dependency_id(i) for i in version)

    def summary(self) -> dict[str, int]:
        """Cheap summary statistics used by the trace tooling.

        ``events`` counts run events; ``inserts`` / ``deletes`` / ``chars``
        count characters, so they are invariant under run-length encoding.
        """
        inserted = sum(
            self._h_len[h] for h in self._order if self._h_op[h].is_insert
        )
        return {
            "events": len(self._order),
            "chars": self._num_chars,
            "inserts": inserted,
            "deletes": self._num_chars - inserted,
            "agents": len(self._next_seq),
        }


def expand_to_chars(graph: EventGraph) -> EventGraph:
    """The per-character expansion of a run graph (the correctness oracle).

    Every run event of length L becomes L chained single-character events
    carrying the same character ids: the first carries the run's parents, each
    subsequent character has the previous one as its sole parent — exactly how
    the history would look had it been recorded one keystroke at a time.
    Expanding an already per-character graph is the identity (up to object
    identity).
    """
    expanded = EventGraph()
    last_char_index: dict[int, int] = {}  # run event index -> index of its last char
    for event in graph.events():
        parents = tuple(sorted(last_char_index[p] for p in event.parents))
        for offset in range(event.op.length):
            char_event = expanded.add_event(
                event.id_at(offset),
                parents,
                event.op.char_at(offset),
                parents_are_indices=True,
            )
            parents = (char_event.index,)
        last_char_index[event.index] = len(expanded) - 1
    return expanded
