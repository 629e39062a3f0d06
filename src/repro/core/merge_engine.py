"""The persistent merge engine: live merges in O(new events) (paper §3.5–3.6).

The paper's headline promise for the *steady state* is that sequential events
bypass the walker entirely and a merge only replays the graph since the last
critical version.  Getting the replay window right is not enough: a merge that
rebuilt the walker, materialised the full local order and re-scanned the whole
graph for critical versions would still pay O(history) *bookkeeping* per
merge, which over a long-lived replica is quadratic.

A document therefore owns one :class:`MergeEngine` for its whole lifetime, and
the engine maintains everything a merge needs *incrementally*:

* the :class:`~repro.core.causal_graph.CausalGraph` view and
  :class:`~repro.core.walker.EgWalker` are created once and reused — the
  event graph updates its children/frontier indices in place as events are
  appended, ingested or split, so there is nothing to rebuild;
* the critical cuts of the local order — critical versions of any width,
  e.g. the two-head frontier each exchange of a two-author session ends in —
  are tracked by a :class:`~repro.core.critical_versions.CriticalCutTracker`
  — O(1) amortized per appended event — so the replay base of §3.6 is a
  binary search over a short sorted list, not a linear scan;
* remote events that are causally after everything we have seen take the
  **sequential fast path**: their operations apply verbatim to the text,
  batched through :func:`~repro.core.walker.coalesce_ops`, and the walker is
  never touched (§3.5's transform-free case, done without even computing a
  replay order); history replays read the same run the same way;
* when concurrency *is* in play, the walker's internal state stays resident
  between merges (a :class:`WalkerCheckpoint`): the next merge
  retreats/advances/applies only the new events against the live state
  instead of re-replaying the whole post-cut window.  An interop split or
  in-place run extension inside that window drops the checkpoint (the next
  merge rebuilds it from the latest critical version, §3.6); otherwise it is
  dropped once a later critical version has *survived* a delivery: the
  frontier a batch leaves behind is always a critical version, but a
  transient one — the next concurrent delivery routinely names only some of
  its heads and un-makes it, and dropping on it would force a full-window
  re-replay per delivery.  Survival shows as the next batch's first event
  riding the fast path across it, or as the replay base advancing.  In a
  two-author session that happens once per exchange, so the state never
  outgrows one exchange and memory returns to just the text between them
  (§3.5).

Per-merge cost, for a history of N events, a window of W events since the
latest surviving critical version and a batch of k new events:

====================================  ==============
situation                             cost
====================================  ==============
sequential events (quiescent tail)    O(k)
concurrent, state resident            O(k) amortized
concurrent, first merge after a cut   O(W)
====================================  ==============

The convergence fuzzer checks every merged document against the
per-character oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..rope import Rope
from .critical_versions import CriticalCutTracker
from .event_graph import EventGraph, Version
from .ids import Operation
from .internal_state import InternalState
from .oplog import OpLog
from .topo_sort import sort_branch_aware
from .walker import EgWalker, coalesce_ops

__all__ = ["MergeEngine", "MergeEngineStats", "WalkerCheckpoint"]


@dataclass(slots=True)
class MergeEngineStats:
    """Counters proving (or disproving) the O(new events) merge claim.

    ``last_merge_events_touched`` is the headline number: how many events the
    most recent merge had to look at, *including* bookkeeping — O(new events)
    in the steady state.
    """

    merges: int = 0
    events_integrated: int = 0
    chars_integrated: int = 0
    #: Merges (and run events / characters) that took the sequential fast
    #: path: ops applied verbatim, no walker, no replay order.
    fast_path_merges: int = 0
    fast_path_events: int = 0
    fast_path_chars: int = 0
    #: Merges that resumed the resident walker state (only new events were
    #: replayed) vs. merges that replayed the post-cut window from scratch.
    resumed_merges: int = 0
    fresh_replays: int = 0
    #: Events replayed through the walker: window/gap events (already in the
    #: text, replayed silently) and new events (emitted).
    replayed_window_events: int = 0
    replayed_new_events: int = 0
    #: Checkpoint lifecycle: kept = a live state survived the merge; dropped
    #: = a critical version that survived a delivery (or a split or in-place
    #: extension inside the state's window) retired it, returning the
    #: replica to text-only memory.
    checkpoints_kept: int = 0
    checkpoints_dropped: int = 0
    #: Work profile of the most recent merge.
    last_merge_events_touched: int = 0
    #: History queries (``text_at`` / ``diff``) answered by a walker replay:
    #: ``history_window_events`` were replayed silently (the ancestor window
    #: between the chosen critical-cut base and the *from* version) and
    #: ``history_new_events`` emitted operations.  A diff whose *from*
    #: version is itself a critical version has an empty window — O(new
    #: events) walker work, which ``last_history_events_touched`` proves.
    history_replays: int = 0
    #: History events read verbatim instead, no walker: the run of critical
    #: versions after the root or a tracked critical version (§3.5).
    history_fast_path_events: int = 0
    history_window_events: int = 0
    history_new_events: int = 0
    last_history_events_touched: int = 0
    #: History diffs with no replayable event set between the versions
    #: (concurrent or backwards pairs): answered by a character-level text
    #: diff instead of the walker.
    history_text_diffs: int = 0
    #: Text diffs whose inputs exceeded the quadratic-cost limit and went
    #: through the prefix/suffix-trimming length guard (see
    #: ``repro.history.history.QUADRATIC_DIFF_LIMIT``) instead of raw
    #: difflib — keeps a server-side diff request from pinning the event
    #: loop on two long concurrent texts.
    history_diff_guards: int = 0

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass(slots=True)
class WalkerCheckpoint:
    """The walker state kept resident between merges.

    ``state`` covers exactly the events ``base_cut + 1 .. through - 1`` of
    the local order (everything at or before ``base_cut`` is represented by
    the placeholder), and ``prepare_version`` is where the last replay left
    the prepare version.
    """

    state: InternalState
    prepare_version: Version
    #: Local position of the critical cut whose version (one head or
    #: several) the state's placeholder stands for (``None`` = the root).
    base_cut: int | None
    #: Exclusive upper bound of the local indices folded into ``state``.
    through: int


class MergeEngine:
    """Persistent merge machinery owned by one :class:`Document`.

    The engine listens to the event graph (splits and in-place extensions can
    invalidate the resident state) and is handed each batch of newly ingested
    event indices via :meth:`integrate`, which it turns into transformed
    operations applied to the rope.  It is also the walker backend of the
    history subsystem (:meth:`history_ops` — ``text_at`` / ``diff`` replays
    resumed from tracked critical cuts), and of every full replay
    (:meth:`replay_adopted`, :meth:`replay`).

    Args:
        oplog: the replica's event log; the engine registers itself as a
            graph listener.
        rope: the document text the transformed operations apply to.
    """

    def __init__(self, oplog: OpLog, rope: Rope) -> None:
        self._start(oplog, rope, CriticalCutTracker(oplog.graph))
        oplog.graph.add_listener(self)

    def _start(self, oplog: OpLog, rope: Rope, tracker: CriticalCutTracker) -> None:
        self.oplog = oplog
        self.rope = rope
        self.stats = MergeEngineStats()
        #: One walker for the engine's whole lifetime: the event graph and
        #: causal-graph view update in place, so there is nothing to rebuild.
        self.walker = EgWalker(oplog.graph)
        self._ckpt: WalkerCheckpoint | None = None
        self.tracker = tracker

    @classmethod
    def replay(cls, graph: EventGraph) -> "MergeEngine":
        """The full replay (:meth:`replay_adopted`) of a graph the caller
        keeps, e.g. a trace's or a file reader's.  The engine registers no
        listener on it — its tracker is a detached one-pass rebuild — and no
        walker state outlives the call.  Returns the spent engine:
        ``str(engine.rope)`` is the text at ``graph``'s frontier, and
        ``engine.stats`` / ``engine.walker.last_stats`` count the work."""
        engine = cls.__new__(cls)
        engine._start(OpLog(graph=graph), Rope(), CriticalCutTracker(graph, attach=False))
        engine.replay_adopted()
        return engine

    # ------------------------------------------------------------------
    # Graph listener hooks (checkpoint invalidation)
    # ------------------------------------------------------------------
    def event_split(self, index: int) -> None:
        """Listener hook: an interop re-carving split the run at ``index``.
        A split inside or below the resident window changes what the
        checkpoint is keyed by (a delete run's targets, local indices), so
        the checkpoint is dropped."""
        ckpt = self._ckpt
        if ckpt is not None and index < ckpt.through:
            self._drop_checkpoint()

    def event_extended(self, index: int, added_length: int) -> None:
        """Listener hook: the run at ``index`` grew in place (sender-side
        coalescing).  The checkpoint is dropped if its state applied the run."""
        ckpt = self._ckpt
        if ckpt is not None and index < ckpt.through:
            self._drop_checkpoint()

    # ------------------------------------------------------------------
    # The merge entry point
    # ------------------------------------------------------------------
    def integrate(self, added: range) -> list[Operation]:
        """Fold newly ingested events into the text.

        Args:
            added: the local indices of the events the oplog just ingested —
                the tail of the local order it returns (interop splits land
                below it by construction).

        Returns:
            The transformed operations that were applied to the rope, in
            order and coalesced into maximal runs — the incremental update
            of §2.4.

        Complexity: O(new events) for a sequential batch or while walker
        state is resident; O(window + new) on the first merge after a
        critical cut.  See the module docstring's table.
        """
        if not added:
            return []
        graph = self.oplog.graph
        # New events always form a contiguous tail of the local order (splits
        # of stored runs land below the first appended event).
        if added != range(added[0], len(graph)):
            raise AssertionError("merged events are not a tail of the local order")
        stats = self.stats
        stats.merges += 1
        stats.events_integrated += len(added)
        stats.chars_integrated += sum(op.length for op in map(graph.op_of, added))
        return self._integrate_incremental(added[0])

    def replay_adopted(self) -> None:
        """Rebuild the text of an adopted graph that came without a snapshot
        — the one full replay: :meth:`history_ops` from the root to the
        frontier, applied to the (empty) rope.  It reads the §3.5 critical
        run verbatim and replays the rest through the walker with clearing;
        no event counts as merged and no walker state stays resident."""
        self._apply_to_rope(self.history_ops((), self.oplog.graph.frontier))

    # ------------------------------------------------------------------
    # Incremental path
    # ------------------------------------------------------------------
    def _integrate_incremental(self, first_new: int) -> list[Operation]:
        graph = self.oplog.graph
        tracker = self.tracker
        stats = self.stats
        n = len(graph)

        # Sequential fast path: every new event whose parent version *and*
        # own version are critical applies verbatim (§3.5) — no walker, no
        # replay order, no state.  With batched delivery a single batch can
        # hold a sequential prefix followed by a concurrent tail, so the
        # critical run is peeled off the front and only the tail (if any)
        # goes through the replay machinery below.
        run, run_ops = self._critical_run(first_new, n - 1)
        if run:
            self._drop_checkpoint()  # a critical version formed at the run's end
            ops = coalesce_ops(run_ops)
            self._apply_to_rope(ops)
            stats.fast_path_events += len(run)
            stats.fast_path_chars += sum(op.length for op in run_ops)
            if run[-1] == n - 1:
                # The whole batch was sequential.
                stats.fast_path_merges += 1
                stats.last_merge_events_touched = len(run)
                return ops
            # Concurrent tail: integrate it from the critical version the
            # run just formed (base = the run's end, empty window).
            rest = self._integrate_incremental(run[-1] + 1)
            stats.last_merge_events_touched += len(run)
            return ops + rest

        new_events = range(first_new, n)
        # Replay base: the latest critical cut before the new events — a
        # binary search over the tracked cuts, not a graph scan.
        cut = tracker.latest_cut_before(first_new)
        base_version = tracker.version_at(cut)
        replay_start = 0 if cut is None else cut + 1

        ckpt = self._ckpt

        if ckpt is not None and ckpt.base_cut == cut and ckpt.through <= first_new:
            # Resume: the live state already covers the window up to
            # ``through``; silently fold in the local gap events (edits made
            # since the last merge), then replay only the new events.
            gap = range(ckpt.through, first_new)
            order = sort_branch_aware(graph, gap) + sort_branch_aware(graph, new_events)
            result = self.walker.transform(
                order,
                base_version=base_version,
                emit_only=new_events,
                state=ckpt.state,
                start_prepare_version=ckpt.prepare_version,
                clearing=False,
            )
            stats.resumed_merges += 1
            stats.replayed_window_events += len(gap)
            stats.last_merge_events_touched = len(gap) + len(new_events)
            ckpt.prepare_version = result.prepare_version
            ckpt.through = n
            stats.checkpoints_kept += 1
        else:
            # Fresh window replay from the critical version (§3.6).  The
            # old window is replayed silently to rebuild the state the new
            # events need; it is kept resident afterwards so the *next* merge
            # in this concurrent episode costs only its own new events.  A
            # previous checkpoint is dropped here because the replay base
            # advanced past its ``base_cut``: a later critical version
            # *survived* the deliveries since, so the events it covers really
            # are final (§3.5).  The tail cut a batch leaves behind proves
            # nothing by itself — the next concurrent delivery routinely
            # names only some of its heads and un-makes it.
            if ckpt is not None:
                self._drop_checkpoint()
            old_range = range(replay_start, first_new)
            order = sort_branch_aware(graph, old_range) + sort_branch_aware(
                graph, new_events
            )
            deletes_in_old = sum(
                op.length for op in map(graph.op_of, old_range) if op.is_delete
            )
            result = self.walker.transform(
                order,
                base_version=base_version,
                base_doc_length=len(self.rope) + deletes_in_old,
                emit_only=new_events,
                # The state stays resident, so walker-internal clearing
                # (which would leave it representing only a window suffix)
                # is disabled.
                clearing=False,
            )
            stats.fresh_replays += 1
            stats.replayed_window_events += len(old_range)
            stats.last_merge_events_touched = len(old_range) + len(new_events)
            self._ckpt = WalkerCheckpoint(
                state=result.state,
                prepare_version=result.prepare_version,
                base_cut=cut,
                through=n,
            )
            stats.checkpoints_kept += 1

        stats.replayed_new_events += len(new_events)
        ops = coalesce_ops(op for entry in result.transformed for op in entry.ops)
        self._apply_to_rope(ops)
        return ops

    # ------------------------------------------------------------------
    # History replays (text_at / diff, resumed from critical cuts)
    # ------------------------------------------------------------------
    def history_ops(self, from_version: Version, to_version: Version) -> list[Operation]:
        """Operations transforming the text at ``from_version`` into the text
        at ``to_version`` — the walker backend of the history subsystem.

        Args:
            from_version: local-index version; must be an ancestor of (or
                equal to) ``to_version``.  The empty tuple means the root
                (so the result builds the text at ``to_version`` from ``""``).
            to_version: local-index version to reach.

        When ``from_version`` is the root or a tracked critical version (all
        of its heads), the run of critical versions after it applies verbatim
        (§3.5): up to ``max(to_version)`` its events' own operations are the
        answer — no sort, diff, cut pass or walker
        (``stats.history_fast_path_events``); on a linear history that is all
        of it, O(k).  What is left replays through the walker from the run's
        last cut.  Its replay base is the latest critical version contained
        in the from version (a binary search on the engine's
        :class:`CriticalCutTracker`); the window ``Events(from) -
        Events(base)`` replays silently to rebuild the walker state, then
        ``Events(to) - Events(from)`` replays with operations emitted — the
        §3.6 merge procedure pointed at history.  Cost: O(window + new)
        walker work, O(new events) when the from version is critical
        (``stats.last_history_events_touched`` records it).

        Returns:
            The operations, coalesced into maximal runs; applying them in
            order to the text at ``from_version`` yields the text at
            ``to_version``.
        """
        graph = self.oplog.graph
        stats = self.stats
        last = max(to_version, default=-1)
        # A version whose own top is its replay base covers exactly the
        # local-order prefix through that top: the run may start after it.
        top = from_version[-1] if from_version else -1
        run = range(0)
        run_ops: list[Operation] = []
        if top < 0 or self._history_cut(from_version) == top:
            run, run_ops = self._critical_run(top + 1, last)
        stats.history_fast_path_events += len(run)
        stats.last_history_events_touched = len(run)
        if run:
            if run[-1] == last:
                # Every event of ``to_version`` sits at or before ``last``.
                return coalesce_ops(run_ops)
            from_version = (run[-1],)
        causal = self.walker.causal
        cut = self._history_cut(from_version)
        base_version = self.tracker.version_at(cut)
        base_length = 0 if cut is None else graph.inserted_chars
        _, window = causal.diff(base_version, from_version)
        _, new_events = causal.diff(from_version, to_version)
        order = sort_branch_aware(graph, window) + sort_branch_aware(graph, new_events)
        result = self.walker.transform(
            order,
            base_version=base_version,
            base_doc_length=base_length,
            # With no window every replayed event is new.
            emit_only=set(new_events) if window else None,
            clearing=True,
        )
        stats.history_replays += 1
        stats.history_window_events += len(window)
        stats.history_new_events += len(new_events)
        stats.last_history_events_touched += len(window) + len(new_events)
        return coalesce_ops(
            [*run_ops, *(op for entry in result.transformed for op in entry.ops)]
        )

    def _history_cut(self, version: Version) -> int | None:
        """The latest critical cut contained in ``version`` (replay base).

        A critical cut ``c`` qualifies iff its whole version is in
        ``Events(version)``: that version's events are exactly the
        local-order prefix through ``c`` (criticality), every event of
        ``Events(version)`` outside it sits after ``c`` in local order and
        descends from all of it, so the partial replay from the cut's
        version is closed.  Criticality also makes the lookup trivial: the
        prefix of any cut ``c < max(version)`` is all ancestors of
        ``max(version)``, hence contained; a cut *at* ``max(version)``
        qualifies iff ``version`` names every one of its heads (a version
        naming one head of a two-head critical version does not contain the
        other).  So the answer is one binary search over the tracked cuts
        plus that containment test, O(log cuts).  ``None`` (replay from the
        root) when no cut qualifies.
        """
        if not version:
            return None
        top = version[-1]
        cut = self.tracker.latest_cut_before(top + 1)
        if cut == top and not set(self.tracker.version_at(top)) <= set(version):
            cut = self.tracker.latest_cut_before(top)
        return cut

    # ------------------------------------------------------------------
    # Helpers / introspection
    # ------------------------------------------------------------------
    def _critical_run(self, first: int, last: int) -> tuple[range, list[Operation]]:
        """The §3.5 verbatim run from local position ``first`` (through
        ``last`` at most), for merges and history alike: the events whose
        parent version and own version are both critical, measured from the
        cut at ``first - 1`` (checked, not assumed: a batch's tail cut is
        transient).  Their operations, returned uncoalesced, apply as they
        are to the text of the local-order prefix before ``first``.
        O(log cuts + run length).
        """
        if first > last:
            return range(0), []
        end = min(self.tracker.critical_run_end(first - 1 if first > 0 else 0), last)
        run = range(first, end + 1)
        return run, list(map(self.oplog.graph.op_of, run))

    def _apply_to_rope(self, ops: list[Operation]) -> None:
        rope = self.rope
        for op in ops:
            if op.is_insert:
                rope.insert(op.pos, op.content)
            else:
                rope.delete(op.pos, op.length)

    def _drop_checkpoint(self) -> None:
        if self._ckpt is not None:
            self._ckpt = None
            self.stats.checkpoints_dropped += 1

    @property
    def has_resident_state(self) -> bool:
        """Is walker state currently kept between merges?  ``False`` in the
        steady state (memory is just the text plus the event graph)."""
        return self._ckpt is not None

    def resident_record_count(self) -> int:
        """Span records held by the resident state (0 in the steady state)."""
        return 0 if self._ckpt is None else self._ckpt.state.record_count()
