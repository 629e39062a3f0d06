"""The persistent merge engine: live merges in O(new events) (paper §3.5–3.6).

The paper's headline promise for the *steady state* is that sequential events
bypass the walker entirely and a merge only replays the graph since the last
critical version.  A naive :class:`~repro.core.document.Document` gets the
replay-window part right but pays O(history) *bookkeeping* on every merge:
rebuilding the walker, materialising the full local order and re-scanning the
whole graph for critical versions even when a single event arrived.  Over a
long-lived replica that is quadratic.

:class:`MergeEngine` is the fix.  A document owns one engine for its whole
lifetime, and the engine maintains everything a merge needs *incrementally*:

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
  replay order);
* when concurrency *is* in play, the walker's internal state stays resident
  between merges (a :class:`WalkerCheckpoint`): the next merge
  retreats/advances/applies only the new events against the live state
  instead of re-replaying the whole post-cut window.  Interop splits and
  in-place run extensions are folded into the resident state surgically
  (``checkpoints_patched``) rather than invalidating it.  The checkpoint is
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

====================================  ==============  =================
situation                             legacy rebuild  incremental engine
====================================  ==============  =================
sequential events (quiescent tail)    O(N)            O(k)
concurrent, state resident            O(N + W)        O(k) amortized
concurrent, first merge after a cut   O(N + W)        O(W)
====================================  ==============  =================

The legacy behaviour is kept (``incremental=False``) as the ablation
baseline; both paths produce identical documents, which the convergence
fuzzer checks against the per-character oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..rope import Rope
from .critical_versions import CriticalCutTracker, critical_cut_positions
from .event_graph import Version
from .ids import Operation
from .internal_state import InternalState
from .oplog import OpLog
from .topo_sort import sort_branch_aware
from .walker import EgWalker, ReplayResult, coalesce_ops

__all__ = ["MergeEngine", "MergeEngineStats", "WalkerCheckpoint"]


@dataclass(slots=True)
class MergeEngineStats:
    """Counters proving (or disproving) the O(new events) merge claim.

    ``last_merge_events_touched`` is the headline number: how many events the
    most recent merge had to look at, *including* bookkeeping.  For the
    incremental engine it is O(new events) in the steady state; for the
    legacy rebuild path it is Ω(history) on every merge because of the
    full-order materialisation and critical-cut scan (counted separately in
    ``order_events_materialised`` / ``cut_scan_events``, which stay 0 for the
    incremental engine).
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
    #: = a critical version that survived a delivery (or an in-place
    #: extension the state could not absorb) retired it, returning the
    #: replica to text-only memory.
    checkpoints_kept: int = 0
    checkpoints_dropped: int = 0
    #: Checkpoints surgically patched in place instead of dropped: interop
    #: splits and in-place run extensions landing inside the resident window
    #: are folded into the live state (see the listener hooks), so a
    #: concurrent episode survives re-carvings without re-replaying it.
    checkpoints_patched: int = 0
    #: O(history) bookkeeping — incremental engine keeps all three at 0.
    order_events_materialised: int = 0
    cut_scan_events: int = 0
    walkers_rebuilt: int = 0
    #: Batches whose new events did not form a contiguous tail of the local
    #: order (never expected; handled by falling back to the legacy path).
    non_tail_batches: int = 0
    #: Work profile of the most recent merge.
    last_merge_events_touched: int = 0
    #: History queries (``text_at`` / ``diff``) answered by a walker replay:
    #: ``history_window_events`` were replayed silently (the ancestor window
    #: between the chosen critical-cut base and the *from* version) and
    #: ``history_new_events`` emitted operations.  A diff whose *from*
    #: version is itself a critical version has an empty window — O(new
    #: events) walker work, which ``last_history_events_touched`` proves.
    history_replays: int = 0
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
    resumed from tracked critical cuts).

    Args:
        oplog: the replica's event log; the engine registers itself as a
            graph listener when ``incremental`` is set.
        rope: the document text the transformed operations apply to.
        walker_options: :class:`EgWalker` configuration (backend, clearing,
            span merging, sort strategy) — fixed for the engine's lifetime.
        incremental: ``True`` (default) uses the persistent machinery
            described above; ``False`` selects the legacy rebuild-everything
            merge, kept as the ablation baseline.
    """

    def __init__(
        self,
        oplog: OpLog,
        rope: Rope,
        walker_options: dict[str, Any],
        *,
        incremental: bool = True,
    ) -> None:
        self.oplog = oplog
        self.rope = rope
        self.incremental = incremental
        self.stats = MergeEngineStats()
        self._walker_options = dict(walker_options)
        #: One walker for the engine's whole lifetime: the event graph and
        #: causal-graph view update in place, so there is nothing to rebuild.
        self.walker = EgWalker(oplog.graph, **self._walker_options)
        self._ckpt: WalkerCheckpoint | None = None
        #: Version -> replay-base cut memo for :meth:`_history_cut`, tagged
        #: with the graph length it was computed at.  Any append or split
        #: changes the length (and may re-point local indices or un-make
        #: cuts), which discards the whole memo; in-place extensions change
        #: neither indices nor cuts, so the memo survives them.
        self._history_cut_memo: tuple[int, dict[Version, int | None]] = (-1, {})
        if incremental:
            self.tracker: CriticalCutTracker | None = CriticalCutTracker(oplog.graph)
            oplog.graph.add_listener(self)
        else:
            self.tracker = None

    # ------------------------------------------------------------------
    # Graph listener hooks (checkpoint invalidation)
    # ------------------------------------------------------------------
    def event_split(self, index: int) -> None:
        """An interop re-carving split the run at ``index`` in place.

        Called by the event graph (listener hook).  A split is a semantic
        no-op and the state's records are keyed by character ids (which a
        split never changes), so the resident checkpoint is *patched*, never
        dropped:

        * split inside the covered window: only the per-event bookkeeping is
          re-keyed — a delete run's target list is cut at the split boundary
          (:meth:`InternalState.split_delete_targets`); insert runs need
          nothing (their spans split lazily on demand).  Tracked positions at
          or above the split shift up by one.
        * split at or below the base: no state is involved; just re-index the
          tracked positions.
        * split above ``through``: the state does not cover the run; nothing
          to do.

        O(checkpoint prepare-version heads + split run's target spans).
        """
        ckpt = self._ckpt
        if ckpt is None:
            return
        base = -1 if ckpt.base_cut is None else ckpt.base_cut
        if index >= ckpt.through:
            return
        if base < index:
            # The split run is folded into the live state.  Its records stay
            # valid verbatim; a delete run's retreat/advance bookkeeping is
            # keyed by the event's first-char id, so it is re-keyed under the
            # two halves' ids.
            graph = self.oplog.graph
            left_op = graph.op_of(index)
            if left_op.is_delete:
                ckpt.state.split_delete_targets(graph.id_of(index), left_op.length)
            self.stats.checkpoints_patched += 1
        else:
            ckpt.base_cut = base + 1
        # Tracked positions at or above the split shift up by one; a version
        # naming the whole split run now names its right half (which implies
        # the left transitively).
        ckpt.through += 1
        ckpt.prepare_version = tuple(
            p + 1 if p >= index else p for p in ckpt.prepare_version
        )

    def event_extended(self, index: int, added_length: int) -> None:
        """The frontier run grew in place (sender-side coalescing).

        Listener hook.  When the checkpoint's prepare version is exactly the
        extended run — the common live-typing shape: the local user keeps
        typing at the sole frontier head while remote concurrency is resident
        — the continuation is folded straight into the live state
        (:meth:`InternalState.apply_insert` of the run's next characters /
        :meth:`InternalState.extend_delete`), which is indistinguishable from
        the run having been applied at its full length: the sole-frontier
        precondition of :meth:`EventGraph.extend_event` guarantees no other
        event was prepared after the run, so origins and positions are
        unaffected.  The document text was already updated by the local-edit
        path, so only the state needs the fold.

        If retreats are active (the prepare version is not the extended run
        alone), the state cannot absorb the continuation in place and the
        checkpoint is dropped — the rare case.  O(1) + O(spans folded).
        """
        ckpt = self._ckpt
        if ckpt is None or index >= ckpt.through:
            return
        if ckpt.prepare_version != (index,):
            self._drop_checkpoint()
            return
        graph = self.oplog.graph
        event_id = graph.id_of(index)
        op = graph.op_of(index)  # already extended; recover the old length
        old_length = op.length - added_length
        if op.is_insert:
            ckpt.state.apply_insert(
                event_id.advance(old_length), op.pos + old_length, added_length
            )
        else:
            ckpt.state.extend_delete(event_id, op.pos, added_length)
        self.stats.checkpoints_patched += 1

    # ------------------------------------------------------------------
    # The merge entry point
    # ------------------------------------------------------------------
    def integrate(self, added: list[int]) -> list[Operation]:
        """Fold newly ingested events into the text.

        Args:
            added: local indices of the events the oplog just ingested (a
                contiguous tail of the local order; interop splits land below
                it by construction).

        Returns:
            The transformed operations that were applied to the rope, in
            order — the incremental update of §2.4 (coalesced into maximal
            runs on the incremental engine; per-event on the legacy path).

        Complexity: O(new events) for a sequential batch or while walker
        state is resident; O(window + new) on the first merge after a
        critical cut; the legacy ``incremental=False`` path adds Ω(history)
        bookkeeping per merge (the measured ablation).  See the class
        docstring's table.
        """
        if not added:
            return []
        stats = self.stats
        stats.merges += 1
        stats.events_integrated += len(added)
        graph = self.oplog.graph
        stats.chars_integrated += sum(op.length for op in map(graph.op_of, added))
        if not self.incremental:
            return self._integrate_legacy(added)
        first_new = min(added)
        if len(added) != len(graph) - first_new:
            # New events always form a contiguous tail of the local order
            # (splits of stored runs land below the first appended event);
            # if that invariant ever breaks, fall back to the always-correct
            # legacy path rather than miscount.
            stats.non_tail_batches += 1
            return self._integrate_legacy(added)
        return self._integrate_incremental(first_new)

    def replay_adopted(self) -> None:
        """Rebuild the text of an adopted graph that came without a snapshot:
        the merge without the re-ingest.  Every event already sits in the
        graph (and in the tracker), so the whole local order is integrated in
        place; no walker state stays resident afterwards."""
        self.integrate(list(range(len(self.oplog.graph))))
        self._drop_checkpoint()

    # ------------------------------------------------------------------
    # Incremental path
    # ------------------------------------------------------------------
    def _integrate_incremental(self, first_new: int) -> list[Operation]:
        graph = self.oplog.graph
        tracker = self.tracker
        stats = self.stats
        n = len(graph)
        new_events = list(range(first_new, n))

        # Sequential fast path: every new event whose parent version *and*
        # own version are critical applies verbatim (§3.5) — no walker, no
        # replay order, no state.  The run is measured from the cut just
        # before the batch, which must have survived the new events (the
        # batch's tail is always a cut, and proves nothing about its head).
        # With batched delivery a single batch can hold a sequential prefix
        # followed by a concurrent tail, so the critical run is peeled off
        # the front and only the tail (if any) goes through the replay
        # machinery below.
        parent_pos = first_new - 1 if first_new > 0 else 0
        run_end = tracker.critical_run_end(parent_pos)
        if run_end >= first_new:
            prefix = list(range(first_new, run_end + 1))
            self._drop_checkpoint()  # a critical version formed at run_end
            prefix_ops = list(map(graph.op_of, prefix))
            ops = coalesce_ops(prefix_ops)
            self._apply_to_rope(ops)
            stats.fast_path_events += len(prefix)
            stats.fast_path_chars += sum(op.length for op in prefix_ops)
            if run_end == n - 1:
                # The whole batch was sequential.
                stats.fast_path_merges += 1
                stats.last_merge_events_touched = len(prefix)
                return ops
            # Concurrent tail: integrate it from the critical version the
            # prefix just formed (base = run_end, empty window).
            rest = self._integrate_incremental(run_end + 1)
            stats.last_merge_events_touched += len(prefix)
            return ops + rest

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
            gap = list(range(ckpt.through, first_new))
            order = sort_branch_aware(graph, gap) + sort_branch_aware(graph, new_events)
            result = self.walker.transform(
                gap + new_events,
                base_version=base_version,
                order=order,
                emit_only=set(new_events),
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
            old_range = list(range(replay_start, first_new))
            order = sort_branch_aware(graph, old_range) + sort_branch_aware(
                graph, new_events
            )
            deletes_in_old = sum(
                op.length for op in map(graph.op_of, old_range) if op.is_delete
            )
            result = self.walker.transform(
                old_range + new_events,
                base_version=base_version,
                base_doc_length=len(self.rope) + deletes_in_old,
                order=order,
                emit_only=set(new_events),
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

        The replay base is the latest critical version contained in
        ``from_version`` (a binary-search-backed lookup on the incremental
        engine's :class:`CriticalCutTracker`; the root for the legacy
        ``incremental=False`` engine — its ablation role).  The window
        ``Events(from) - Events(base)`` is replayed silently to rebuild the
        walker state the new events need, then ``Events(to) - Events(from)``
        replays with operations emitted — the §3.6 merge procedure pointed at
        history instead of at the live frontier.  Cost: O(window + new)
        walker work; when ``from_version`` is itself a critical version the
        window is empty and the cost is O(new events) exactly
        (``stats.last_history_events_touched`` records it).

        Returns:
            The transformed operations, coalesced into maximal runs; applying
            them in order to the text at ``from_version`` yields the text at
            ``to_version``.
        """
        graph = self.oplog.graph
        stats = self.stats
        causal = self.walker.causal
        cut = self._history_cut(from_version)
        base_version = () if self.tracker is None else self.tracker.version_at(cut)
        base_length = 0 if cut is None else graph.inserted_chars_through(cut)
        _, window = causal.diff(base_version, from_version)
        _, new_events = causal.diff(from_version, to_version)
        order = sort_branch_aware(graph, window) + sort_branch_aware(graph, new_events)
        result = self.walker.transform(
            window + new_events,
            base_version=base_version,
            base_doc_length=base_length,
            order=order,
            emit_only=set(new_events),
        )
        stats.history_replays += 1
        stats.history_window_events += len(window)
        stats.history_new_events += len(new_events)
        stats.last_history_events_touched = len(window) + len(new_events)
        return coalesce_ops(op for entry in result.transformed for op in entry.ops)

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
        plus that containment test, O(log cuts), memoised per version while
        the graph is unchanged
        (history browsing hits the same versions repeatedly — ``text_at``
        then ``diff`` then ``events_between`` — and each hit is an O(1) dict
        lookup on the version tuple).  ``None`` (replay from the root) when
        no cut qualifies or on the legacy engine (``incremental=False``),
        which keeps full-history replays as its ablation behaviour.
        """
        if not version or self.tracker is None:
            return None
        n = len(self.oplog.graph)
        memo_n, memo = self._history_cut_memo
        if memo_n != n:
            memo = {}
            self._history_cut_memo = (n, memo)
        if version in memo:
            return memo[version]
        top = version[-1]
        cut = self.tracker.latest_cut_before(top + 1)
        if cut == top and not set(self.tracker.version_at(top)) <= set(version):
            cut = self.tracker.latest_cut_before(top)
        memo[version] = cut
        return cut

    # ------------------------------------------------------------------
    # Legacy rebuild path (the ablation baseline)
    # ------------------------------------------------------------------
    def _integrate_legacy(self, added: list[int]) -> list[Operation]:
        """The original rebuild-everything merge (kept for ``incremental=False``).

        Every call rebuilds a fresh walker (and with it a causal-graph view),
        materialises the full local order and re-scans the whole graph for
        the latest critical cut — O(history) bookkeeping per merge, which the
        stats record so benchmarks can show the gap.
        """
        graph = self.oplog.graph
        stats = self.stats
        first_new = min(added)

        walker = EgWalker(graph, **self._walker_options)
        stats.walkers_rebuilt += 1
        local_order = list(range(len(graph)))
        stats.order_events_materialised += len(local_order)
        cuts = critical_cut_positions(graph, local_order)
        stats.cut_scan_events += len(local_order)
        cut = max((c for c in cuts if c < first_new), default=None)
        base_version = () if cut is None else cuts[cut]
        replay_start = 0 if cut is None else cut + 1

        old_range = [idx for idx in range(replay_start, first_new)]
        new_events = sorted(added)
        order = sort_branch_aware(graph, old_range) + sort_branch_aware(graph, new_events)
        deletes_in_old_range = sum(
            op.length for op in map(graph.op_of, old_range) if op.is_delete
        )
        base_doc_length = len(self.rope) + deletes_in_old_range

        result: ReplayResult = walker.transform(
            old_range + new_events,
            base_version=base_version,
            base_doc_length=base_doc_length,
            order=order,
            emit_only=set(new_events),
        )
        stats.replayed_window_events += len(old_range)
        stats.replayed_new_events += len(new_events)
        stats.last_merge_events_touched = len(local_order)

        # Per-event ops, deliberately uncoalesced: the rebuild path preserves
        # the pre-engine behaviour exactly, as the ablation baseline.
        applied = [op for entry in result.transformed for op in entry.ops]
        self._apply_to_rope(applied)
        return applied

    # ------------------------------------------------------------------
    # Helpers / introspection
    # ------------------------------------------------------------------
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
    def walker_options(self) -> dict[str, Any]:
        """The walker configuration this engine was built with (a copy)."""
        return dict(self._walker_options)

    @property
    def has_resident_state(self) -> bool:
        """Is walker state currently kept between merges?  ``False`` in the
        steady state (memory is just the text plus the event graph)."""
        return self._ckpt is not None

    def resident_record_count(self) -> int:
        """Span records held by the resident state (0 in the steady state)."""
        return 0 if self._ckpt is None else self._ckpt.state.record_count()
