"""The Event Graph Walker replay engine (paper §3).

:class:`EgWalker` turns a (portion of an) event graph into a linear sequence
of *transformed* index-based operations that can be applied, in order, to a
document text.  It is the heart of the reproduction: the walker

1. topologically sorts the events to replay, keeping branches contiguous
   (§3.2),
2. for each event, moves its *prepare version* to the event's parents by
   retreating and advancing previously applied events (computed with the
   priority-queue ``diff`` of §3.2),
3. applies the event to the internal CRDT state, which yields the operation
   transformed into the *effect version* (§3.3–3.4), and
4. exploits critical versions (§3.5) to clear the internal state and to skip
   the CRDT entirely for events in purely sequential regions, and placeholders
   (§3.6) so that a merge only replays events after the last critical version.

The pipeline is **run-length encoded end to end**: events are runs, the
internal state applies/retreats/advances whole runs (splitting record spans
only when concurrency forces it), and the transformed output is emitted as
runs — an insert event yields at most one transformed operation, a delete
event yields one operation per contiguous segment of its targets in the
effect version, coalesced back into maximal runs.  Everything therefore costs
O(runs), not O(chars), on realistic traces.

The walker never stores text: transformed insert operations carry their
characters, and the caller applies them to whatever document representation
it uses (see :class:`repro.core.document.Document`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Container, Iterable, Sequence

from .causal_graph import CausalGraph
from .critical_versions import critical_cut_positions
from .event_graph import EventGraph, Version
from .ids import Operation, OpKind, delete_op, insert_op
from .internal_state import InternalState
from .order_statistic_tree import TreeSequence
from .topo_sort import sort_branch_aware, sort_interleaved, sort_local_order

__all__ = ["EgWalker", "ReplayResult", "TransformedOp", "WalkerStats", "coalesce_ops"]


@dataclass(slots=True)
class TransformedOp:
    """One entry of the rebased, linear operation history.

    Attributes:
        event_index: local index of the run event these operations came from.
        ops: the event's operations transformed into the effect version —
            ready to be applied to the document, in order.  An insert run
            yields at most one operation; a delete run yields one operation
            per contiguous effect-version segment.  The tuple is empty when
            the event became a complete no-op (all of its characters had
            already been deleted by concurrent events).
    """

    event_index: int
    ops: tuple[Operation, ...]


@dataclass(slots=True)
class WalkerStats:
    """Counters describing the work a replay performed (used by benchmarks).

    Event counters count *run events*; the ``chars_*`` twins count the
    characters those runs cover, so the run-length-encoding win is directly
    measurable as the ratio between the two.  ``peak_records`` counts span
    items (records + placeholder pieces) held by the internal state at its
    largest; ``peak_record_chars`` counts the characters those spans covered.
    ``spans_merged`` counts how often the state re-merged adjacent same-state
    spans (the inverse of concurrency-forced splitting), and
    ``final_records`` is the span count left when the replay finished — on a
    concurrency-then-quiescence trace re-merging pulls it back below the peak.
    """

    events_processed: int = 0
    chars_processed: int = 0
    events_fast_path: int = 0
    chars_fast_path: int = 0
    retreats: int = 0
    advances: int = 0
    state_clears: int = 0
    peak_records: int = 0
    peak_record_chars: int = 0
    spans_merged: int = 0
    final_records: int = 0


@dataclass(slots=True)
class ReplayResult:
    """The outcome of a replay: transformed operations plus bookkeeping.

    ``state`` and ``prepare_version`` describe where the walker's internal
    CRDT state ended up; a caller that keeps them (the merge engine) can feed
    them back into :meth:`EgWalker.transform` to *resume* — replaying only new
    events against the live state instead of rebuilding the whole window.
    """

    transformed: list[TransformedOp]
    final_length: int
    stats: WalkerStats = field(default_factory=WalkerStats)
    state: InternalState | None = None
    prepare_version: Version = ()

    def ops(self) -> list[Operation]:
        """The non-noop transformed operations, in replay order."""
        return [op for t in self.transformed for op in t.ops]


def coalesce_ops(ops: Iterable[Operation]) -> list[Operation]:
    """Merge adjacent operations back into maximal runs.

    Two consecutive operations merge when applying the second directly after
    the first is equivalent to one longer run: an insert continuing at the end
    of the previous insert, or a delete at the same index as the previous
    delete (the following characters having shifted onto it).
    """
    out: list[Operation] = []
    for op in ops:
        if out:
            prev = out[-1]
            if (
                prev.kind is OpKind.INSERT
                and op.kind is OpKind.INSERT
                and op.pos == prev.pos + prev.length
            ):
                out[-1] = insert_op(prev.pos, prev.content + op.content)
                continue
            if (
                prev.kind is OpKind.DELETE
                and op.kind is OpKind.DELETE
                and op.pos == prev.pos
            ):
                out[-1] = delete_op(prev.pos, prev.length + op.length)
                continue
        out.append(op)
    return out


_SORTERS: dict[str, Callable[[EventGraph, Iterable[int]], list[int]]] = {
    "branch_aware": sort_branch_aware,
    "local": sort_local_order,
    "interleaved": sort_interleaved,
}


class EgWalker:
    """Replays event graphs into transformed operations.

    The internal state lives in the order-statistic tree of §3.4.  Its
    ordering of concurrent insertions is checked against an independent
    implementation of the same YjsMod rule: :class:`repro.crdt.SimpleListCRDT`
    shadows every replica of the convergence fuzzer.

    Args:
        graph: the event graph to replay from.
        enable_clearing: enable the critical-version optimisations of §3.5
            (state clearing plus the transform-free fast path).  Disabling
            this reproduces the "opt disabled" series of Figure 9.
        sort_strategy: ``"branch_aware"`` (default, the paper's heuristic),
            ``"local"`` or ``"interleaved"`` (pathological; used by the
            sort-order ablation).
    """

    def __init__(
        self,
        graph: EventGraph,
        *,
        enable_clearing: bool = True,
        sort_strategy: str = "branch_aware",
    ) -> None:
        if sort_strategy not in _SORTERS:
            raise ValueError(f"unknown sort strategy {sort_strategy!r}")
        self.graph = graph
        self.causal = CausalGraph(graph)
        self.enable_clearing = enable_clearing
        self.sort_strategy = sort_strategy
        self.last_stats: WalkerStats | None = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def transform(
        self,
        events: Iterable[int] | None = None,
        *,
        base_version: Version = (),
        base_doc_length: int = 0,
        order: Sequence[int] | None = None,
        emit_only: Container[int] | None = None,
        state: InternalState | None = None,
        start_prepare_version: Version | None = None,
        clearing: bool | None = None,
    ) -> ReplayResult:
        """Replay ``events`` and return the transformed operation sequence.

        Args:
            events: local indices of the run events to replay.  ``None``
                replays the whole graph.  The set must be closed under
                concurrency relative to ``base_version``: every replayed
                event's parents must either be replayed too or be ancestors of
                ``base_version``.  Ignored when ``order`` is given (the
                merge engine passes ``None`` with its order).
            base_version: the version the replay starts from.  The empty
                version replays from the beginning of history.
            base_doc_length: length (or a safe upper bound on the length) of
                the document at ``base_version``; used to size the initial
                placeholder (§3.6).
            order: explicit replay order, which is then the replayed set.
                When omitted the configured topological sort of ``events`` is
                used.
            emit_only: if given, transformed operations are only collected for
                these events (the rest are replayed silently, as in the merge
                procedure of §3.6).  Anything that answers ``in`` will do;
                the merge engine passes the batch's tail as a ``range``.
            state: an existing :class:`InternalState` to **resume** from (the
                live state a previous ``transform`` returned).  The replayed
                events are applied on top of it; the events it already covers
                must not be replayed again.  When given, ``base_doc_length``
                is ignored (the state already holds its placeholder).
            start_prepare_version: the prepare version the resumed state was
                left at (``ReplayResult.prepare_version`` of the previous
                call).  Defaults to ``base_version``.
            clearing: per-call override of ``enable_clearing``.  A resuming
                caller passes ``False``: criticality of the replayed subset
                alone says nothing about the events already folded into the
                live state, so clearing decisions belong to the engine, not
                the walker.

        Returns:
            A :class:`ReplayResult` with one :class:`TransformedOp` per
            emitted event, in replay order, plus the final internal state and
            prepare version for callers that resume.
        """
        graph = self.graph
        if order is None:
            event_list = range(len(graph)) if events is None else sorted(events)
            order = _SORTERS[self.sort_strategy](graph, event_list)
        else:
            order = list(order)

        if state is None:
            state = InternalState(TreeSequence(base_doc_length))
        sequence = state.sequence
        use_clearing = self.enable_clearing if clearing is None else clearing
        cuts: dict[int, Version] = {}
        if use_clearing:
            cuts = critical_cut_positions(graph, order)

        transformed: list[TransformedOp] = []
        prepare_version: Version = (
            start_prepare_version if start_prepare_version is not None else base_version
        )
        doc_length = base_doc_length
        needs_reset = False
        # The loop below runs once per replayed event: it reads the graph's
        # columns in bulk and counts in locals (written to the stats once).
        ids, parents, ops = graph.to_columns(order)
        chars = fast_events = fast_chars = retreats = advances = clears = 0
        peak_records = peak_chars = 0

        for pos, idx in enumerate(order):
            op = ops[pos]
            length = op.length
            is_insert = op.kind is OpKind.INSERT
            chars += length
            emit = emit_only is None or idx in emit_only
            parent_critical = use_clearing and (pos == 0 or (pos - 1) in cuts)

            if parent_critical and pos in cuts:
                # Fast path (§3.5): both the event's parents and the event
                # itself are critical versions, so the transformed operation
                # is identical to the original (the whole run at once) and the
                # CRDT state is not needed at all.
                fast_events += 1
                fast_chars += length
                if emit:
                    transformed.append(TransformedOp(idx, (op,)))
                doc_length += length if is_insert else -length
                prepare_version = (idx,)
                needs_reset = True
                continue

            if parent_critical:
                # We crossed a critical version: throw the internal state away
                # and restart from a placeholder representing the current
                # document (§3.5 / §3.6).
                state.clear(doc_length)
                clears += 1
                prepare_version = cuts[pos - 1] if pos > 0 else base_version
                needs_reset = False
            elif needs_reset:
                # The state became stale during a run of fast-path events.
                state.clear(doc_length)
                clears += 1
                needs_reset = False

            # Move the prepare version to the event's parents.  Retreats and
            # advances move whole run events at a time.
            target_version = parents[pos]
            if prepare_version != target_version:
                only_prepare, only_target = self.causal.diff(prepare_version, target_version)
                for flip, others in (
                    (state.retreat, reversed(only_prepare)),
                    (state.advance, only_target),
                ):
                    other_ids, _, other_ops = graph.to_columns(others)
                    for other_id, other_op in zip(other_ids, other_ops):
                        flip(other_id, other_op.kind is OpKind.INSERT, other_op.length)
                retreats += len(only_prepare)
                advances += len(only_target)

            # Apply the event.
            if is_insert:
                effect_pos = state.apply_insert(ids[pos], op.pos, length)
                out: tuple[Operation, ...] = (
                    op if effect_pos == op.pos else insert_op(effect_pos, op.content),
                )
                doc_length += length
            else:
                deletes = [
                    delete_op(segment.effect_pos, segment.length)
                    for segment in state.apply_delete(ids[pos], op.pos, length)
                    if segment.effect_pos is not None
                ]
                doc_length -= sum(delete.length for delete in deletes)
                out = tuple(coalesce_ops(deletes) if len(deletes) > 1 else deletes)
            if emit:
                transformed.append(TransformedOp(idx, out))
            prepare_version = (idx,)
            records = sequence.memory_items()
            if records > peak_records:
                peak_records = records
            units = sequence.total_units()
            if units > peak_chars:
                peak_chars = units

        stats = WalkerStats(
            events_processed=len(order),
            chars_processed=chars,
            events_fast_path=fast_events,
            chars_fast_path=fast_chars,
            retreats=retreats,
            advances=advances,
            state_clears=clears,
            peak_records=peak_records,
            peak_record_chars=peak_chars,
            spans_merged=state.spans_merged,
            final_records=sequence.memory_items(),
        )
        self.last_stats = stats
        return ReplayResult(
            transformed=transformed,
            final_length=doc_length,
            stats=stats,
            state=state,
            prepare_version=prepare_version,
        )

    def replay_text(
        self,
        events: Iterable[int] | None = None,
        *,
        base_text: str = "",
        base_version: Version = (),
    ) -> str:
        """Replay events and return the resulting document text.

        Convenience wrapper used by tests, examples and the benchmark
        harness: transformed operations are applied to a simple character
        buffer.  ``base_text`` is the document at ``base_version``.
        """
        result = self.transform(
            events, base_version=base_version, base_doc_length=len(base_text)
        )
        buffer = list(base_text)
        for entry in result.transformed:
            for op in entry.ops:
                if op.is_insert:
                    buffer[op.pos : op.pos] = op.content
                else:
                    del buffer[op.pos : op.pos + op.length]
        return "".join(buffer)

    def text_at_version(self, version: Version) -> str:
        """Reconstruct the document at an arbitrary historical version.

        Replays exactly the events that happened at or before ``version``
        (§2.3: the document at a version is ``replay(Events(V))``).
        """
        subset = self.causal.ancestors(version)
        return self.replay_text(subset)
