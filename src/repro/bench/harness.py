"""Experiment runners: one function per table / figure of the paper.

Each function takes the traces to run on and returns a list of row
dictionaries; :mod:`repro.bench.report` renders them as aligned text tables
next to the paper's own numbers.  ``python -m repro.bench`` runs everything
and writes a results summary (this is the equivalent of the artifact's
``step1-prepare.sh`` / ``step2*-*.sh`` + ``collect.js`` pipeline).

Experiment index (see DESIGN.md §3):

* :func:`run_table1`      — trace statistics (Table 1)
* :func:`run_merge_time`  — merge + load CPU time per algorithm (Figure 8)
* :func:`run_clearing_ablation` — Eg-walker with/without §3.5 optimisations (Figure 9)
* :func:`run_memory`      — peak / steady-state RAM per algorithm (Figure 10)
* :func:`run_file_size_full`   — full-history file sizes (Figure 11)
* :func:`run_file_size_pruned` — pruned file sizes (Figure 12)
* :func:`run_sort_order_ablation` — merge time vs traversal order (§4.3 remark)
* :func:`run_scaling`     — two-branch merge cost vs branch length (§3.7 complexity)
* :func:`run_merge_latency` — per-merge cost vs history length in a live
  session: the incremental merge engine vs the legacy rebuild path
  (``BENCH_merge_latency.json`` / the perf-smoke CI gate)
* :func:`run_replay_throughput` — end-to-end replay events/sec when a fresh
  replica consumes a whole trace in batches, incremental engine on vs off
  (``BENCH_replay_throughput.json`` / the replay perf-smoke CI gate)
* :func:`run_cold_load` — cold-load-to-first-text from a storage container:
  bytes touched and events materialised for a selective text read vs a full
  graph hydration (``BENCH_cold_load.json`` / the storage-format CI gate)
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

from ..core.document import Document
from ..core.ids import EventId, insert_op
from ..core.oplog import RemoteEvent, graph_to_remote_events
from ..core.walker import EgWalker
from ..crdt.ref_crdt import RefCRDTDocument
from ..ot.ot_replica import OTDocument
from ..traces.datasets import PAPER_TABLE1, TRACE_NAMES, load_all_traces
from ..traces.generator import generate_async, generate_concurrent
from ..traces.stats import compute_stats
from ..traces.trace import Trace
from .adapters import ALL_ADAPTERS, AlgorithmAdapter, EgWalkerAdapter
from .memory import measure_memory

__all__ = [
    "run_table1",
    "run_merge_time",
    "run_clearing_ablation",
    "run_memory",
    "run_file_size_full",
    "run_file_size_pruned",
    "run_sort_order_ablation",
    "run_scaling",
    "run_merge_latency",
    "run_replay_throughput",
    "run_cold_load",
    "run_all",
]


def _timed(action) -> tuple[object, float]:
    start = time.perf_counter()
    result = action()
    return result, time.perf_counter() - start


def _traces(traces: dict[str, Trace] | None) -> dict[str, Trace]:
    return traces if traces is not None else load_all_traces()


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------
def run_table1(traces: dict[str, Trace] | None = None) -> list[dict[str, object]]:
    rows = []
    for name, trace in _traces(traces).items():
        stats = compute_stats(trace).as_row()
        paper = PAPER_TABLE1.get(name, {})
        row = {"trace": name}
        row.update({f"measured_{k}": v for k, v in stats.items() if k != "name"})
        row.update({f"paper_{k}": v for k, v in paper.items()})
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figure 8: merge time and load time
# ----------------------------------------------------------------------
def run_merge_time(
    traces: dict[str, Trace] | None = None,
    adapters: Sequence[AlgorithmAdapter] | None = None,
) -> list[dict[str, object]]:
    adapters = list(adapters) if adapters is not None else ALL_ADAPTERS()
    rows = []
    for name, trace in _traces(traces).items():
        for adapter in adapters:
            outcome, merge_seconds = _timed(lambda: adapter.merge(trace))
            saved = adapter.save(trace, outcome)
            _, load_seconds = _timed(lambda: adapter.load(saved))
            rows.append(
                {
                    "trace": name,
                    "algorithm": adapter.name,
                    "merge_ms": round(merge_seconds * 1000, 2),
                    "load_ms": round(load_seconds * 1000, 3),
                    "final_chars": len(outcome.text),
                }
            )
    return rows


# ----------------------------------------------------------------------
# Figure 9: the state-clearing / fast-path optimisation
# ----------------------------------------------------------------------
def run_clearing_ablation(traces: dict[str, Trace] | None = None) -> list[dict[str, object]]:
    rows = []
    for name, trace in _traces(traces).items():
        for enabled in (True, False):
            walker = EgWalker(trace.graph, enable_clearing=enabled)
            _, seconds = _timed(walker.replay_text)
            stats = walker.last_stats
            rows.append(
                {
                    "trace": name,
                    "optimisation": "enabled" if enabled else "disabled",
                    "merge_ms": round(seconds * 1000, 2),
                    "fast_path_events": stats.events_fast_path if stats else 0,
                    "state_clears": stats.state_clears if stats else 0,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Figure 10: memory
# ----------------------------------------------------------------------
def run_memory(
    traces: dict[str, Trace] | None = None,
    adapters: Sequence[AlgorithmAdapter] | None = None,
) -> list[dict[str, object]]:
    adapters = list(adapters) if adapters is not None else ALL_ADAPTERS()
    rows = []
    for name, trace in _traces(traces).items():
        for adapter in adapters:
            outcome, measurement = measure_memory(lambda: adapter.merge(trace))
            # Steady state: what must stay alive for the user to keep editing.
            # For Eg-walker and OT that is the text; for the CRDTs it is the
            # whole document object (the `retained` field keeps it alive while
            # tracemalloc takes the final reading above).
            row = {
                "trace": name,
                "algorithm": adapter.name,
                "peak_kib": round(measurement.peak_bytes / 1024, 1),
                "steady_kib": round(measurement.retained_bytes / 1024, 1),
                "text_kib": round(len(outcome.text.encode("utf-8")) / 1024, 1),
                "char_events": trace.graph.num_chars,
                "run_events": len(trace.graph),
            }
            stats = getattr(adapter, "last_stats", None)
            if stats is not None:
                row["peak_span_records"] = stats.peak_records
                row["peak_span_record_chars"] = stats.peak_record_chars
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figures 11 and 12: file sizes
# ----------------------------------------------------------------------
def run_file_size_full(traces: dict[str, Trace] | None = None) -> list[dict[str, object]]:
    """Full-history formats: Eg-walker encoding (± cached doc) vs Automerge-like."""
    from .adapters import AutomergeLikeAdapter

    rows = []
    automerge = AutomergeLikeAdapter()
    for name, trace in _traces(traces).items():
        outcome = EgWalkerAdapter().merge(trace)
        inserted_chars = sum(e.op.length for e in trace.graph.events() if e.op.is_insert)
        eg_plain = EgWalkerAdapter(cache_final_doc=False).save(trace, outcome)
        eg_cached = EgWalkerAdapter(cache_final_doc=True).save(trace, outcome)
        eg_deflated = EgWalkerAdapter(cache_final_doc=False, compress_columns=True).save(
            trace, outcome
        )
        eg_deflated_cached = EgWalkerAdapter(
            cache_final_doc=True, compress_columns=True
        ).save(trace, outcome)
        am_outcome = automerge.merge(trace)
        am_bytes = automerge.save(trace, am_outcome)
        rows.append(
            {
                "trace": name,
                "inserted_text_bytes": inserted_chars,
                "egwalker_bytes": len(eg_plain),
                "egwalker_cached_doc_bytes": len(eg_cached),
                "egwalker_compressed_bytes": len(eg_deflated),
                "egwalker_compressed_cached_doc_bytes": len(eg_deflated_cached),
                "automerge_like_bytes": len(am_bytes),
            }
        )
    return rows


def run_file_size_pruned(traces: dict[str, Trace] | None = None) -> list[dict[str, object]]:
    """Deleted-content-free formats: pruned Eg-walker encoding vs Yjs-like."""
    from .adapters import YjsLikeAdapter

    rows = []
    yjs = YjsLikeAdapter()
    for name, trace in _traces(traces).items():
        eg = EgWalkerAdapter()
        outcome = eg.merge(trace)
        pruned = eg.save_pruned(trace, outcome)
        pruned_deflated = EgWalkerAdapter(compress_columns=True).save_pruned(
            trace, outcome
        )
        yjs_outcome = yjs.merge(trace)
        yjs_bytes = yjs.save(trace, yjs_outcome)
        rows.append(
            {
                "trace": name,
                "final_doc_bytes": len(outcome.text.encode("utf-8")),
                "egwalker_pruned_bytes": len(pruned),
                "egwalker_compressed_pruned_bytes": len(pruned_deflated),
                "yjs_like_bytes": len(yjs_bytes),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Cold load: selective column reads vs full hydration
# ----------------------------------------------------------------------
def run_cold_load(traces: dict[str, Trace] | None = None) -> list[dict[str, object]]:
    """Cold-load-to-first-text from a pruned, snapshot-bearing container.

    For each trace the document is persisted the way the hosting layer will
    evict it (pruned content + snapshot column), then loaded cold three ways:

    * **selective text** — :class:`~repro.storage.LazyDecodedFile` reading
      just the snapshot column: the structural claim is *zero* events
      materialised and only a fraction of the file's bytes touched;
    * **lazy history** — the same file after a first ``history`` access:
      exactly one hydration pays for the remaining columns;
    * **full decode** — the load that materialises everything
      up front, as the baseline for the bytes/events columns;
    * **editable open** — :meth:`LazyDecodedFile.document`, the adoption
      path ``Document.from_bytes`` shares: one graph built once, the text
      taken from the snapshot column, nothing merged and no walker state,
      checked by one local insert against the oracle text.

    Also records whether a *snapshot-free* file can still serve its text
    selectively (linear histories replay ops over content span-wise).
    """
    from ..storage.container import (
        ContainerOptions,
        LazyDecodedFile,
        StorageError,
        encode_event_graph_v3,
    )

    rows = []
    for name, trace in _traces(traces).items():
        outcome = EgWalkerAdapter().merge(trace)
        data = encode_event_graph_v3(
            trace.graph,
            ContainerOptions(
                prune_deleted_content=True,
                include_snapshot=True,
                final_text=outcome.text,
            ),
        )

        cold = LazyDecodedFile(data)
        (text, cold_seconds) = _timed(lambda: cold.text)
        cold_bytes = cold.stats.bytes_read
        cold_events = cold.stats.events_materialised

        lazy = LazyDecodedFile(data)
        _ = lazy.text
        (_, history_seconds) = _timed(lambda: lazy.history)
        _ = lazy.history  # second access: cached, no second hydration

        full = LazyDecodedFile(data)
        (_, full_seconds) = _timed(lambda: full.graph)

        editable = LazyDecodedFile(data)
        document = editable.document("cold-editor")
        document.insert(0, "x")

        plain = encode_event_graph_v3(trace.graph)
        try:
            selective_no_snapshot = LazyDecodedFile(plain).selective_text() == outcome.text
        except StorageError:
            selective_no_snapshot = False

        rows.append(
            {
                "trace": name,
                "file_bytes": len(data),
                "cold_text_ok": text == outcome.text,
                "cold_text_ms": round(cold_seconds * 1000, 3),
                "cold_text_bytes_read": cold_bytes,
                "cold_text_events_materialised": cold_events,
                "cold_text_read_fraction": round(cold_bytes / len(data), 4),
                "history_hydrations": lazy.stats.hydrations,
                "history_ms": round(history_seconds * 1000, 3),
                "full_load_ms": round(full_seconds * 1000, 3),
                "full_load_events": full.stats.events_materialised,
                "full_load_bytes_read": full.stats.bytes_read,
                "editable_open_events_materialised": editable.stats.events_materialised,
                "editable_open_merges": document.merge_stats.merges,
                "editable_open_events_integrated": document.merge_stats.events_integrated,
                "editable_open_resident_state": document.engine.has_resident_state,
                "editable_open_text_ok": document.text == "x" + outcome.text,
                "selective_text_without_snapshot": selective_no_snapshot,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Ablation X1: traversal order sensitivity (§4.3)
# ----------------------------------------------------------------------
def run_sort_order_ablation(
    traces: dict[str, Trace] | None = None, trace_names: Iterable[str] = ("C1", "A2")
) -> list[dict[str, object]]:
    all_traces = _traces(traces)
    rows = []
    for name in trace_names:
        if name not in all_traces:
            continue
        trace = all_traces[name]
        for strategy in ("branch_aware", "local", "interleaved"):
            walker = EgWalker(trace.graph, sort_strategy=strategy)
            _, seconds = _timed(walker.replay_text)
            stats = walker.last_stats
            rows.append(
                {
                    "trace": name,
                    "sort_order": strategy,
                    "merge_ms": round(seconds * 1000, 2),
                    "retreats": stats.retreats if stats else 0,
                    "advances": stats.advances if stats else 0,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Ablation X2: two-branch merge scaling (§3.7)
# ----------------------------------------------------------------------
def run_scaling(branch_sizes: Sequence[int] = (250, 500, 1000, 2000)) -> list[dict[str, object]]:
    """Merge cost of two offline branches of k events each, per algorithm.

    Eg-walker should scale near-linearly (O(k log k)); OT quadratically; the
    reference CRDT in between.  This regenerates the complexity claim of §3.7.
    """
    rows = []
    for size in branch_sizes:
        trace = generate_async(
            f"scale-{size}",
            target_events=2 * size,
            seed=size,
            concurrent_branches=2,
            events_per_branch=size,
            authors=2,
            keep_unmerged=False,
        )
        eg_walker = EgWalker(trace.graph)
        _, eg_seconds = _timed(eg_walker.replay_text)
        ot = OTDocument()
        _, ot_seconds = _timed(lambda: ot.merge_event_graph(trace.graph))
        ref = RefCRDTDocument()
        _, ref_seconds = _timed(lambda: ref.merge_event_graph(trace.graph))
        rows.append(
            {
                "branch_events": size,
                "total_events": len(trace.graph),
                "egwalker_ms": round(eg_seconds * 1000, 2),
                "ot_ms": round(ot_seconds * 1000, 2),
                "ref_crdt_ms": round(ref_seconds * 1000, 2),
                "ot_work_units": ot.work_units,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Live merge latency: per-merge cost vs. history length (merge engine)
# ----------------------------------------------------------------------
def _ship_keystroke(editor: Document, watcher: Document, mark: int) -> tuple[float, int]:
    """One keystroke on the editor, delivered to the watcher as a delta.

    Returns the watcher's merge latency in seconds and the new export mark.
    With sender-side run coalescing the keystroke usually *extends* an event
    in place, so only the one-character suffix travels — the live-wire shape.
    """
    editor.insert(len(editor.text), "x")
    delta = editor.oplog.export_since_seq(editor.agent, mark)
    mark = editor.oplog.graph.next_seq_for(editor.agent)
    start = time.perf_counter()
    watcher.apply_remote_events(delta)
    return time.perf_counter() - start, mark


def run_merge_latency(
    max_events: int = 1600, checkpoints: Sequence[int] | None = None
) -> list[dict[str, object]]:
    """Per-merge latency and engine work vs. history length, both engine modes.

    A watcher replica receives a live stream of single events while its
    history grows to ``max_events``.  At each checkpoint the cost of one
    sequential delivery (the fast path) and one concurrent delivery (the
    walker path against the resident state) is recorded, together with the
    engine's ``last_merge_events_touched`` counter.  The incremental engine
    must be flat in the history length; the legacy rebuild path
    (``incremental=False``) grows linearly — the acceptance curve of the
    merge-engine work.  A last row (:func:`_two_author_row`) records the
    window work of a whole two-author session delivered event by event.
    """
    if checkpoints is None:
        checkpoints = [max_events // 8, max_events // 4, max_events // 2, max_events]
    rows: list[dict[str, object]] = []
    for incremental in (True, False):
        editor = Document("editor")
        watcher = Document("watcher", incremental=incremental)
        mark = 0
        intruder_seq = 0
        for checkpoint in checkpoints:
            while len(watcher.oplog.graph) < checkpoint - 1:
                _, mark = _ship_keystroke(editor, watcher, mark)

            history = len(watcher.oplog.graph)
            seq_seconds, mark = _ship_keystroke(editor, watcher, mark)
            rows.append(
                {
                    "incremental": incremental,
                    "delivery": "sequential",
                    "history_events": history,
                    "merge_ms": round(seq_seconds * 1000, 4),
                    "merge_work_events": watcher.merge_stats.last_merge_events_touched,
                }
            )

            # A concurrent delivery: an event forking from two events back
            # exercises the walker path at this history length.  The window
            # the engine replays stays O(1); the rebuild path scans all.
            graph = watcher.oplog.graph
            intruder = RemoteEvent(
                id=EventId("intruder", intruder_seq),
                parents=(graph.dependency_id(len(graph) - 2),),
                op=insert_op(0, "Z"),
            )
            intruder_seq += 1
            history = len(graph)
            start = time.perf_counter()
            watcher.apply_remote_events([intruder])
            conc_seconds = time.perf_counter() - start
            rows.append(
                {
                    "incremental": incremental,
                    "delivery": "concurrent",
                    "history_events": history,
                    "merge_ms": round(conc_seconds * 1000, 4),
                    "merge_work_events": watcher.merge_stats.last_merge_events_touched,
                }
            )

            # Re-quiesce: the editor pulls everything (intruder included)
            # and types once — that event dominates all heads, forming a
            # fresh critical version, so the next checkpoint starts in the
            # steady state.
            editor.merge(watcher)
            editor.insert(len(editor.text), ". ")
            delta = editor.oplog.export_since_seq(editor.agent, mark)
            mark = editor.oplog.graph.next_seq_for(editor.agent)
            watcher.apply_remote_events(delta)

        stats = watcher.merge_stats
        rows.append(
            {
                "incremental": incremental,
                "delivery": "summary",
                "history_events": len(watcher.oplog.graph),
                "merges": stats.merges,
                "fast_path_merges": stats.fast_path_merges,
                "resumed_merges": stats.resumed_merges,
                "fresh_replays": stats.fresh_replays,
                "walkers_rebuilt": stats.walkers_rebuilt,
                "cut_scan_events": stats.cut_scan_events,
                "order_events_materialised": stats.order_events_materialised,
            }
        )
        assert watcher.text == editor.text
    rows.append(_two_author_row(max_events))
    return rows


def _two_author_row(max_events: int) -> dict[str, object]:
    """Two authors typing at once, one event per delta (the paper's C1/C2
    shape as a live server or replica sees it).

    Every exchange ends in a two-head critical version, so each merge
    replays at most its own exchange: ``window_events_per_event`` stays
    below 1 at any history length.  An engine that misses those versions
    replays from the root once per exchange and the ratio grows with the
    history (47 at 640 events).
    """
    trace = generate_concurrent("two-author-live", target_events=4 * max_events, seed=21)
    watcher = Document("watcher")
    events = graph_to_remote_events(trace.graph)

    def deliver() -> None:
        for event in events:
            watcher.apply_remote_events([event])

    _, seconds = _timed(deliver)
    assert watcher.text == EgWalker(trace.graph).replay_text()
    stats = watcher.merge_stats
    return {
        "incremental": True,
        "delivery": "two_author",
        "history_events": len(watcher.oplog.graph),
        "merge_ms": round(seconds * 1000 / stats.merges, 4),
        "events_integrated": stats.events_integrated,
        "replayed_window_events": stats.replayed_window_events,
        "window_events_per_event": round(
            stats.replayed_window_events / stats.events_integrated, 3
        ),
        "fresh_replays": stats.fresh_replays,
        "checkpoints_dropped": stats.checkpoints_dropped,
    }


# ----------------------------------------------------------------------
# Replay throughput: end-to-end events/sec consuming a whole trace
# ----------------------------------------------------------------------
def run_replay_throughput(
    traces: dict[str, Trace] | None = None,
    trace_names: Iterable[str] = ("S3", "C2"),
    batch_size: int = 8,
) -> list[dict[str, object]]:
    """End-to-end replay throughput: a fresh replica consumes a whole trace.

    For each trace the portable event stream is delivered to a brand-new
    :class:`Document` in batches of ``batch_size`` (the live-session shape:
    many small merges against a growing history, not one bulk load), once
    with the incremental merge engine and once with the legacy rebuild path.
    The headline number is **run events per second**; the engine's own
    counters (resumed merges, window events replayed, checkpoint lifecycle)
    are recorded next to it so a throughput regression can be attributed:
    a critical version the engine misses, or a checkpoint dropped inside an
    exchange, shows up directly as redundant ``replayed_window_events``.

    The receiver's final text is checked against a one-shot walker replay of
    the same graph, so the numbers can never come from a broken merge.
    """
    all_traces = _traces(traces)
    rows: list[dict[str, object]] = []
    for name in trace_names:
        if name not in all_traces:
            continue
        trace = all_traces[name]
        graph = trace.graph
        events = graph_to_remote_events(graph)
        expected_text = EgWalker(graph).replay_text()
        for incremental in (True, False):
            receiver = Document("receiver", incremental=incremental)

            def deliver() -> None:
                for start in range(0, len(events), batch_size):
                    receiver.apply_remote_events(events[start : start + batch_size])

            _, seconds = _timed(deliver)
            assert receiver.text == expected_text
            stats = receiver.merge_stats
            row: dict[str, object] = {
                "trace": name,
                "incremental": incremental,
                "batch_size": batch_size,
                "run_events": len(receiver.oplog.graph),
                "char_events": receiver.oplog.graph.num_chars,
                "seconds": round(seconds, 4),
                "events_per_sec": round(len(receiver.oplog.graph) / seconds, 1),
                "chars_per_sec": round(receiver.oplog.graph.num_chars / seconds, 1),
                "fast_path_events": stats.fast_path_events,
                "resumed_merges": stats.resumed_merges,
                "fresh_replays": stats.fresh_replays,
                "replayed_window_events": stats.replayed_window_events,
                "replayed_new_events": stats.replayed_new_events,
                "checkpoints_kept": stats.checkpoints_kept,
                "checkpoints_dropped": stats.checkpoints_dropped,
                "checkpoints_patched": stats.checkpoints_patched,
                "cut_scan_events": stats.cut_scan_events,
            }
            # The session closes: someone who has seen everything types once
            # more.  The event names every head of the last exchange, which
            # confirms that critical version and returns the replica to
            # text-only memory (§3.5).
            received = receiver.oplog.graph
            receiver.apply_remote_events(
                [
                    RemoteEvent(
                        id=EventId("closer", 0),
                        parents=received.ids_from_version(received.frontier),
                        op=insert_op(0, "."),
                    )
                ]
            )
            row["resident_state_after_close"] = receiver.engine.has_resident_state
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
def run_all(traces: dict[str, Trace] | None = None) -> dict[str, list[dict[str, object]]]:
    """Run every experiment and return all result rows, keyed by experiment id."""
    traces = _traces(traces)
    return {
        "table1_trace_stats": run_table1(traces),
        "fig8_merge_and_load_time": run_merge_time(traces),
        "fig9_clearing_optimisation": run_clearing_ablation(traces),
        "fig10_memory": run_memory(traces),
        "fig11_file_size_full": run_file_size_full(traces),
        "fig12_file_size_pruned": run_file_size_pruned(traces),
        "x1_sort_order": run_sort_order_ablation(traces),
        "x2_scaling": run_scaling(),
        "x3_merge_latency": run_merge_latency(),
        "x4_replay_throughput": run_replay_throughput(traces),
        "x5_cold_load": run_cold_load(traces),
    }
