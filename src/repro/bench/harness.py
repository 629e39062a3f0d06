"""Experiment runners: one function per table / figure of the paper.

Each function takes the traces to run on and returns a list of row
dictionaries; :mod:`repro.bench.report` renders them as aligned text tables
next to the paper's own numbers.  ``python -m repro.bench`` runs everything
and writes a results summary (this is the equivalent of the artifact's
``step1-prepare.sh`` / ``step2*-*.sh`` + ``collect.js`` pipeline).  The
runners are the only code that runs an experiment: the claim checks under
``benchmarks/`` assert over the rows they return, so a row carries the raw
counts and the correctness facts (``*_matches_*``) those checks read next
to the rounded figures the tables print.

Experiment index:

* :func:`run_table1`      — trace statistics (Table 1)
* :func:`run_merge_time`  — merge + load CPU time per algorithm (Figure 8)
* :func:`run_clearing_ablation` — Eg-walker with/without §3.5 optimisations (Figure 9)
* :func:`run_memory`      — peak / steady-state RAM per algorithm (Figure 10)
* :func:`run_file_size_full`   — full-history file sizes (Figure 11)
* :func:`run_file_size_pruned` — pruned file sizes (Figure 12)
* :func:`run_sort_order_ablation` — merge time vs traversal order (§4.3 remark)
* :func:`run_scaling`     — two-branch merge cost vs branch length (§3.7 complexity)
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Sequence

from ..core.document import Document
from ..core.oplog import graph_to_remote_events
from ..core.walker import EgWalker
from ..crdt.ref_crdt import RefCRDTDocument
from ..ot.ot_replica import OTDocument
from ..traces.datasets import PAPER_TABLE1, load_all_traces
from ..traces.generator import generate_async
from ..traces.stats import compute_stats
from ..traces.trace import Trace
from .adapters import (
    ALL_ADAPTERS,
    AlgorithmAdapter,
    AutomergeLikeAdapter,
    EgWalkerAdapter,
    MergeOutcome,
    YjsLikeAdapter,
)
from .memory import MemoryMeasurement, measure_memory

__all__ = [
    "run_table1",
    "run_merge_time",
    "run_clearing_ablation",
    "run_memory",
    "run_file_size_full",
    "run_file_size_pruned",
    "run_sort_order_ablation",
    "run_scaling",
    "EXPERIMENTS",
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
        rows.extend(_row(name, a.name, lambda: _merge_save_load(trace, a)) for a in adapters)
    return rows


def _merge_save_load(trace: Trace, adapter: AlgorithmAdapter) -> dict[str, object]:
    outcome, merge_seconds = _timed(lambda: adapter.merge(trace))
    saved = adapter.save(trace, outcome)
    loaded, load_seconds = _timed(lambda: adapter.load(saved))
    return {
        "merge_ms": round(merge_seconds * 1000, 2),
        "load_ms": round(load_seconds * 1000, 3),
        "final_chars": len(outcome.text),
        "file_bytes": len(saved),
        "text_matches_trace": outcome.text == trace.final_text,
        "load_matches_merge": loaded == outcome.text,
    }


def _row(
    trace_name: str, algorithm: str, measure: Callable[[], dict[str, object]]
) -> dict[str, object]:
    """One algorithm's row: what ``measure`` returns, or the error it raised,
    so one broken algorithm fails its own row rather than the whole run."""
    row: dict[str, object] = {"trace": trace_name, "algorithm": algorithm}
    try:
        row.update(measure())
    except Exception as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


# ----------------------------------------------------------------------
# Figure 9: the state-clearing / fast-path optimisation
# ----------------------------------------------------------------------
def run_clearing_ablation(traces: dict[str, Trace] | None = None) -> list[dict[str, object]]:
    rows = []
    for name, trace in _traces(traces).items():
        for enabled in (True, False):
            walker = EgWalker(trace.graph, enable_clearing=enabled)
            text, seconds = _timed(walker.replay_text)
            stats = walker.last_stats
            assert stats is not None
            rows.append(
                {
                    "trace": name,
                    "optimisation": "enabled" if enabled else "disabled",
                    "merge_ms": round(seconds * 1000, 2),
                    "run_events": len(trace.graph),
                    "fast_path_events": stats.events_fast_path,
                    "state_clears": stats.state_clears,
                    "peak_records": stats.peak_records,
                    "text_matches_trace": text == trace.final_text,
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
    """Peak and steady-state heap of every algorithm's merge, plus the
    ``eg-walker-replica`` row: a :class:`Document` that merged the trace's
    events and keeps its event graph to go on editing and syncing.

    ``crdt_steady_ratio`` is the reference CRDT's steady state over the row's
    (claim C5 on the ``eg-walker`` row), when the reference CRDT ran.
    """
    adapters = list(adapters) if adapters is not None else ALL_ADAPTERS()
    rows = []
    for name, trace in _traces(traces).items():
        trace_rows = [_row(name, a.name, lambda: _merge_memory(trace, a)) for a in adapters]
        trace_rows.append(_row(name, "eg-walker-replica", lambda: _replica_memory(trace)))
        steady = {r["algorithm"]: r["steady_bytes"] for r in trace_rows if "steady_bytes" in r}
        if "ref-crdt" in steady:
            for row in trace_rows:
                if "steady_bytes" in row:
                    row["crdt_steady_ratio"] = steady["ref-crdt"] / max(1, row["steady_bytes"])
        rows.extend(trace_rows)
    return rows


def _merge_memory(trace: Trace, adapter: AlgorithmAdapter) -> dict[str, object]:
    # Steady state: what must stay alive for the user to keep editing.  For
    # Eg-walker and OT that is the text; for the CRDTs it is the whole
    # document object (the `retained` field keeps it alive while tracemalloc
    # takes the final reading).
    outcome, measurement = measure_memory(lambda: adapter.merge(trace))
    row = _memory(trace, outcome, measurement)
    stats = getattr(adapter, "last_stats", None)
    if stats is not None:
        row["peak_span_records"] = stats.peak_records
        row["peak_span_record_chars"] = stats.peak_record_chars
        row["fast_path_events"] = stats.events_fast_path
        row["fast_path_chars"] = stats.chars_fast_path
    return row


def _memory(
    trace: Trace, merged: MergeOutcome | Document, measurement: MemoryMeasurement
) -> dict[str, object]:
    text_bytes = len(merged.text.encode("utf-8"))
    return {
        "peak_kib": round(measurement.peak_bytes / 1024, 1),
        "steady_kib": round(measurement.retained_bytes / 1024, 1),
        "text_kib": round(text_bytes / 1024, 1),
        "peak_bytes": measurement.peak_bytes,
        "steady_bytes": measurement.retained_bytes,
        "text_bytes": text_bytes,
        "char_events": trace.graph.num_chars,
        "run_events": len(trace.graph),
    }


def _replica_memory(trace: Trace) -> dict[str, object]:
    events = graph_to_remote_events(trace.graph)  # built outside the measurement

    def replica() -> Document:
        document = Document("fig10-replica")
        document.apply_remote_events(events)
        return document

    return _memory(trace, *measure_memory(replica))


# ----------------------------------------------------------------------
# Figures 11 and 12: file sizes
# ----------------------------------------------------------------------
def run_file_size_full(traces: dict[str, Trace] | None = None) -> list[dict[str, object]]:
    """Full-history formats: Eg-walker encoding (± cached doc, ± per-column
    deflate) vs Automerge-like, next to the UTF-8 bytes of all inserted text."""
    rows = []
    automerge = AutomergeLikeAdapter()
    for name, trace in _traces(traces).items():
        outcome = EgWalkerAdapter().merge(trace)
        inserted = sum(
            len(e.op.content.encode("utf-8")) for e in trace.graph.events() if e.op.is_insert
        )
        row: dict[str, object] = {"trace": name, "inserted_text_bytes": inserted}
        for column, cached, compressed in (
            ("egwalker_bytes", False, False),
            ("egwalker_cached_doc_bytes", True, False),
            ("egwalker_compressed_bytes", False, True),
            ("egwalker_compressed_cached_doc_bytes", True, True),
        ):
            adapter = EgWalkerAdapter(cache_final_doc=cached, compress_columns=compressed)
            row[column] = len(adapter.save(trace, outcome))
        row["automerge_like_bytes"] = len(automerge.save(trace, automerge.merge(trace)))
        rows.append(row)
    return rows


def run_file_size_pruned(traces: dict[str, Trace] | None = None) -> list[dict[str, object]]:
    """Deleted-content-free formats: pruned Eg-walker encoding vs Yjs-like."""
    rows = []
    yjs = YjsLikeAdapter()
    for name, trace in _traces(traces).items():
        rows.append(
            {
                "trace": name,
                "final_doc_bytes": len(trace.final_text.encode("utf-8")),
                "egwalker_pruned_bytes": len(EgWalkerAdapter().save_pruned(trace)),
                "egwalker_compressed_pruned_bytes": len(
                    EgWalkerAdapter(compress_columns=True).save_pruned(trace)
                ),
                "yjs_like_bytes": len(yjs.save(trace, yjs.merge(trace))),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Ablation X1: traversal order sensitivity (§4.3)
# ----------------------------------------------------------------------
def run_sort_order_ablation(
    traces: dict[str, Trace] | None = None,
    trace_names: Iterable[str] = ("C1", "C2", "A1", "A2"),
) -> list[dict[str, object]]:
    all_traces = _traces(traces)
    rows = []
    for name in trace_names:
        if name not in all_traces:
            continue
        trace = all_traces[name]
        for strategy in ("branch_aware", "local", "interleaved"):
            walker = EgWalker(trace.graph, sort_strategy=strategy)
            text, seconds = _timed(walker.replay_text)
            stats = walker.last_stats
            assert stats is not None
            rows.append(
                {
                    "trace": name,
                    "sort_order": strategy,
                    "merge_ms": round(seconds * 1000, 2),
                    "retreats": stats.retreats,
                    "advances": stats.advances,
                    # The traversal order must never change the result (Lemma C.8).
                    "text_matches_trace": text == trace.final_text,
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
            f"scaling-{size}",
            target_events=2 * size,
            seed=9000 + size,
            concurrent_branches=2,
            events_per_branch=size,
            authors=2,
        )
        eg_text, eg_seconds = _timed(EgWalker(trace.graph).replay_text)
        ot = OTDocument()
        ot_text, ot_seconds = _timed(lambda: ot.merge_event_graph(trace.graph))
        ref_text, ref_seconds = _timed(lambda: RefCRDTDocument().merge_event_graph(trace.graph))
        rows.append(
            {
                "branch_events": size,
                "total_events": len(trace.graph),
                "egwalker_ms": round(eg_seconds * 1000, 2),
                "ot_ms": round(ot_seconds * 1000, 2),
                "ref_crdt_ms": round(ref_seconds * 1000, 2),
                "ot_work_units": ot.work_units,
                "final_chars": len(trace.final_text),
                "ot_chars": len(ot_text),
                "egwalker_matches_trace": eg_text == trace.final_text,
                "ref_crdt_matches_trace": ref_text == trace.final_text,
            }
        )
    return rows


# ----------------------------------------------------------------------
#: Every experiment, once: CLI name -> (result key, runner over the traces).
EXPERIMENTS: dict[str, tuple[str, Callable[[dict[str, Trace]], list[dict[str, object]]]]] = {
    "table1": ("table1_trace_stats", run_table1),
    "fig8": ("fig8_merge_and_load_time", run_merge_time),
    "fig9": ("fig9_clearing_optimisation", run_clearing_ablation),
    "fig10": ("fig10_memory", run_memory),
    "fig11": ("fig11_file_size_full", run_file_size_full),
    "fig12": ("fig12_file_size_pruned", run_file_size_pruned),
    "x1": ("x1_sort_order", run_sort_order_ablation),
    "x2": ("x2_scaling", lambda traces: run_scaling()),
}


def run_all(traces: dict[str, Trace] | None = None) -> dict[str, list[dict[str, object]]]:
    """Run every experiment and return all result rows, keyed by experiment id."""
    traces = _traces(traces)
    return {key: runner(traces) for key, runner in EXPERIMENTS.values()}
