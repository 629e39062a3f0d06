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
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Sequence

from ..core.walker import EgWalker
from ..crdt.ref_crdt import RefCRDTDocument
from ..ot.ot_replica import OTDocument
from ..traces.datasets import PAPER_TABLE1, load_all_traces
from ..traces.generator import generate_async
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
