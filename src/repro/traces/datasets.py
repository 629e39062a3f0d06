"""The benchmark trace suite: synthetic S1–S3, C1–C2, A1–A2 (paper §4.1, Table 1).

The paper's traces are recorded keystroke logs of real documents; this
reproduction generates synthetic traces with matching structure (the
generators are in :mod:`repro.traces.generator`).  Sizes are scaled down by
roughly two orders of magnitude because pure Python executes the per-event
work ~100× slower than the paper's Rust implementation; the *relative*
comparisons between algorithms — which is what every figure reports — are
preserved.

The scale can be adjusted globally with the ``REPRO_TRACE_SCALE`` environment
variable (e.g. ``REPRO_TRACE_SCALE=0.2`` for a quick run, ``2.0`` for a more
faithful but slower one).  Traces are cached per (name, scale) so repeated
benchmark fixtures don't regenerate them; the variable is read on every call,
so a changed scale gets its own traces.
"""

from __future__ import annotations

import os
from functools import lru_cache

from .generator import generate_async, generate_concurrent, generate_sequential
from .trace import Trace

__all__ = [
    "TRACE_NAMES",
    "PAPER_TABLE1",
    "default_scale",
    "get_trace",
    "load_all_traces",
]

#: The seven benchmark traces, in the paper's order.
TRACE_NAMES = ("S1", "S2", "S3", "C1", "C2", "A1", "A2")

#: Table 1 as printed in the paper (for side-by-side reporting).
PAPER_TABLE1: dict[str, dict[str, object]] = {
    "S1": {"type": "sequential", "events_k": 779, "avg_concurrency": 0.00, "graph_runs": 1, "authors": 2, "chars_remaining_pct": 57.5, "final_size_kb": 307.2},
    "S2": {"type": "sequential", "events_k": 1105, "avg_concurrency": 0.00, "graph_runs": 1, "authors": 1, "chars_remaining_pct": 26.7, "final_size_kb": 166.3},
    "S3": {"type": "sequential", "events_k": 2339, "avg_concurrency": 0.00, "graph_runs": 1, "authors": 2, "chars_remaining_pct": 9.9, "final_size_kb": 119.5},
    "C1": {"type": "concurrent", "events_k": 652, "avg_concurrency": 0.43, "graph_runs": 92101, "authors": 2, "chars_remaining_pct": 90.1, "final_size_kb": 521.5},
    "C2": {"type": "concurrent", "events_k": 608, "avg_concurrency": 0.44, "graph_runs": 133626, "authors": 2, "chars_remaining_pct": 93.0, "final_size_kb": 516.3},
    "A1": {"type": "asynchronous", "events_k": 947, "avg_concurrency": 0.10, "graph_runs": 101, "authors": 194, "chars_remaining_pct": 7.8, "final_size_kb": 37.2},
    "A2": {"type": "asynchronous", "events_k": 698, "avg_concurrency": 6.11, "graph_runs": 2430, "authors": 299, "chars_remaining_pct": 49.6, "final_size_kb": 222.0},
}

#: Baseline number of events per trace at scale 1.0.  Chosen so that the whole
#: benchmark suite (including the deliberately quadratic OT baseline on the
#: asynchronous traces) completes in minutes on a laptop.
_BASE_EVENTS: dict[str, int] = {
    "S1": 6000,
    "S2": 8000,
    "S3": 12000,
    "C1": 5000,
    "C2": 5000,
    "A1": 6000,
    "A2": 5000,
}


def default_scale() -> float:
    """The trace scale factor, configurable via ``REPRO_TRACE_SCALE``."""
    raw = os.environ.get("REPRO_TRACE_SCALE", "1.0")
    try:
        scale = float(raw)
    except ValueError as exc:
        raise ValueError(f"invalid REPRO_TRACE_SCALE value {raw!r}") from exc
    if scale <= 0:
        raise ValueError("REPRO_TRACE_SCALE must be positive")
    return scale


def get_trace(name: str, scale: float | None = None) -> Trace:
    """Generate (or fetch from cache) one of the named benchmark traces, at
    ``scale`` or else at :func:`default_scale` as it reads now."""
    if name not in TRACE_NAMES:
        raise KeyError(f"unknown trace {name!r}; expected one of {TRACE_NAMES}")
    return _generate(name, default_scale() if scale is None else scale)


@lru_cache(maxsize=None)
def _generate(name: str, scale: float) -> Trace:
    events = max(200, int(_BASE_EVENTS[name] * scale))

    if name == "S1":
        # Journal paper written by two authors taking turns; a bit over half
        # of the typed characters survive editing.
        return generate_sequential("S1", target_events=events, authors=2, seed=101)
    if name == "S2":
        # Single-author blog post with heavier rewriting.
        return generate_sequential("S2", target_events=events, authors=1, seed=102)
    if name == "S3":
        # This paper: two authors, lots of rewriting (few characters survive).
        return generate_sequential("S3", target_events=events, authors=2, seed=103)
    if name == "C1":
        return generate_concurrent(
            "C1", target_events=events, seed=201, events_per_exchange=22
        )
    if name == "C2":
        return generate_concurrent(
            "C2", target_events=events, seed=202, events_per_exchange=18
        )
    if name == "A1":
        # Few long-running branches, one at a time (fork/merge bubbles):
        # mostly sequential with occasional large merges.
        return generate_async(
            "A1",
            target_events=events,
            seed=301,
            concurrent_branches=2,
            events_per_branch=max(200, events // 12),
            authors=24,
        )
    # A2: many branches alive at every moment, so the graph contains no
    # critical versions after the initial seeding and merges are expensive.
    return generate_async(
        "A2",
        target_events=events,
        seed=302,
        concurrent_branches=6,
        events_per_branch=max(120, events // 16),
        authors=48,
    )


def load_all_traces(scale: float | None = None) -> dict[str, Trace]:
    """All seven benchmark traces keyed by name."""
    return {name: get_trace(name, scale) for name in TRACE_NAMES}
