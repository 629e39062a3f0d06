"""Editing-trace data model (paper §4.1).

A trace is an event graph recorded from (or, in this reproduction, synthesised
to match) a real editing session, together with descriptive metadata.  The
benchmark suite loads traces from :mod:`repro.traces.datasets`, feeds their
event graphs to each algorithm, and reports the statistics of Table 1 computed
by :mod:`repro.traces.stats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from ..core.event_graph import EventGraph
from ..core.walker import EgWalker

__all__ = ["Trace", "TraceKind"]

TraceKind = Literal["sequential", "concurrent", "asynchronous"]


@dataclass(slots=True)
class Trace:
    """One benchmark editing trace.

    Attributes:
        name: short identifier (S1, S2, S3, C1, C2, A1, A2 — or a custom name).
        kind: the paper's trace category.
        graph: the full event graph of the editing session.
        description: one-line description of what the trace models.
        authors: number of distinct users that contributed events.
        seed: RNG seed used to generate the trace (for reproducibility).
    """

    name: str
    kind: TraceKind
    graph: EventGraph
    description: str = ""
    authors: int = 0
    seed: int = 0
    _final_text: str | None = field(default=None, repr=False)

    @property
    def num_events(self) -> int:
        """Number of per-character events (the paper's Table-1 event count).

        The graph stores run events; each covers ``op.length`` characters.
        """
        return self.graph.num_chars

    @property
    def num_run_events(self) -> int:
        """Number of run events the graph actually stores."""
        return len(self.graph)

    @property
    def final_text(self) -> str:
        """The merged document text (computed once, on demand, by the
        walker's reference replay)."""
        if self._final_text is None:
            self._final_text = EgWalker(self.graph).replay_text()
        return self._final_text

    def summary_line(self) -> str:
        return (
            f"{self.name:4s} {self.kind:13s} events={self.num_events:7d} "
            f"runs={self.num_run_events:6d} authors={self.authors:3d} "
            f"final={len(self.final_text)} chars"
        )
