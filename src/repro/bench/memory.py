"""Memory measurement helpers (Figure 10 substrate).

The paper reports the retained heap of each algorithm while merging a trace:
both the *peak* (while the merge is running) and the *steady state* (what must
stay in memory for the user to keep editing afterwards).  This module measures
both with :mod:`tracemalloc`, which tracks every allocation made by the Python
interpreter — the pure-Python analogue of the paper's heap profiling.

Absolute numbers are not comparable with the paper's Rust/JS measurements
(Python objects carry interpreter overhead), but the *ratios* between
algorithms on the same trace are, and those ratios are what Figure 10 is
about: CRDTs retain per-character metadata forever, Eg-walker and OT retain
only the text.
"""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import dataclass
from typing import Callable, TypeVar

__all__ = ["MemoryMeasurement", "measure_memory"]

T = TypeVar("T")


@dataclass(slots=True)
class MemoryMeasurement:
    """Bytes allocated while running a function and still held afterwards."""

    peak_bytes: int
    retained_bytes: int

    @property
    def peak_mib(self) -> float:
        return self.peak_bytes / (1024 * 1024)


def measure_memory(action: Callable[[], T]) -> tuple[T, MemoryMeasurement]:
    """Run ``action`` and measure its peak and retained allocations.

    ``retained_bytes`` counts allocations made by ``action`` that are still
    reachable when it returns — for a merge function that returns only the
    document text this is the steady-state footprint, whereas a CRDT that
    returns its whole document object retains its metadata too.
    """
    gc.collect()
    tracemalloc.start()
    try:
        result = action()
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, MemoryMeasurement(peak_bytes=peak, retained_bytes=current)
