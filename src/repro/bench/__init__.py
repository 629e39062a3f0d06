"""Benchmark harness: adapters, timing/memory measurement, experiment runners."""

from .adapters import (
    ALL_ADAPTERS,
    AlgorithmAdapter,
    AutomergeLikeAdapter,
    EgWalkerAdapter,
    MergeOutcome,
    OTAdapter,
    RefCRDTAdapter,
    YjsLikeAdapter,
    adapter_by_name,
)
from .harness import (
    run_all,
    run_clearing_ablation,
    run_file_size_full,
    run_file_size_pruned,
    run_memory,
    run_merge_time,
    run_scaling,
    run_sort_order_ablation,
    run_table1,
)
from .memory import MemoryMeasurement, measure_memory
from .report import format_results, format_table, results_to_json

__all__ = [
    "ALL_ADAPTERS",
    "AlgorithmAdapter",
    "AutomergeLikeAdapter",
    "EgWalkerAdapter",
    "MemoryMeasurement",
    "MergeOutcome",
    "OTAdapter",
    "RefCRDTAdapter",
    "YjsLikeAdapter",
    "adapter_by_name",
    "format_results",
    "format_table",
    "measure_memory",
    "results_to_json",
    "run_all",
    "run_clearing_ablation",
    "run_file_size_full",
    "run_file_size_pruned",
    "run_memory",
    "run_merge_time",
    "run_scaling",
    "run_sort_order_ablation",
    "run_table1",
]
