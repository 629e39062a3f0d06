"""Eg-walker core: event graphs, the replay walker, and the document API."""

from .causal_graph import CausalGraph, DiffResult
from .critical_versions import (
    CriticalCutTracker,
    critical_cut_positions,
)
from .document import Document
from .event_graph import Event, EventGraph, ROOT_VERSION, Version
from .ids import EventId, Operation, OpKind, delete_op, insert_op
from .internal_state import InternalState
from .merge_engine import MergeEngine, MergeEngineStats, WalkerCheckpoint
from .oplog import OpLog, RemoteEvent
from .order_statistic_tree import TreeSequence
from .records import CrdtRecord, PlaceholderPiece
from .sequence import ListSequence
from .topo_sort import (
    is_topological_order,
    sort_branch_aware,
    sort_interleaved,
    sort_local_order,
)
from .walker import EgWalker, ReplayResult, TransformedOp, WalkerStats

__all__ = [
    "CausalGraph",
    "CrdtRecord",
    "CriticalCutTracker",
    "DiffResult",
    "Document",
    "EgWalker",
    "Event",
    "EventGraph",
    "EventId",
    "InternalState",
    "ListSequence",
    "MergeEngine",
    "MergeEngineStats",
    "Operation",
    "OpKind",
    "OpLog",
    "PlaceholderPiece",
    "RemoteEvent",
    "ReplayResult",
    "ROOT_VERSION",
    "TransformedOp",
    "TreeSequence",
    "Version",
    "WalkerCheckpoint",
    "WalkerStats",
    "critical_cut_positions",
    "delete_op",
    "insert_op",
    "is_topological_order",
    "sort_branch_aware",
    "sort_interleaved",
    "sort_local_order",
]
