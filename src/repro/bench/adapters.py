"""Uniform adapters around every algorithm the evaluation compares.

Each adapter exposes the same three operations the paper measures (§4.2):

* ``merge(trace)`` — integrate an entire editing trace received from a remote
  replica into an empty local document (the CPU-time benchmark of Figure 8 and
  the memory benchmark of Figure 10);
* ``save(...)`` / ``load(...)`` — the persistent document representation (the
  file sizes of Figures 11–12) and the CPU time to reload it for editing (the
  "load" series of Figure 8);
* ``steady_state(...)`` — what has to stay in memory after the merge.

Five algorithms are wrapped: Eg-walker (this paper), our reference OT, our
reference CRDT, and the Automerge-like / Yjs-like CRDT stand-ins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.walker import EgWalker, WalkerStats
from ..history.version import Version
from ..crdt.automerge_like import AutomergeLikeDocument
from ..crdt.ref_crdt import RefCRDTDocument
from ..crdt.yjs_like import YjsLikeDocument
from ..ot.ot_replica import OTDocument
from ..storage.container import ContainerOptions, decode_file, encode_event_graph_v3
from ..storage.snapshot import Snapshot, decode_snapshot, encode_snapshot
from ..traces.trace import Trace

__all__ = [
    "MergeOutcome",
    "AlgorithmAdapter",
    "EgWalkerAdapter",
    "OTAdapter",
    "RefCRDTAdapter",
    "AutomergeLikeAdapter",
    "YjsLikeAdapter",
    "ALL_ADAPTERS",
    "adapter_by_name",
]


@dataclass(slots=True)
class MergeOutcome:
    """What a merge produced: the text plus whatever the algorithm retains."""

    text: str
    retained: object


class AlgorithmAdapter:
    """Base class; subclasses implement the per-algorithm behaviour."""

    name: str = "abstract"
    is_crdt: bool = False

    # -- merging -----------------------------------------------------------
    def merge(self, trace: Trace) -> MergeOutcome:
        raise NotImplementedError

    # -- persistence ---------------------------------------------------------
    def save(self, trace: Trace, outcome: MergeOutcome) -> bytes:
        raise NotImplementedError

    def load(self, data: bytes) -> str:
        """Load a saved document so it can be displayed and edited; returns its text."""
        raise NotImplementedError


class EgWalkerAdapter(AlgorithmAdapter):
    """Eg-walker: replay the event graph; persist the graph plus a text snapshot."""

    name = "eg-walker"

    def __init__(
        self,
        *,
        backend: str = "tree",
        enable_clearing: bool = True,
        sort_strategy: str = "branch_aware",
        cache_final_doc: bool = True,
        compress_columns: bool = False,
    ) -> None:
        self.backend = backend
        self.enable_clearing = enable_clearing
        self.sort_strategy = sort_strategy
        self.cache_final_doc = cache_final_doc
        #: Off by default: the paper compares uncompressed sizes (§4.5).
        self.compress_columns = compress_columns
        #: Stats of the most recent merge (run/char event counts, peak span
        #: records) — lets the benchmarks report the RLE win per trace.
        self.last_stats: WalkerStats | None = None

    def merge(self, trace: Trace) -> MergeOutcome:
        walker = EgWalker(
            trace.graph,
            backend=self.backend,
            enable_clearing=self.enable_clearing,
            sort_strategy=self.sort_strategy,
        )
        text = walker.replay_text()
        self.last_stats = walker.last_stats
        # The walker's internal state is transient; only the text is retained.
        return MergeOutcome(text=text, retained=text)

    def save(self, trace: Trace, outcome: MergeOutcome) -> bytes:
        return encode_event_graph_v3(
            trace.graph,
            ContainerOptions(
                compress_columns=self.compress_columns,
                include_snapshot=self.cache_final_doc,
                final_text=outcome.text if self.cache_final_doc else None,
            ),
        )

    def save_pruned(self, trace: Trace, outcome: MergeOutcome) -> bytes:
        """The Figure 12 variant: drop deleted characters' content."""
        return encode_event_graph_v3(
            trace.graph,
            ContainerOptions(
                compress_columns=self.compress_columns, prune_deleted_content=True
            ),
        )

    def load(self, data: bytes) -> str:
        decoded = decode_file(data)
        if decoded.snapshot is not None:
            # Fast path: the cached document text is all that is needed to
            # display and edit the document (§4.3).
            return decoded.snapshot
        walker = EgWalker(decoded.graph, backend=self.backend)
        return walker.replay_text()

    def save_snapshot_only(self, outcome: MergeOutcome, trace: Trace) -> bytes:
        """Just the cached text (what the steady-state load actually reads)."""
        version = Version.frontier(trace.graph)
        return encode_snapshot(Snapshot(text=outcome.text, version=version))

    def load_snapshot(self, data: bytes) -> str:
        return decode_snapshot(data).text


class OTAdapter(AlgorithmAdapter):
    """The reference OT implementation (TTF-style merge)."""

    name = "ot"

    def merge(self, trace: Trace) -> MergeOutcome:
        document = OTDocument()
        text = document.merge_event_graph(trace.graph)
        return MergeOutcome(text=text, retained=text)

    def save(self, trace: Trace, outcome: MergeOutcome) -> bytes:
        # OT persists the same artefacts as Eg-walker: the operation history
        # plus the current text (uncompressed, like the paper's comparison).
        return encode_event_graph_v3(
            trace.graph,
            ContainerOptions(
                compress_columns=False, include_snapshot=True, final_text=outcome.text
            ),
        )

    def load(self, data: bytes) -> str:
        decoded = decode_file(data)
        if decoded.snapshot is not None:
            return decoded.snapshot
        document = OTDocument()
        return document.merge_event_graph(decoded.graph)


class RefCRDTAdapter(AlgorithmAdapter):
    """Our reference CRDT: full per-character state, persisted and reloaded."""

    name = "ref-crdt"
    is_crdt = True
    document_class: type[RefCRDTDocument] = RefCRDTDocument

    def merge(self, trace: Trace) -> MergeOutcome:
        document = self.document_class()
        text = document.merge_event_graph(trace.graph)
        return MergeOutcome(text=text, retained=document)

    def save(self, trace: Trace, outcome: MergeOutcome) -> bytes:
        document = outcome.retained
        assert isinstance(document, RefCRDTDocument)
        return document.save()

    def load(self, data: bytes) -> str:
        return self.document_class.load(data).text


class AutomergeLikeAdapter(RefCRDTAdapter):
    """Automerge-like baseline: stores (and replays) the full operation history."""

    name = "automerge-like"
    document_class = AutomergeLikeDocument


class YjsLikeAdapter(RefCRDTAdapter):
    """Yjs-like baseline: stores tombstoned items without history or deleted text."""

    name = "yjs-like"
    document_class = YjsLikeDocument


def ALL_ADAPTERS() -> list[AlgorithmAdapter]:
    """Fresh instances of every adapter, in the order the figures list them."""
    return [
        EgWalkerAdapter(),
        OTAdapter(),
        RefCRDTAdapter(),
        AutomergeLikeAdapter(),
        YjsLikeAdapter(),
    ]


def adapter_by_name(name: str) -> AlgorithmAdapter:
    for adapter in ALL_ADAPTERS():
        if adapter.name == name:
            return adapter
    raise KeyError(f"unknown algorithm {name!r}")
