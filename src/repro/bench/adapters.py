"""Uniform adapters around every algorithm the evaluation compares.

Each adapter exposes the same three operations the paper measures (§4.2):

* ``merge(trace)`` — integrate an entire editing trace received from a remote
  replica into an empty local document (the CPU-time benchmark of Figure 8 and
  the memory benchmark of Figure 10);
* ``save(...)`` / ``load(...)`` — the persistent document representation (the
  file sizes of Figures 11–12) and the CPU time to reload it for editing (the
  "load" series of Figure 8).

Five algorithms are wrapped: Eg-walker (this paper), our reference OT, our
reference CRDT, and the Automerge-like / Yjs-like CRDT stand-ins.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.event_graph import EventGraph
from ..core.merge_engine import MergeEngine
from ..core.walker import WalkerStats
from ..crdt.automerge_like import AutomergeLikeDocument
from ..crdt.ref_crdt import RefCRDTDocument
from ..crdt.yjs_like import YjsLikeDocument
from ..ot.ot_replica import OTDocument
from ..storage.container import (
    ContainerOptions,
    LazyDecodedFile,
    decode_file,
    encode_event_graph_v3,
)
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
    "engine_replay",
]


@dataclass(slots=True)
class MergeOutcome:
    """What a merge produced: the text plus whatever the algorithm retains."""

    text: str
    retained: object


class AlgorithmAdapter:
    """Base class; subclasses implement the per-algorithm behaviour."""

    name: str = "abstract"

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
        cache_final_doc: bool = True,
        compress_columns: bool = False,
    ) -> None:
        self.cache_final_doc = cache_final_doc
        #: Off by default: the paper compares uncompressed sizes (§4.5).
        self.compress_columns = compress_columns
        #: Stats of the most recent merge (run/char event counts, peak span
        #: records) — lets the benchmarks report the RLE win per trace.
        self.last_stats: WalkerStats | None = None

    def merge(self, trace: Trace) -> MergeOutcome:
        text, self.last_stats = engine_replay(trace.graph)
        # The replay's internal state is transient; only the text is retained.
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

    def save_pruned(self, trace: Trace) -> bytes:
        """The Figure 12 variant: drop deleted characters' content."""
        return encode_event_graph_v3(
            trace.graph,
            ContainerOptions(
                compress_columns=self.compress_columns, prune_deleted_content=True
            ),
        )

    def load(self, data: bytes) -> str:
        # The cached document text is all that is needed to display and edit
        # the document (§4.3): a file with a snapshot column serves it without
        # materialising a single event; one without replays its graph.
        return LazyDecodedFile(data).text


def engine_replay(graph: EventGraph) -> tuple[str, WalkerStats]:
    """The merge engine's full replay of ``graph`` (:meth:`MergeEngine.replay`)
    and its work as one :class:`WalkerStats`: the §3.5 critical run that the
    engine reads verbatim counts among the fast-path events, next to those of
    the walker's own clearing (a history that is one run never reaches the
    walker at all)."""
    engine = MergeEngine.replay(graph)
    stats = engine.walker.last_stats or WalkerStats()
    run = range(engine.stats.history_fast_path_events)
    stats.events_fast_path += len(run)
    stats.chars_fast_path += sum(op.length for op in map(graph.op_of, run))
    return str(engine.rope), stats


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
