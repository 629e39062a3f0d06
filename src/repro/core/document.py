"""High-level collaborative document API.

:class:`Document` is the replica object an application embeds: it owns an
:class:`~repro.core.oplog.OpLog` (the durable event graph), the current
document text (a :class:`~repro.rope.Rope`), and uses an
:class:`~repro.core.walker.EgWalker` to merge concurrent changes.

Design points that mirror the paper:

* Local edits and remote events that are *not* concurrent with anything are
  applied directly to the text — the walker and its CRDT state are never
  touched (§3.1), which is why the steady-state memory footprint is just the
  text plus the (on-disk) event graph.
* When concurrent remote events arrive, only the portion of the graph after
  the most recent critical version is replayed (§3.6), and the transformed
  operations are applied to the current text.
* The full event graph is retained, so any historical version can be
  reconstructed (:meth:`Document.text_at`) and traces can be saved to disk
  with :mod:`repro.storage`.

Versions are **id-based** throughout the public API: :meth:`Document.version`
returns a frozen :class:`repro.history.Version` (a frontier of character
ids), which is the stable handle — it survives sender-side run coalescing
extending the frontier run in place, interop splits, storage round trips and
transfer to other replicas.  Local-index tuples still exist internally
(:attr:`Document.local_version`) but silently go stale under in-place run
extension; the historical index-based entry points are kept as thin
deprecated shims.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ..rope import Rope
from .event_graph import EventGraph
from .event_graph import Version as LocalVersion
from .ids import EventId, Operation
from .merge_engine import MergeEngine, MergeEngineStats
from .oplog import OpLog, RemoteEvent
from .walker import EgWalker

if TYPE_CHECKING:  # pragma: no cover - resolved lazily to avoid an import cycle
    from ..history import History, Version

__all__ = ["Document"]


class Document:
    """A replica of a collaboratively edited plain-text document.

    Args:
        agent: this replica's globally unique name.
        backend / enable_clearing / enable_span_merging / sort_strategy:
            walker configuration, see :class:`~repro.core.walker.EgWalker`.
        incremental: use the persistent :class:`MergeEngine` (critical cuts
            tracked incrementally, sequential fast path, resident walker
            state between merges).  ``False`` selects the legacy
            rebuild-everything merge — O(history) bookkeeping per merge —
            kept as the ablation baseline.
        coalesce_local_runs: fold local edits that continue the frontier run
            into the existing event (sender-side run coalescing), so a
            keystroke-at-a-time session stores O(runs) events.
        graph: an event graph to **adopt** as this replica's history (one
            decoded from storage) instead of starting empty.  It is installed
            as is — no event is re-ingested — and the replica becomes its
            sole owner: nobody else may hold or mutate it.
        text: the document text at ``graph``'s frontier (the file's snapshot
            column); the replica starts from it with no walker state.  When
            an adopted graph comes without one, the engine replays the graph
            in place instead.
    """

    def __init__(
        self,
        agent: str,
        *,
        backend: str = "tree",
        enable_clearing: bool = True,
        enable_span_merging: bool = True,
        sort_strategy: str = "branch_aware",
        incremental: bool = True,
        coalesce_local_runs: bool = True,
        graph: EventGraph | None = None,
        text: str | None = None,
    ) -> None:
        if text is not None and graph is None:
            raise ValueError("text= is the snapshot of an adopted graph; pass graph= too")
        self.agent = agent
        self.oplog = OpLog(agent, coalesce_local_runs=coalesce_local_runs, graph=graph)
        self.rope = Rope(text or "")
        self._walker_options = {
            "backend": backend,
            "enable_clearing": enable_clearing,
            "enable_span_merging": enable_span_merging,
            "sort_strategy": sort_strategy,
        }
        self.engine = MergeEngine(
            self.oplog, self.rope, self._walker_options, incremental=incremental
        )
        # Imported lazily: repro.history depends on the core modules above.
        from ..history import History

        self.history: History = History(self.oplog, self.engine)
        """Id-based history browsing: version algebra, ``text_at`` / ``diff``
        / ``checkout`` (see :class:`repro.history.History`).  The methods
        below delegate here."""
        if graph is not None and text is None:
            self.engine.replay_adopted()

    @classmethod
    def from_bytes(cls, data: bytes, agent: str, **options: object) -> "Document":
        """Load a replica from a stored event-graph file.

        Load is a decode: the decoded graph is **adopted** as the replica's
        graph (built once, privately — nothing is re-ingested) and the text
        comes from the file's snapshot column, so no event is merged and no
        walker state exists afterwards (``merge_stats.events_integrated ==
        0``); the replica is immediately editable and mergeable.  Only a
        file without a snapshot column replays its graph, in place.  A
        snapshot that cannot be the text of the stored history is refused
        with ``StorageError("column-decode")``.  This fully materialises the
        graph; use :class:`repro.storage.LazyDecodedFile` when only the text
        (or a read-only :class:`~repro.history.History`) is needed.
        """
        from ..storage.container import decode_file

        decoded = decode_file(data)
        return cls(agent, graph=decoded.graph, text=decoded.snapshot, **options)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def text(self) -> str:
        """The current document text."""
        return str(self.rope)

    def __len__(self) -> int:
        return len(self.rope)

    def version(self) -> "Version":
        """The current version as a stable, id-based handle.

        The returned :class:`repro.history.Version` can be saved, sent to a
        peer, persisted (``repro.storage.encode_version``) and resolved later
        — it stays exact across further edits, in-place run extension and
        re-carved interop syncs.  O(frontier heads).
        """
        return self.history.version()

    @property
    def local_version(self) -> LocalVersion:
        """The frontier as *local event indices* (internal representation).

        Only meaningful inside this replica and only until the graph mutates:
        in-place run extension makes an index tuple cover more characters,
        interop splits shift indices.  Use :meth:`version` for anything that
        outlives the current call stack.
        """
        return self.oplog.local_version

    def remote_version(self) -> tuple[EventId, ...]:
        """Deprecated: use :meth:`version` (its ``.ids`` are these ids).

        Forwards to the :class:`~repro.history.Version` handle so the shim
        can never drift from the canonical API: the returned ids are exactly
        ``Document.version().ids`` (sorted, deduplicated).
        """
        warnings.warn(
            "Document.remote_version() is deprecated; use Document.version() "
            "(a repro.history.Version; its .ids field carries the event ids)",
            DeprecationWarning,
            stacklevel=2,
        )
        return self.version().ids

    # ------------------------------------------------------------------
    # Local editing
    # ------------------------------------------------------------------
    def insert(self, pos: int, content: str) -> None:
        """Insert ``content`` at ``pos`` as a local edit."""
        if pos < 0 or pos > len(self.rope):
            raise IndexError(f"insert position {pos} out of range (length {len(self.rope)})")
        if not content:
            return
        self.oplog.add_insert(pos, content)
        self.rope.insert(pos, content)

    def delete(self, pos: int, length: int = 1) -> str:
        """Delete ``length`` characters starting at ``pos`` as a local edit."""
        if length <= 0:
            return ""
        if pos < 0 or pos + length > len(self.rope):
            raise IndexError(
                f"delete of {length} at {pos} out of range (length {len(self.rope)})"
            )
        self.oplog.add_delete(pos, length)
        return self.rope.delete(pos, length)

    # ------------------------------------------------------------------
    # Merging remote changes
    # ------------------------------------------------------------------
    def merge(self, other: "Document") -> list[Operation]:
        """Merge every event of ``other`` that this replica hasn't seen.

        Returns the transformed operations that were applied to the local
        text (the incremental update of §2.4).
        """
        return self._ingest(self.oplog.merge_from, other.oplog)

    def apply_remote_events(self, events: Iterable[RemoteEvent]) -> list[Operation]:
        """Ingest a batch of events from the network and update the text.

        If an event of the batch is refused (``KeyError``: a parent is
        unknown; ``ValueError``: known ids with different content), the
        events before it are merged before the exception propagates."""
        return self._ingest(self.oplog.ingest_events, events)

    def events_since(
        self, version: "Version | Sequence[EventId]"
    ) -> list[RemoteEvent]:
        """Events a peer at ``version`` is missing (for replication).

        Accepts a :class:`repro.history.Version` handle (the id-based
        currency of the public API) or a raw sequence of :class:`EventId`
        (the wire representation).
        """
        return self.oplog.events_since(version)

    # ------------------------------------------------------------------
    # History (id-based versions; see repro.history)
    # ------------------------------------------------------------------
    def text_at(self, version: "Version | Sequence[int]") -> str:
        """Reconstruct the document text at a historical version.

        ``version`` is a saved :class:`repro.history.Version` handle.  The
        reconstruction resumes the merge engine's walker machinery: browsing
        forward from the last reconstructed version replays only the events
        between the two (from the nearest critical version, §3.6), a cold
        lookup replays ``Events(version)`` once.  The result is exact for
        arbitrary saved handles, no matter how the graph was extended, split
        or re-carved since the handle was taken.

        Passing a tuple of local event indices (the pre-id-based API) still
        works but is deprecated: index snapshots silently go stale when the
        frontier run is extended in place.
        """
        from ..history import Version

        if not isinstance(version, Version):
            warnings.warn(
                "Document.text_at with local-index tuples is deprecated; hold "
                "a Document.version() handle (repro.history.Version) instead "
                "— index snapshots go stale when runs extend in place",
                DeprecationWarning,
                stacklevel=2,
            )
            return self._make_walker().text_at_version(tuple(version))
        return self.history.text_at(version)

    def diff(self, a: "Version", b: "Version") -> list[Operation]:
        """The operations transforming ``text_at(a)`` into ``text_at(b)``.

        Walker-computed in O(window + new events) when ``a`` is an ancestor
        of ``b`` — O(new events) when ``a`` is a critical version — and a
        character-level text diff otherwise.  See
        :meth:`repro.history.History.diff`.
        """
        return self.history.diff(a, b)

    def checkout(self, version: "Version", *, agent: str | None = None) -> "Document":
        """Materialise a historical version as a fresh, editable replica.

        See :meth:`repro.history.History.checkout`.
        """
        return self.history.checkout(version, agent=agent)

    def versions(self) -> list["Version"]:
        """One stable handle per run event, in local order (history browsing).

        The handle for an event covers the document as its author saw it
        right after typing it.  O(events).
        """
        return self.history.versions()

    def text_at_remote(self, remote_version: Sequence[EventId]) -> str:
        """Deprecated: wrap the ids in a :class:`repro.history.Version` and
        call :meth:`text_at`."""
        from ..history import Version

        warnings.warn(
            "Document.text_at_remote is deprecated; use "
            "Document.text_at(Version(ids)) — or save Document.version() "
            "handles in the first place",
            DeprecationWarning,
            stacklevel=2,
        )
        return self.history.text_at(Version(remote_version))

    def history_versions(self) -> list[LocalVersion]:
        """Deprecated: use :meth:`versions` (stable id-based handles)."""
        warnings.warn(
            "Document.history_versions is deprecated; use Document.versions() "
            "— its Version handles stay valid across in-place run extension",
            DeprecationWarning,
            stacklevel=2,
        )
        return [tuple([idx]) for idx in range(len(self.oplog.graph))]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def merge_stats(self) -> MergeEngineStats:
        """Work counters of the merge engine (see :class:`MergeEngineStats`)."""
        return self.engine.stats

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _make_walker(self) -> EgWalker:
        return EgWalker(self.oplog.graph, **self._walker_options)

    def _ingest(self, ingest: Callable[..., list[int]], source: object) -> list[Operation]:
        """Run one of the oplog's batch ingests and fold what it added into
        the text — also when it raises midway: the events before the refused
        one are in the graph for good (redelivering them is a no-op), so a
        text that never received them would stay wrong."""
        added_spans: list[tuple[str, int, int]] = []
        try:
            added = ingest(source, added_spans)
        except (KeyError, ValueError):
            self.engine.integrate(self.oplog.graph.indices_covering(added_spans))
            raise
        return self.engine.integrate(added)
