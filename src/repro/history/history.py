"""Id-based history browsing over a replica's event graph.

:class:`History` is the query side of a :class:`~repro.core.document.Document`:
it turns the durable event graph into *stable* version handles
(:class:`~repro.history.version.Version`), compares them under the causal
partial order, and reconstructs texts and diffs between them by **resuming
the merge engine's walker machinery** — a partial replay from the nearest
critical version (paper §3.5–3.6), not a full history replay, whenever the
requested versions allow it.

Id-based versions are the one true handle: every id names a character, and
character ids are immune to the two mutations that invalidate local-index
snapshots (in-place frontier-run extension and interop run splits).
Resolving a handle against the live graph may *split* stored runs at the
named boundaries — a semantic no-op that makes the covered character set
exact — which is the same machinery replication uses for mid-run parent
references.

Cost model (N = events in history, W = events since the nearest critical
version, k = events between the two versions):

====================================================  ==================
operation                                             cost
====================================================  ==================
``version()`` / ``versions()``                        O(1) / O(N)
``compare(a, b)`` / ``join(a, b)``                    O(events between)
``meet(a, b)``                                        O(N)
``diff(a, b)``, ``a`` an ancestor of ``b``            O(W + k) walker work
``diff(a, b)``, ``a`` a critical version              O(k) walker work
``diff(a, b)``, concurrent / backwards                O(|text_a|·|text_b|)
``text_at(v)``, forward of the last ``text_at``       O(W + k) walker work
``text_at(v)``, cold                                  O(|Events(v)|)
====================================================  ==================
"""

from __future__ import annotations

import difflib
from typing import TYPE_CHECKING, Any, Sequence

from ..core.causal_graph import CausalGraph
from ..core.event_graph import EventGraph
from ..core.ids import Operation, delete_op, insert_op
from ..core.merge_engine import MergeEngine, MergeEngineStats
from ..core.oplog import OpLog
from .version import Version

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (Document owns us)
    from ..core.document import Document

__all__ = ["History"]

#: Local-index version tuples (the internal representation).
_IndexVersion = tuple[int, ...]


def apply_ops(text: str, ops: Sequence[Operation]) -> str:
    """Apply an in-order list of index-based operations to ``text``.

    Convenience for consumers of :meth:`History.diff` (tests, examples, the
    fuzzer's stability property).  O(total op length + len(text)) per call.
    """
    for op in ops:
        text = op.apply_to(text)
    return text


class History:
    """Version handles, version algebra and time travel for one replica.

    Owned by a :class:`~repro.core.document.Document` (``document.history``);
    can also be constructed standalone over any :class:`OpLog` + engine pair
    (e.g. over a graph decoded from storage — see
    :meth:`History.over_graph`).

    Args:
        oplog: the replica's event graph wrapper.
        engine: the replica's persistent merge engine, whose walker and
            critical-cut tracker the history queries resume.
    """

    def __init__(self, oplog: OpLog, engine: MergeEngine) -> None:
        self.oplog = oplog
        self.engine = engine
        #: The last materialised checkout: ``(version, text)``.  Forward
        #: browsing (``text_at`` of a descendant version) resumes from it via
        #: a walker diff instead of replaying from the root.  Stored id-based,
        #: so it stays valid across splits and in-place extensions.
        self._checkout_cache: tuple[Version, str] | None = None
        #: Default agent names already handed to checkouts by this instance
        #: (the graph only reveals a branch's name once it merges back).
        self._checkout_agents: set[str] = set()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def over_graph(cls, graph: EventGraph, **walker_options: Any) -> "History":
        """A standalone history over a bare event graph (e.g. one decoded
        from storage).  The graph is adopted as is by a read-only
        ``OpLog``/engine pair (one linear pass finds its critical cuts);
        nothing is re-ingested, and nothing is replayed until a query asks
        for text.
        """
        from ..rope import Rope

        oplog = OpLog(graph=graph)
        return cls(oplog, MergeEngine(oplog, Rope(), walker_options))

    @classmethod
    def from_bytes(cls, data: bytes, **walker_options: Any) -> "History":
        """A standalone history decoded from a stored event-graph file
        (``docs/SPEC.md``).  Materialises the graph once; for deferred
        hydration use :attr:`repro.storage.LazyDecodedFile.history`, which
        decodes the history columns only when first asked.
        """
        from ..storage.container import decode_file

        return cls.over_graph(decode_file(data).graph, **walker_options)

    @property
    def graph(self) -> EventGraph:
        return self.oplog.graph

    @property
    def causal(self) -> CausalGraph:
        return self.oplog.causal

    # ------------------------------------------------------------------
    # Handles
    # ------------------------------------------------------------------
    def version(self) -> Version:
        """The replica's current version (its frontier), as a stable handle.

        O(k) for k frontier heads.  The handle stays exact even if the
        frontier run is later extended in place: it names the run's current
        last character, and the extension's characters get larger seqs.
        """
        return Version.frontier(self.graph)

    def versions(self) -> list[Version]:
        """One version handle per run event, in local order (history browsing).

        The handle for event ``e`` covers ``Events({e})`` — the document as
        ``e``'s author saw it right after typing ``e``.  O(N).
        """
        graph = self.graph
        return [Version((graph.dependency_id(i),)) for i in range(len(graph))]

    def version_of(self, index_version: Sequence[int]) -> Version:
        """Convert an internal local-index version into a stable handle.

        The escape hatch for code that already holds index tuples (walker
        internals, tests).  O(k log runs).
        """
        return Version(self.graph.ids_from_version(tuple(index_version)))

    def resolve(self, version: Version) -> _IndexVersion:
        """Resolve a handle to the current local-index version.

        Each id names the last character covered on its branch; if that id
        now falls mid-run (the run was extended in place, or a peer's coarser
        carving was ingested), the stored run is **split** at the boundary — a
        semantic no-op — so the returned indices cover exactly the handle's
        characters.  O(k log runs), plus O(N) per split actually performed.

        Raises:
            KeyError: if an id is not covered by this graph (the version
                references events this replica has not seen).
        """
        return self.resolve_all(version)[0]

    def resolve_all(self, *versions: Version) -> list[_IndexVersion]:
        """Resolve several handles **jointly** against the current graph.

        Resolution can split stored runs, and a split shifts every later
        index — so index tuples obtained one at a time can go stale while the
        next handle resolves.  This performs every boundary split first (the
        split pass is idempotent) and only then reads indices, so all the
        returned tuples are consistent with the final carving.  Every
        multi-version operation (compare, diff, meet, join, the checkout
        cache) resolves through here.
        """
        graph = self.graph
        for version in versions:
            for eid in version.ids:
                graph.dependency_index(eid)  # splits at the boundary if mid-run
        return [
            tuple(sorted({graph.locate(eid)[0] for eid in version.ids}))
            for version in versions
        ]

    # ------------------------------------------------------------------
    # Version algebra (the causal partial order)
    # ------------------------------------------------------------------
    def compare(self, a: Version, b: Version) -> str:
        """Partial-order comparison: ``"equal"``, ``"before"`` (a ⊂ b),
        ``"after"`` (a ⊃ b) or ``"concurrent"``.

        Cost is the priority-queue diff of §3.2: proportional to the events
        between the two versions and their common ancestors, not to history.
        """
        ia, ib = self.resolve_all(a, b)
        return self.causal.compare_versions(ia, ib)

    def contains(self, version: Version, other: Version) -> bool:
        """Does ``version`` causally include everything in ``other``?

        True iff ``compare(other, version)`` is ``"equal"`` or ``"before"``.
        """
        return self.compare(other, version) in ("equal", "before")

    def join(self, a: Version, b: Version) -> Version:
        """The least upper bound: the version covering both ``a`` and ``b``
        (``Events(join) = Events(a) ∪ Events(b)``).  Cost of a diff plus the
        frontier reduction over the combined heads."""
        ia, ib = self.resolve_all(a, b)
        return self.version_of(self.causal.merge_versions(ia, ib))

    def meet(self, a: Version, b: Version) -> Version:
        """The greatest lower bound: the most recent common ancestor version
        (``Events(meet) = Events(a) ∩ Events(b)``).  O(N) — it materialises
        both ancestor sets."""
        ia, ib = self.resolve_all(a, b)
        return self.version_of(self.causal.meet_versions(ia, ib))

    # ------------------------------------------------------------------
    # Time travel
    # ------------------------------------------------------------------
    def text_at(self, version: Version) -> str:
        """Reconstruct the document text at ``version``.

        Resumes the merge engine's walker machinery rather than replaying
        the full history whenever it can: if ``version`` is a descendant of
        the previously materialised checkout (the common case when browsing
        history forward), only the events between the two are replayed —
        from the nearest critical version, exactly like a live merge (§3.6).
        A cold lookup replays ``Events(version)`` once and primes the cache.

        Returns:
            The document text at ``version`` (independent of later edits,
            in-place run extensions and re-carved interop syncs).
        """
        cached = self._checkout_cache
        if cached is None:
            indices = self.resolve(version)
        else:
            cached_version, cached_text = cached
            indices, cached_indices = self.resolve_all(version, cached_version)
            if cached_indices == indices:
                return cached_text
            if self.causal.compare_versions(cached_indices, indices) == "before":
                ops = self.engine.history_ops(cached_indices, indices)
                text = apply_ops(cached_text, ops)
                self._checkout_cache = (version, text)
                return text
        text = apply_ops("", self.engine.history_ops((), indices))
        self._checkout_cache = (version, text)
        return text

    def diff(self, a: Version, b: Version) -> list[Operation]:
        """The operations transforming ``text_at(a)`` into ``text_at(b)``.

        When ``a`` is an ancestor of ``b`` the diff is computed by the walker:
        the window from the nearest critical version up to ``a`` is replayed
        silently and only ``Events(b) - Events(a)`` emit operations — O(W + k)
        walker work, and O(k) when ``a`` is itself a critical version (the
        replay base *is* ``a``; ``MergeEngineStats.last_history_events_touched``
        proves it).  For concurrent or backwards pairs there is no replayable
        event set, so the texts are materialised and a character-level diff is
        emitted instead (O(|text_a|·|text_b|) worst case; counted in
        ``MergeEngineStats.history_text_diffs``).
        """
        ia, ib = self.resolve_all(a, b)
        if ia == ib:
            return []
        if self.causal.compare_versions(ia, ib) == "before":
            return self.engine.history_ops(ia, ib)
        self.engine.stats.history_text_diffs += 1
        return _text_diff(self.text_at(a), self.text_at(b), stats=self.engine.stats)

    def checkout(self, version: Version, *, agent: str | None = None) -> "Document":
        """Materialise ``version`` as a fresh, independent :class:`Document`.

        The new replica contains exactly ``Events(version)`` (exported in
        portable form and re-ingested, so its run carving is self-consistent)
        and can edit and merge like any other replica — a branch rooted at a
        historical version.  It inherits the owner's configuration (walker
        backend and options, merge-engine mode, run coalescing).
        O(|Events(version)|).

        Args:
            agent: agent name for the new replica.  Agent names carry the
                same global-uniqueness contract as :class:`Document` agents:
                two branches editing under one name collide on
                ``(agent, seq)`` ids and can never be merged back together.
                The default is ``"<owner>-checkout"`` with the first numeric
                suffix not already used — by an earlier checkout of this
                instance, or by any agent visible in the graph (so branches
                that merged back stay protected across restarts).  Sessions
                that check out from *separate* copies of the same document
                concurrently cannot see each other and must pass explicit,
                distinct names here, exactly as they must for their
                :class:`Document` replicas.
        """
        from ..core.document import Document

        closure = sorted(self.causal.ancestors(self.resolve(version)))
        events = self.oplog.export_events(closure)
        if agent is None:
            base = f"{self.oplog.agent or 'history'}-checkout"
            agent, n = base, 1
            while agent in self._checkout_agents or self.graph.next_seq_for(agent) > 0:
                n += 1
                agent = f"{base}-{n}"
            self._checkout_agents.add(agent)
        doc = Document(
            agent,
            incremental=self.engine.incremental,
            coalesce_local_runs=self.oplog.coalesce_local_runs,
            **self.engine.walker_options,
        )
        doc.apply_remote_events(events)
        return doc


#: Above this many character pairs (``len(a) * len(b)``) the quadratic
#: ``SequenceMatcher`` fallback is guarded: the inputs are first trimmed to
#: the region between their common prefix and suffix (linear), and only the
#: trimmed middles go through difflib.  Without the guard a single
#: server-side diff/checkout request over two long concurrent texts could pin
#: an event loop for seconds.
QUADRATIC_DIFF_LIMIT = 1 << 20


def _trim_common_affixes(a: str, b: str) -> tuple[int, int]:
    """Lengths of the longest common prefix and suffix of ``a`` and ``b``
    (non-overlapping: prefix wins ties).  O(len(a) + len(b))."""
    limit = min(len(a), len(b))
    prefix = 0
    while prefix < limit and a[prefix] == b[prefix]:
        prefix += 1
    suffix = 0
    while suffix < limit - prefix and a[-1 - suffix] == b[-1 - suffix]:
        suffix += 1
    return prefix, suffix


def _text_diff(a: str, b: str, *, stats: "MergeEngineStats | None" = None) -> list[Operation]:
    """A minimal-ish edit script from ``a`` to ``b`` (difflib opcodes).

    Used for version pairs with no replayable event set between them
    (concurrent or backwards).  The returned operations apply in order:
    positions account for the shifts earlier operations introduce.

    ``SequenceMatcher`` is O(|a|·|b|); above :data:`QUADRATIC_DIFF_LIMIT`
    character pairs a length guard kicks in (counted in
    ``MergeEngineStats.history_diff_guards``): the common prefix and suffix
    are trimmed off first — concurrent versions of one document share most of
    their text, so this usually collapses the quadratic part to the small
    disputed middle — and if even the trimmed middles stay over the limit the
    diff degrades to a coarse replace (one delete + one insert), keeping the
    cost linear at the price of a non-minimal edit script.
    """
    if len(a) * len(b) > QUADRATIC_DIFF_LIMIT:
        if stats is not None:
            stats.history_diff_guards += 1
        prefix, suffix = _trim_common_affixes(a, b)
        mid_a = a[prefix : len(a) - suffix]
        mid_b = b[prefix : len(b) - suffix]
        if len(mid_a) * len(mid_b) > QUADRATIC_DIFF_LIMIT:
            ops: list[Operation] = []
            if mid_a:
                ops.append(delete_op(prefix, len(mid_a)))
            if mid_b:
                ops.append(insert_op(prefix, mid_b))
            return ops
        return [
            Operation(op.kind, op.pos + prefix, op.content, op.length)
            for op in _text_diff(mid_a, mid_b)
        ]
    ops = []
    shift = 0
    matcher = difflib.SequenceMatcher(None, a, b, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        # Position in the partially transformed text; computed before the
        # delete updates the shift so a replace inserts where it deleted.
        pos = i1 + shift
        if tag in ("delete", "replace"):
            ops.append(delete_op(pos, i2 - i1))
            shift -= i2 - i1
        if tag in ("insert", "replace"):
            ops.append(insert_op(pos, b[j1:j2]))
            shift += j2 - j1
    return ops
