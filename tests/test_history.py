"""Tests for the id-based history subsystem (repro.history).

Covers the :class:`Version` value type, the version algebra
(compare/meet/join via :class:`CausalGraph`), engine-backed ``text_at`` /
``diff`` / ``checkout``, and — the property the subsystem exists for —
**handle stability**: a saved version keeps meaning exactly the same
characters across further edits, in-place frontier-run extension, re-carved
interop syncs and storage round trips.  Texts are checked against the
per-character :func:`expand_to_chars` oracle.
"""

from __future__ import annotations

import pytest

from repro.core.causal_graph import CausalGraph
from repro.core.document import Document
from repro.core.event_graph import expand_to_chars
from repro.core.ids import EventId
from repro.core.oplog import recarve_events
from repro.core.walker import EgWalker
from repro.history import ROOT, History, Version, apply_ops
from repro.storage import (
    decode_file,
    decode_version,
    encode_event_graph_v3,
    encode_version,
)


def oracle_text_at(document: Document, version: Version) -> str:
    """Reconstruct ``version`` on the per-character oracle graph."""
    expanded = expand_to_chars(document.oplog.graph)
    indices = tuple(sorted({expanded.index_of(eid) for eid in version.ids}))
    walker = EgWalker(expanded, backend="list", enable_clearing=False)
    return walker.text_at_version(indices)


def diamond_documents() -> tuple[Document, Version, Version, Version]:
    """A shared base with two concurrent branches, merged at the end."""
    alice = Document("alice")
    alice.insert(0, "base ")
    base = alice.version()
    bob = Document("bob")
    bob.merge(alice)
    alice.insert(5, "left ")
    bob.insert(5, "right ")
    branch_a = alice.version()
    branch_b = bob.version()
    alice.merge(bob)
    bob.merge(alice)
    assert alice.text == bob.text
    return alice, base, branch_a, branch_b


class TestVersionValueType:
    def test_normalisation_equality_and_hash(self):
        a = Version([EventId("x", 3), EventId("a", 1)])
        b = Version([("a", 1), ("x", 3), ("a", 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a.ids == (EventId("a", 1), EventId("x", 3))

    def test_root_is_falsy(self):
        assert not ROOT
        assert ROOT.is_root
        assert len(ROOT) == 0
        assert Version([("a", 0)])

    def test_frozen(self):
        version = Version([("a", 0)])
        with pytest.raises(AttributeError):
            version.ids = ()

    def test_as_tuples_and_iteration(self):
        version = Version([("b", 2), ("a", 1)])
        assert version.as_tuples() == (("a", 1), ("b", 2))
        assert list(version) == [EventId("a", 1), EventId("b", 2)]

    def test_frontier_classmethod(self):
        doc = Document("alice")
        doc.insert(0, "abc")
        assert Version.frontier(doc.oplog.graph) == doc.version()

    def test_encode_decode(self):
        version = Version([("alice", 7), ("bob", 0)])
        assert decode_version(encode_version(version)) == version


class TestVersionAlgebra:
    def test_compare_linear(self):
        doc = Document("alice")
        doc.insert(0, "a")
        v1 = doc.version()
        doc.insert(0, "b")  # cursor jump: a second run event
        v2 = doc.version()
        h = doc.history
        assert h.compare(v1, v1) == "equal"
        assert h.compare(v1, v2) == "before"
        assert h.compare(v2, v1) == "after"
        assert h.compare(ROOT, v1) == "before"
        assert h.contains(v2, v1) and not h.contains(v1, v2)

    def test_concurrent_meet_join(self):
        alice, base, branch_a, branch_b = diamond_documents()
        h = alice.history
        assert h.compare(branch_a, branch_b) == "concurrent"
        assert h.meet(branch_a, branch_b) == base
        join = h.join(branch_a, branch_b)
        assert h.contains(join, branch_a) and h.contains(join, branch_b)
        assert join == alice.version()

    def test_meet_join_identities(self):
        alice, base, branch_a, _ = diamond_documents()
        h = alice.history
        assert h.meet(branch_a, branch_a) == branch_a
        assert h.join(branch_a, branch_a) == branch_a
        assert h.meet(base, branch_a) == base
        assert h.join(base, branch_a) == branch_a
        assert h.meet(ROOT, branch_a) == ROOT
        assert h.join(ROOT, branch_a) == branch_a


class TestTextAt:
    def test_against_oracle_on_a_diamond(self):
        alice, base, branch_a, branch_b = diamond_documents()
        for version in (ROOT, base, branch_a, branch_b, alice.version()):
            assert alice.text_at(version) == oracle_text_at(alice, version)
        assert alice.text_at(alice.version()) == alice.text

    def test_unknown_version_raises(self):
        doc = Document("alice")
        doc.insert(0, "a")
        with pytest.raises(KeyError):
            doc.text_at(Version([("nobody", 5)]))

    def test_forward_browsing_resumes_from_cache(self):
        """Scrubbing forward through versions replays only the delta."""
        doc = Document("alice")
        for i in range(8):
            doc.insert(0, f"chunk{i} ")  # cursor at 0: one run event each
        versions = doc.versions()
        doc.text_at(versions[0])  # prime the cache
        for i in range(1, 8):
            doc.text_at(versions[i])
            # The forward step replayed O(delta) events, not O(history).
            assert doc.merge_stats.last_history_events_touched <= 2

    def test_checkout_cache_survives_graph_mutation(self):
        doc = Document("alice")
        doc.insert(0, "abc")
        v1 = doc.version()
        assert doc.text_at(v1) == "abc"  # cached
        doc.insert(3, "def")  # extends the cached version's run in place
        assert doc.text_at(v1) == "abc"
        assert doc.text_at(doc.version()) == "abcdef"


class TestDiff:
    def test_sequential_diff_applies(self):
        doc = Document("alice")
        doc.insert(0, "hello world")
        v1 = doc.version()
        doc.delete(0, 6)
        doc.insert(0, "goodbye ")
        v2 = doc.version()
        ops = doc.diff(v1, v2)
        assert apply_ops(doc.text_at(v1), ops) == doc.text_at(v2)

    def test_diff_from_root(self):
        doc = Document("alice")
        doc.insert(0, "abc")
        assert apply_ops("", doc.diff(ROOT, doc.version())) == "abc"

    def test_diff_between_adjacent_critical_versions_is_o_new_events(self):
        """The acceptance bound: with ``a`` a critical version, the walker
        replays exactly the events between the versions — no silent window,
        no history scan (per MergeEngineStats)."""
        doc = Document("alice")
        for i in range(20):
            doc.insert(0, f"w{i} ")  # one run event each; linear history:
        versions = doc.versions()  # every prefix version is critical
        stats = doc.merge_stats
        for i in range(10, 14):
            ops = doc.diff(versions[i], versions[i + 1])
            assert stats.last_history_events_touched == 1  # O(new events)
            assert stats.history_window_events == 0
            assert apply_ops(doc.text_at(versions[i]), ops) == doc.text_at(
                versions[i + 1]
            )
        span = doc.diff(versions[2], versions[7])
        assert stats.last_history_events_touched == 5
        assert apply_ops(doc.text_at(versions[2]), span) == doc.text_at(versions[7])

    def test_concurrent_diff_falls_back_to_text_diff(self):
        alice, _, branch_a, branch_b = diamond_documents()
        before = alice.merge_stats.history_text_diffs
        ops = alice.diff(branch_a, branch_b)
        assert alice.merge_stats.history_text_diffs == before + 1
        assert apply_ops(alice.text_at(branch_a), ops) == alice.text_at(branch_b)

    def test_backwards_diff_applies(self):
        doc = Document("alice")
        doc.insert(0, "abc")
        v1 = doc.version()
        doc.insert(3, "def")
        v2 = doc.version()
        ops = doc.diff(v2, v1)  # backwards: the text-diff fallback
        assert apply_ops(doc.text_at(v2), ops) == "abc"


class TestCheckout:
    def test_checkout_matches_text_at(self):
        alice, base, branch_a, branch_b = diamond_documents()
        for version in (base, branch_a, branch_b):
            branch = alice.checkout(version)
            assert branch.text == alice.text_at(version)

    def test_checkout_agent_naming(self):
        doc = Document("alice")
        doc.insert(0, "x")
        assert doc.checkout(doc.version()).agent == "alice-checkout"
        assert doc.checkout(doc.version(), agent="review").agent == "review"

    def test_two_default_checkouts_can_both_merge_back(self):
        """Default-named branches must get distinct agents: two branches
        editing under the same (agent, seq) ids could never merge."""
        doc = Document("alice")
        doc.insert(0, "abc")
        v = doc.version()
        b1 = doc.checkout(v)
        b2 = doc.checkout(v)
        assert b1.agent != b2.agent
        b1.insert(3, "X")
        b2.insert(3, "Y")
        doc.merge(b1)
        doc.merge(b2)
        assert "X" in doc.text and "Y" in doc.text

    def test_default_checkout_names_avoid_merged_back_branches(self):
        """A fresh History over the same graph (a restart) must not reuse the
        agent of a branch whose events already merged back."""
        doc = Document("alice")
        doc.insert(0, "abc")
        v = doc.version()
        branch = doc.checkout(v)
        branch.insert(3, "X")
        doc.merge(branch)  # "alice-checkout" is now visible in the graph
        # Simulate a restart: a new replica with the same owner agent and a
        # fresh History (its in-memory bookkeeping starts empty).
        reloaded = Document("alice")
        reloaded.apply_remote_events(doc.oplog.export_events())
        again = reloaded.checkout(reloaded.version())
        assert again.agent != branch.agent  # read from the graph, not memory
        again.insert(0, "Y")
        reloaded.merge(again)
        doc.merge(reloaded)
        assert "X" in doc.text and "Y" in doc.text

    def test_checkout_inherits_configuration(self):
        doc = Document(
            "alice",
            backend="list",
            enable_clearing=False,
            coalesce_local_runs=False,
            incremental=False,
        )
        doc.insert(0, "abc")
        branch = doc.checkout(doc.version())
        assert branch.engine.incremental is False
        assert branch.engine.walker_options["backend"] == "list"
        assert branch.engine.walker_options["enable_clearing"] is False
        assert branch.oplog.coalesce_local_runs is False


class TestHandleStability:
    def test_survives_in_place_run_extension(self):
        doc = Document("alice")
        doc.insert(0, "ab")
        saved = doc.version()
        saved_text = doc.text
        doc.insert(2, "cd")  # same run, extended in place
        doc.insert(4, "ef")
        assert len(doc.oplog) == 1  # all one coalesced run
        assert doc.text_at(saved) == saved_text == "ab"
        assert doc.text_at(saved) == oracle_text_at(doc, saved)

    def test_survives_recarved_interop_sync(self):
        producer = Document("p")
        producer.insert(0, "abcdef")
        saved = producer.version()
        # A consumer receives the same history carved into three runs, edits
        # on top, and syncs back — splitting the producer's stored run.
        consumer = Document("q")
        events = recarve_events(
            producer.oplog.export_events(), splits=lambda e: (2, 4)
        )
        consumer.apply_remote_events(events)
        consumer.insert(3, "XY")
        producer.merge(consumer)
        assert len(producer.oplog) > 1  # the run really was split
        assert producer.text_at(saved) == "abcdef"
        assert producer.text_at(saved) == oracle_text_at(producer, saved)

    def test_survives_storage_round_trip(self):
        alice, base, branch_a, branch_b = diamond_documents()
        saved_texts = {
            v: alice.text_at(v) for v in (base, branch_a, branch_b, alice.version())
        }
        data = encode_event_graph_v3(alice.oplog.graph)
        wire_versions = {encode_version(v): text for v, text in saved_texts.items()}
        decoded = decode_file(data)
        history = History.over_graph(decoded.graph)
        for blob, text in wire_versions.items():
            assert history.text_at(decode_version(blob)) == text

    def test_transfers_between_replicas(self):
        """A handle taken on one replica resolves on any peer that has the
        events, regardless of how the peer carved them."""
        alice = Document("alice")
        alice.insert(0, "shared text")
        saved = alice.version()
        bob = Document("bob")
        bob.apply_remote_events(
            recarve_events(alice.oplog.export_events(), splits=lambda e: (4,))
        )
        bob.insert(0, "bob says: ")
        assert bob.text_at(saved) == "shared text"


def two_author_session() -> tuple[Document, dict[str, Version]]:
    """Two exchanges of a two-author session, seen from alice's replica.

    Her local order is ``base, a1, b1, a2, b2``; the frontier ``{a1, b1}``
    the first exchange ends in is a two-head critical version (both authors'
    next events name both heads), at the cut after ``b1``."""
    alice, bob = Document("alice"), Document("bob")
    alice.insert(0, "base ")
    bob.merge(alice)
    saved = {"base": alice.version()}
    for round_ in (1, 2):
        alice.insert(0, f"alice{round_} ")
        bob.insert(len(bob.text), f"bob{round_} ")
        saved[f"a{round_}"], saved[f"b{round_}"] = alice.version(), bob.version()
        alice.merge(bob)
        bob.merge(alice)
        saved[f"both{round_}"] = alice.version()
    assert len(saved["both1"]) == 2 and len(alice.oplog.graph) == 5
    return alice, saved


class TestMultiHeadCriticalVersions:
    """History queries around a critical version that has two heads."""

    def check_everything(self, history: History, doc: Document, saved) -> None:
        final = saved["both2"]
        for name, version in saved.items():
            expected = oracle_text_at(doc, version)
            assert history.text_at(version) == expected, name
            ops = history.diff(version, final)
            assert apply_ops(expected, ops) == doc.text, name
            # Forward browsing resumes from the cached checkout of `version`.
            assert history.text_at(final) == doc.text, name

    def test_one_head_of_a_two_head_version_is_not_a_replay_base(self):
        alice, saved = two_author_session()
        self.check_everything(alice.history, alice, saved)
        # b1 is the cut's own event, yet the version naming it alone does
        # not contain a1: the replay starts from the cut before.
        stats = alice.merge_stats
        alice.diff(saved["b1"], saved["both2"])
        assert stats.last_history_events_touched == 4  # window b1; new a1 a2 b2
        for name in ("a1", "b1"):
            branch = alice.checkout(saved[name])
            assert branch.text == oracle_text_at(alice, saved[name])

    def test_diff_from_the_two_head_version_has_an_empty_window(self):
        alice, saved = two_author_session()
        stats = alice.merge_stats
        window_before = stats.history_window_events
        ops = alice.diff(saved["both1"], saved["both2"])
        assert stats.last_history_events_touched == 2  # a2 and b2, nothing else
        assert stats.history_window_events == window_before
        assert apply_ops(alice.text_at(saved["both1"]), ops) == alice.text
        assert alice.checkout(saved["both1"]).text == alice.text_at(saved["both1"])

    @pytest.mark.parametrize("head", [1, 2])
    def test_across_a_split_of_one_of_the_heads(self, head):
        alice, saved = two_author_session()
        # An interop re-carving splits a1 (an earlier head of the cut after
        # b1) or b1 (the cut's own event): the version moves to the right
        # half and saved handles keep resolving to it.
        alice.oplog.graph.split_event(head, 3)
        self.check_everything(alice.history, alice, saved)
        stats = alice.merge_stats
        alice.diff(saved["both1"], saved["both2"])
        assert stats.last_history_events_touched == 2
        alice.insert(0, "later ")  # the engine still merges across it
        assert alice.text == oracle_text_at(alice, alice.version())

    def test_storage_round_trip_of_a_two_head_version_handle(self):
        alice, saved = two_author_session()
        blobs = {name: encode_version(version) for name, version in saved.items()}
        decoded = decode_file(encode_event_graph_v3(alice.oplog.graph))
        history = History.over_graph(decoded.graph)  # cuts come from a rebuild
        restored = {name: decode_version(blob) for name, blob in blobs.items()}
        assert restored == saved
        self.check_everything(history, alice, restored)
        history.diff(restored["both1"], restored["both2"])
        assert history.engine.stats.last_history_events_touched == 2


class TestDiffQuadraticGuard:
    """The difflib fallback in ``History.diff`` is O(|a|·|b|); above
    ``QUADRATIC_DIFF_LIMIT`` character pairs a guard trims the common affixes
    first and, if the disputed middles are still too large, degrades to a
    coarse replace — bounded cost for arbitrarily long concurrent texts."""

    def test_trim_common_affixes(self):
        from repro.history.history import _trim_common_affixes

        assert _trim_common_affixes("abcXdef", "abcYYdef") == (3, 3)
        assert _trim_common_affixes("same", "same") == (4, 0)  # prefix wins ties
        assert _trim_common_affixes("aaaa", "aaa") == (3, 0)
        assert _trim_common_affixes("xy", "uv") == (0, 0)
        assert _trim_common_affixes("", "abc") == (0, 0)

    def test_small_inputs_stay_fine_grained(self):
        from repro.core.merge_engine import MergeEngineStats
        from repro.history.history import _text_diff

        stats = MergeEngineStats()
        ops = _text_diff("kitten", "sitting", stats=stats)
        assert apply_ops("kitten", ops) == "sitting"
        assert stats.history_diff_guards == 0

    def test_guard_trims_affixes_and_keeps_fine_grained_middle(self):
        from repro.core.merge_engine import MergeEngineStats
        from repro.history.history import QUADRATIC_DIFF_LIMIT, _text_diff

        shared = "p" * 1200
        a = shared + "OLD" + shared
        b = shared + "NEWER" + shared
        assert len(a) * len(b) > QUADRATIC_DIFF_LIMIT
        stats = MergeEngineStats()
        ops = _text_diff(a, b, stats=stats)
        assert stats.history_diff_guards == 1
        assert apply_ops(a, ops) == b
        # The edit script touches only the disputed middle, not the affixes.
        assert sum(len(op.content or "") for op in ops) <= len("NEWER")

    def test_guard_degrades_to_coarse_replace(self):
        from repro.core.merge_engine import MergeEngineStats
        from repro.history.history import QUADRATIC_DIFF_LIMIT, _text_diff

        a = "ab" * 1500
        b = "cd" * 1500
        assert len(a) * len(b) > QUADRATIC_DIFF_LIMIT
        stats = MergeEngineStats()
        ops = _text_diff(a, b, stats=stats)
        assert stats.history_diff_guards == 1
        assert len(ops) == 2  # one delete + one insert
        assert apply_ops(a, ops) == b

    def test_history_diff_guard_counted_on_engine_stats(self):
        alice = Document("alice")
        bob = Document("bob")
        alice.insert(0, "x" * 1100)
        bob.insert(0, "y" * 1200)
        branch_a = alice.version()
        alice.apply_remote_events(bob.events_since(()))
        branch_b = Version(bob.version().ids)
        before = alice.merge_stats.history_diff_guards
        ops = alice.diff(branch_a, branch_b)
        assert alice.merge_stats.history_diff_guards == before + 1
        assert apply_ops(alice.text_at(branch_a), ops) == alice.text_at(branch_b)
