"""Tests for the high-level Document API: local editing, merging, history."""

import pytest

from repro.core.document import Document
from repro.core.ids import EventId, insert_op
from repro.core.oplog import RemoteEvent
from repro.core.walker import EgWalker
from repro.history import Version


class TestLocalEditing:
    def test_insert_and_read(self):
        doc = Document("alice")
        doc.insert(0, "hello")
        doc.insert(5, " world")
        assert doc.text == "hello world"
        assert len(doc) == 11

    def test_delete(self):
        doc = Document("alice")
        doc.insert(0, "hello world")
        removed = doc.delete(5, 6)
        assert removed == " world"
        assert doc.text == "hello"

    def test_empty_insert_is_noop(self):
        doc = Document("alice")
        doc.insert(0, "")
        assert doc.text == ""
        assert len(doc.oplog) == 0

    def test_insert_out_of_range(self):
        doc = Document("alice")
        with pytest.raises(IndexError):
            doc.insert(1, "x")

    def test_delete_out_of_range(self):
        doc = Document("alice")
        doc.insert(0, "ab")
        with pytest.raises(IndexError):
            doc.delete(1, 5)

    def test_events_are_run_length_encoded(self):
        doc = Document("alice")
        doc.insert(0, "abc")
        doc.delete(0, 2)
        # One event per run, covering all its characters.
        assert len(doc.oplog) == 2
        assert doc.oplog.graph.num_chars == 5

    def test_version_advances_with_edits(self):
        doc = Document("alice")
        assert doc.local_version == ()
        assert doc.version().is_root
        doc.insert(0, "ab")
        assert doc.local_version == (0,)
        assert doc.version() == Version([EventId("alice", 1)])
        # Typing straight on extends the frontier run in place (sender-side
        # coalescing): still one event, covering all four characters — but the
        # id-based handle advances (it names the run's new last character).
        doc.insert(2, "cd")
        assert doc.local_version == (0,)
        assert doc.version() == Version([EventId("alice", 3)])
        assert len(doc.oplog) == 1
        assert doc.oplog.graph.num_chars == 4
        # A non-continuing edit (here: a jump back) starts a new run event.
        doc.insert(0, "x")
        assert doc.local_version == (1,)

    def test_local_run_coalescing_can_be_disabled(self):
        doc = Document("alice", coalesce_local_runs=False)
        doc.insert(0, "ab")
        doc.insert(2, "cd")
        assert doc.local_version == (1,)
        assert len(doc.oplog) == 2

    # (OpLog.version deprecation parity is pinned in
    # tests/test_deprecation_shims.py::TestOpLogShims.)


class TestMerging:
    def test_one_way_merge(self):
        alice = Document("alice")
        alice.insert(0, "hello")
        bob = Document("bob")
        ops = bob.merge(alice)
        assert bob.text == "hello"
        # The whole run arrives as a single transformed operation.
        assert len(ops) == 1
        assert ops[0].content == "hello"

    def test_merge_is_idempotent(self):
        alice = Document("alice")
        alice.insert(0, "hello")
        bob = Document("bob")
        bob.merge(alice)
        assert bob.merge(alice) == []
        assert bob.text == "hello"

    def test_paper_figure1_scenario(self):
        user1 = Document("user1")
        user2 = Document("user2")
        user1.insert(0, "Helo")
        user2.merge(user1)
        user1.insert(3, "l")
        user2.insert(4, "!")
        user1.merge(user2)
        user2.merge(user1)
        assert user1.text == user2.text == "Hello!"

    def test_concurrent_deletes_converge(self):
        alice = Document("alice")
        alice.insert(0, "abcdef")
        bob = Document("bob")
        bob.merge(alice)
        alice.delete(1, 2)  # remove "bc"
        bob.delete(2, 2)  # remove "cd"
        alice.merge(bob)
        bob.merge(alice)
        assert alice.text == bob.text == "aef"

    def test_three_replicas_converge(self, two_branch_documents):
        alice, bob = two_branch_documents
        carol = Document("carol")
        carol.merge(alice)
        carol.insert(0, "[carol] ")
        for first, second in [(alice, bob), (bob, carol), (carol, alice)]:
            first.merge(second)
            second.merge(first)
        alice.merge(carol)
        bob.merge(carol)
        carol.merge(bob)
        alice.merge(bob)
        assert alice.text == bob.text == carol.text

    def test_merge_returns_transformed_operations(self, two_branch_documents):
        alice, bob = two_branch_documents
        before = alice.text
        ops = alice.merge(bob)
        assert ops, "merging a diverged replica must produce operations"
        # Replaying the returned operations over the old text reproduces the
        # new text (the incremental-update contract of §2.4).
        rebuilt = before
        for op in ops:
            rebuilt = op.apply_to(rebuilt)
        assert rebuilt == alice.text

    def test_offline_editing_long_branches(self):
        alice = Document("alice")
        alice.insert(0, "chapter one. ")
        bob = Document("bob")
        bob.merge(alice)
        # Both go offline and write a lot.
        for i in range(40):
            alice.insert(len(alice.text), f"alice sentence {i}. ")
        for i in range(40):
            bob.insert(len(bob.text), f"bob sentence {i}. ")
        alice.merge(bob)
        bob.merge(alice)
        assert alice.text == bob.text
        assert "alice sentence 39. " in alice.text
        assert "bob sentence 39. " in alice.text

    def test_exchange_via_remote_events(self):
        alice = Document("alice")
        alice.insert(0, "shared")
        bob = Document("bob")
        bob.apply_remote_events(alice.oplog.export_events())
        assert bob.text == "shared"
        bob.insert(6, "!")
        missing = bob.events_since(alice.version())
        assert [e.id for e in missing] == [EventId("bob", 0)]
        alice.apply_remote_events(missing)
        assert alice.text == "shared!"

    def test_events_since_accepts_raw_ids_and_version_handles(self):
        alice = Document("alice")
        alice.insert(0, "shared")
        bob = Document("bob")
        bob.merge(alice)
        bob.insert(6, "!")
        handle = alice.version()
        assert bob.events_since(handle) == bob.events_since(handle.ids)


class TestBatchFailingMidway:
    """A batch whose n-th event is refused leaves events 0..n-1 in the graph
    (redelivering them is a no-op), so the text must have received them by
    the time the exception propagates."""

    @staticmethod
    def _sender() -> Document:
        sender = Document("sender")
        sender.insert(0, "world")
        sender.insert(0, "hello ")
        return sender

    @staticmethod
    def _refused(kind: str, good: list[RemoteEvent]) -> tuple[type, RemoteEvent]:
        if kind == "unknown-parent":
            return KeyError, RemoteEvent(EventId("ghost", 0), (EventId("nobody", 3),), insert_op(0, "x"))
        return ValueError, RemoteEvent(good[0].id, good[0].parents, insert_op(0, "WORLD"))

    @pytest.mark.parametrize("kind", ["unknown-parent", "different-content"])
    def test_apply_remote_events_then_redelivery_then_an_edit(self, kind):
        sender = self._sender()
        good = sender.oplog.export_events()
        error, refused = self._refused(kind, good)
        receiver = Document("receiver")
        with pytest.raises(error):
            receiver.apply_remote_events(good + [refused])
        assert receiver.text == "hello world"
        assert receiver.apply_remote_events(good) == []  # redelivery: all known
        sender.insert(len(sender), "!")
        receiver.apply_remote_events(sender.events_since(receiver.version()))
        receiver.insert(0, "> ")
        sender.apply_remote_events(receiver.events_since(sender.version()))
        assert receiver.text == sender.text == "> hello world!"
        assert receiver.text == EgWalker(receiver.oplog.graph).replay_text()

    def test_merge(self):
        """``merge`` reads another replica's graph, whose parents always come
        first — only a content conflict can stop it midway."""
        other = self._sender()
        other.apply_remote_events([RemoteEvent(EventId("zed", 0), (), insert_op(0, "Z"))])
        receiver = Document("receiver")
        receiver.apply_remote_events([RemoteEvent(EventId("zed", 0), (), insert_op(0, "Q"))])
        with pytest.raises(ValueError):
            receiver.merge(other)
        assert sorted(receiver.text) == sorted("Qhello world")
        receiver.insert(0, "> ")
        assert receiver.text == EgWalker(receiver.oplog.graph).replay_text()


class TestHistory:
    def test_text_at_saved_version(self):
        doc = Document("alice")
        doc.insert(0, "abc")
        version_after_abc = doc.version()
        doc.insert(3, "def")
        doc.delete(0, 1)
        assert doc.text_at(version_after_abc) == "abc"
        assert doc.text_at(doc.version()) == doc.text

    def test_version_handle_survives_run_coalescing(self):
        """A handle keeps naming the same prefix even after the frontier run
        grows in place (the id names a character, not a run)."""
        doc = Document("alice")
        doc.insert(0, "abc")
        snapshot = doc.version()
        doc.insert(3, "def")  # extends the same run event
        doc.delete(0, 1)
        assert len(doc.oplog) == 2  # the two inserts coalesced
        assert doc.text_at(snapshot) == "abc"
        assert doc.text_at(doc.version()) == doc.text

    def test_version_resolution_is_order_independent(self):
        """Resolving a handle must not be corrupted by the run splits the
        resolution itself performs (each split shifts later indices)."""
        p = Document("p")
        p.insert(0, "pppp")
        q = Document("q")
        q.merge(p)
        q.insert(0, "SSSS")
        p.insert(4, "RRRR")  # concurrent with q's insert, coalesces with run
        p.merge(q)
        q.merge(p)
        expected = p.text_at(Version((EventId("p", 5), EventId("q", 1))))
        assert p.text_at(Version((EventId("q", 1), EventId("p", 5)))) == expected
        assert "SS" in expected and "pppp" in expected

    def test_versions_enumeration(self):
        doc = Document("alice")
        doc.insert(0, "x")
        doc.insert(1, "y")  # continues the run: same event
        assert doc.versions() == [Version([EventId("alice", 1)])]
        doc.insert(0, "a")  # cursor jump: new run event
        versions = doc.versions()
        assert len(versions) == 2
        assert [doc.text_at(v) for v in versions] == ["xy", "axy"]

    def test_versions_are_per_run_event(self):
        doc = Document("alice")
        doc.insert(0, "xy")
        doc.delete(0, 1)
        versions = doc.versions()
        assert len(versions) == 2
        assert [doc.text_at(v) for v in versions] == ["xy", "y"]

    def test_diff_roundtrips_between_versions(self):
        doc = Document("alice")
        doc.insert(0, "hello world")
        v1 = doc.version()
        doc.delete(5, 6)
        doc.insert(5, ", goodbye")
        v2 = doc.version()
        ops = doc.diff(v1, v2)
        text = doc.text_at(v1)
        for op in ops:
            text = op.apply_to(text)
        assert text == doc.text_at(v2) == "hello, goodbye"

    def test_checkout_is_an_editable_branch(self):
        doc = Document("alice")
        doc.insert(0, "abc")
        v = doc.version()
        doc.insert(3, "def")
        branch = doc.checkout(v)
        assert branch.text == "abc"
        branch.insert(3, "!")
        assert branch.text == "abc!"
        # The branch merges back like any replica.
        doc.merge(branch)
        assert "!" in doc.text and "def" in doc.text


class TestDeprecatedIndexShims:
    # Warning + value parity for all four deprecated snapshot shims lives in
    # tests/test_deprecation_shims.py (the one file the deprecated-snapshot-api
    # lint rule allows to touch them).  Only the index-tuple overload of the
    # canonical text_at is pinned here.
    def test_text_at_with_index_tuples_warns_but_works(self):
        doc = Document("alice", coalesce_local_runs=False)
        doc.insert(0, "abc")
        version_after_abc = doc.local_version
        doc.insert(3, "def")
        with pytest.warns(DeprecationWarning):
            assert doc.text_at(version_after_abc) == "abc"


class TestWalkerConfigurationsOnDocuments:
    @pytest.mark.parametrize("backend", ["list", "tree"])
    @pytest.mark.parametrize("clearing", [True, False])
    def test_document_options_converge(self, backend, clearing):
        alice = Document("alice", backend=backend, enable_clearing=clearing)
        bob = Document("bob", backend=backend, enable_clearing=clearing)
        alice.insert(0, "Helo")
        bob.merge(alice)
        alice.insert(3, "l")
        bob.insert(4, "!")
        alice.merge(bob)
        bob.merge(alice)
        assert alice.text == bob.text == "Hello!"


class TestAdoption:
    """``Document(agent, graph=..., text=...)``: a stored graph becomes a live
    replica without being re-ingested (the path every load goes through)."""

    @staticmethod
    def _stored():
        """A two-branch history as a decoder would hand it over: a private
        graph (bulk-built from columns) and the text at its frontier."""
        from repro.core.event_graph import EventGraph

        alice, bob = Document("alice"), Document("bob")
        alice.insert(0, "shared base. ")
        bob.merge(alice)
        alice.insert(len(alice.text), "alice's end.")
        bob.insert(0, "bob's start. ")
        bob.delete(0, 3)
        alice.merge(bob)
        events = alice.oplog.graph.events()
        graph = EventGraph.from_columns(
            [e.id for e in events], [e.parents for e in events], [e.op for e in events]
        )
        return graph, alice.text, alice

    @pytest.mark.parametrize("incremental", [True, False])
    def test_adopts_graph_and_text_without_merging(self, incremental):
        graph, text, source = self._stored()
        doc = Document("reader", graph=graph, text=text, incremental=incremental)
        assert doc.oplog.graph is graph
        assert doc.text == text
        assert doc.merge_stats.merges == 0
        assert doc.merge_stats.events_integrated == 0
        assert not doc.engine.has_resident_state
        assert doc.version() == source.version()
        # Editable and mergeable straight away, in both directions.
        doc.insert(0, "reader was here. ")
        source.insert(len(source.text), " source went on.")
        doc.merge(source)
        source.merge(doc)
        assert doc.text == source.text

    @pytest.mark.parametrize("incremental", [True, False])
    def test_graph_without_text_is_replayed_in_place(self, incremental):
        graph, text, _ = self._stored()
        doc = Document("reader", graph=graph, incremental=incremental)
        assert doc.oplog.graph is graph
        assert doc.text == text
        assert doc.merge_stats.merges == 1
        assert doc.merge_stats.events_integrated == len(graph)
        assert not doc.engine.has_resident_state

    def test_text_without_graph_is_rejected(self):
        with pytest.raises(ValueError):
            Document("reader", text="orphan snapshot")
