"""Tests for the high-level Document API: local editing, merging, history."""

import inspect
import warnings

import pytest

from repro.core.document import Document
from repro.core.event_graph import EventGraph
from repro.core.ids import EventId, delete_op, insert_op
from repro.core.internal_state import InternalState
from repro.core.merge_engine import MergeEngine
from repro.core.oplog import OpLog, RemoteEvent
from repro.core.order_statistic_tree import TreeSequence
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

    def test_events_since_a_version_ahead_of_ours_sends_only_what_it_lacks(self):
        """A peer whose version names ``(a, 44)`` when we hold only ``a``'s
        first 40 characters (we lost the rest in a crash) has all 40 of them:
        an agent's characters are causally ordered."""
        room = Document("a")
        for k in range(40):
            room.insert(k, "x")
        assert room.events_since([EventId("a", 44)]) == []
        carol = Document("carol")
        carol.merge(room)
        carol.insert(40, "ccc")
        room.merge(carol)
        assert [e.id for e in room.events_since([EventId("a", 44)])] == [EventId("carol", 0)]
        # An agent we have never seen still contributes nothing.
        assert room.events_since([EventId("zed", 7)]) == room.events_since(())


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

    @pytest.mark.parametrize("kind", ["unknown-parent", "different-content"])
    def test_a_batch_that_splits_a_stored_run_then_is_refused(self, kind):
        """The batch's first event splits the stored run below the batch's
        tail; what the receiver integrates is still exactly what the batch
        added.  With a conflict that includes the new head of the refused
        run, added before its stored rest was found to differ."""
        sender = Document("sender")
        sender.insert(0, "hello world")
        receiver = Document("receiver")
        receiver.apply_remote_events(sender.oplog.export_events())
        split = RemoteEvent(EventId("bob", 0), (EventId("sender", 4),), insert_op(5, ","))
        if kind == "unknown-parent":
            error = KeyError
            batch = [split, RemoteEvent(EventId("ghost", 0), (EventId("nobody", 3),), insert_op(0, "x"))]
        else:
            error = ValueError
            batch = [
                split,
                RemoteEvent(EventId("bob", 2), (EventId("bob", 0),), insert_op(6, "q")),
                RemoteEvent(EventId("bob", 1), (EventId("bob", 0),), insert_op(6, "pZ")),
            ]
        with pytest.raises(error):
            receiver.apply_remote_events(batch)
        graph = receiver.oplog.graph
        assert [graph.op_of(i).content for i in range(2)] == ["hello", " world"]
        assert graph.contains_id(EventId("bob", 1)) is (kind == "different-content")
        assert receiver.text == EgWalker(graph).replay_text()
        assert receiver.apply_remote_events(batch[:-1]) == []  # redelivery: all known
        sender.apply_remote_events(receiver.events_since(sender.version()))
        sender.insert(len(sender), "!")
        receiver.apply_remote_events(sender.events_since(receiver.version()))
        receiver.insert(0, "> ")
        sender.apply_remote_events(receiver.events_since(sender.version()))
        assert receiver.text == sender.text == EgWalker(receiver.oplog.graph).replay_text()


class TestRefusedOperations:
    """ROADMAP item 13: an event whose range does not fit the document at its
    parents enters the graph before anything refuses it.  Each test asserts
    the right outcome, which the code does not give yet."""

    @pytest.mark.xfail(strict=True, raises=(AssertionError, IndexError), reason="ROADMAP item 13")
    def test_an_oversized_delete_leaves_no_trace(self):
        server = Document("server")
        server.apply_remote_events([RemoteEvent(EventId("alice", 0), (), insert_op(0, "abcd"))])
        with pytest.raises((IndexError, ValueError)):
            server.apply_remote_events(
                [RemoteEvent(EventId("bob", 0), (EventId("alice", 3),), delete_op(0, 5))]
            )
        server.apply_remote_events(
            [RemoteEvent(EventId("alice", 4), (EventId("alice", 3),), insert_op(4, "e"))]
        )
        assert server.text == "abcde"

    @pytest.mark.xfail(strict=True, raises=(AssertionError, IndexError), reason="ROADMAP item 13")
    def test_an_insert_past_the_end_does_not_wedge_the_replica(self):
        server = Document("server")
        server.apply_remote_events([RemoteEvent(EventId("alice", 0), (), insert_op(0, "abc"))])
        with pytest.raises((IndexError, ValueError)):
            server.apply_remote_events(
                [RemoteEvent(EventId("evil", 0), (EventId("alice", 2),), insert_op(10, "x"))]
            )
        server.apply_remote_events(
            [RemoteEvent(EventId("alice", 3), (EventId("alice", 2),), insert_op(3, "d"))]
        )
        assert server.text == "abcd"


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


class TestVersionHandles:
    """Id-based :class:`Version` handles are the one snapshot currency; local
    index tuples reach the history API only through ``History.version_of``."""

    @staticmethod
    def _merged(two_branch_documents) -> Document:
        """A replica whose frontier has two heads, so handle ordering and
        canonicalisation actually matter."""
        alice, bob = two_branch_documents
        alice.merge(bob)
        assert len(alice.local_version) == 2
        return alice

    def test_version_ids_are_sorted_and_unique(self, two_branch_documents):
        doc = self._merged(two_branch_documents)
        ids = doc.version().ids
        assert len(ids) == 2
        assert ids == tuple(sorted(set(ids)))

    def test_rebuilt_handles_read_the_same_text(self, two_branch_documents):
        doc = self._merged(two_branch_documents)
        for handle in doc.versions():
            assert doc.text_at(Version(handle.ids)) == doc.text_at(handle)
        assert doc.text_at(Version(reversed(doc.version().ids))) == doc.text

    def test_text_at_each_version_matches_its_checkout(self, two_branch_documents):
        doc = self._merged(two_branch_documents)
        for handle in doc.versions() + [doc.version()]:
            assert doc.checkout(handle).text == doc.text_at(handle)

    def test_local_index_versions_convert_through_version_of(self):
        doc = Document("solo")
        doc.insert(0, "one")
        after_one = doc.local_version
        # A second event after it (a continuing local insert would extend
        # the first run in place instead).
        doc.apply_remote_events(
            [RemoteEvent(EventId("other", 0), (EventId("solo", 2),), insert_op(3, " two"))]
        )
        assert doc.history.version_of(doc.local_version) == doc.version()
        assert doc.text_at(doc.history.version_of(after_one)) == "one"

    def test_local_version_tracks_graph_mutation(self, two_branch_documents):
        alice, bob = two_branch_documents
        for edit in (lambda: alice.insert(0, "x"), lambda: alice.merge(bob)):
            edit()
            assert alice.oplog.local_version == alice.oplog.graph.frontier
            assert alice.local_version == alice.oplog.local_version

    def test_version_apis_do_not_warn(self, two_branch_documents):
        doc = self._merged(two_branch_documents)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            doc.text_at(doc.version())
            doc.text_at(Version(doc.version().ids))
            doc.diff(doc.versions()[0], doc.version())
            _ = doc.oplog.local_version


class TestOptionSurface:
    """One merge path: the walker configuration is not a replica option."""

    def test_document_options_are_adoption_only(self):
        params = inspect.signature(Document).parameters
        keyword_only = {
            name for name, p in params.items() if p.kind is p.KEYWORD_ONLY
        }
        assert keyword_only == {"graph", "text"}
        assert list(inspect.signature(Document.from_bytes).parameters) == ["data", "agent"]
        assert list(inspect.signature(OpLog).parameters) == ["agent", "graph"]
        with pytest.raises(TypeError):
            Document("alice", backend="list")  # type: ignore[call-arg]
        # One sequence implementation: the walker has no backend option and
        # the internal state starts on the tree.
        with pytest.raises(TypeError):
            EgWalker(EventGraph(), backend="list")  # type: ignore[call-arg]
        assert isinstance(InternalState().sequence, TreeSequence)

    def test_causal_buffer_takes_only_deliver_batch(self):
        from repro.network import CausalBuffer

        assert list(inspect.signature(CausalBuffer).parameters) == ["deliver_batch"]
        for name in ("receive", "mark_known"):
            assert not hasattr(CausalBuffer, name)

    def test_replica_factories_take_no_document_options(self):
        from repro.network import Replica
        from repro.network.simulator import (
            NetworkSimulator,
            SimulatedReplica,
            full_mesh,
            live_session,
            star,
        )
        from repro.server.app import CollabServer
        from repro.server.loadgen import _ReplicaCore
        from repro.server.session import DocumentRoom
        from repro.server.wal import recover_document

        for factory in (
            CollabServer,
            DocumentRoom,
            recover_document,
            Replica,
            _ReplicaCore,
            SimulatedReplica,
            NetworkSimulator,
            full_mesh,
            star,
            live_session,
        ):
            assert "document_options" not in inspect.signature(factory).parameters, factory

    def test_replica_takes_only_its_document(self):
        from repro.network import Replica

        assert list(inspect.signature(Replica).parameters) == ["document"]

    def test_merge_engine_takes_no_options(self):
        params = inspect.signature(MergeEngine).parameters
        assert list(params) == ["oplog", "rope"]

    def test_walker_keeps_only_the_figure_knobs(self):
        params = inspect.signature(EgWalker).parameters
        keyword_only = {
            name for name, p in params.items() if p.kind is p.KEYWORD_ONLY
        }
        assert keyword_only == {"enable_clearing", "sort_strategy"}

    def test_index_based_snapshot_shims_are_gone(self):
        for name in ("remote_version", "text_at_remote", "history_versions"):
            assert not hasattr(Document, name)
        for name in ("version", "remote_version"):
            assert not hasattr(OpLog, name)


class TestWalkerConfigurationsOnDocuments:
    @pytest.mark.parametrize("clearing", [True, False])
    def test_document_options_converge(self, clearing):
        alice = Document("alice")
        bob = Document("bob")
        alice.insert(0, "Helo")
        bob.merge(alice)
        alice.insert(3, "l")
        bob.insert(4, "!")
        alice.merge(bob)
        bob.merge(alice)
        assert alice.text == bob.text == "Hello!"
        for doc in (alice, bob):
            walker = EgWalker(doc.oplog.graph, enable_clearing=clearing)
            assert walker.replay_text() == "Hello!"


class TestAdoption:
    """``Document(agent, graph=..., text=...)``: a stored graph becomes a live
    replica without being re-ingested (the path every load goes through)."""

    @staticmethod
    def _stored(concurrent: bool):
        """A two-branch (or a linear) history as a decoder would hand it
        over: a private graph (bulk-built from columns) and the text at its
        frontier."""
        alice, bob = Document("alice"), Document("bob")
        alice.insert(0, "shared base. ")
        bob.merge(alice)
        alice.insert(len(alice.text), "alice's end.")
        if concurrent:
            bob.insert(0, "bob's start. ")
            bob.delete(0, 3)
            alice.merge(bob)
        else:
            alice.delete(0, 3)
        events = alice.oplog.graph.events()
        graph = EventGraph.from_columns(
            [e.id for e in events], [e.parents for e in events], [e.op for e in events]
        )
        return graph, alice.text, alice

    @staticmethod
    def _type_two_runs(doc: Document) -> None:
        """Two continuing inserts on an adopted replica coalesce into one
        event."""
        before = len(doc.oplog)
        doc.insert(0, "reader ")
        doc.insert(7, "was here. ")
        assert len(doc.oplog) == before + 1

    @pytest.mark.parametrize("concurrent", [True, False])
    def test_adopts_graph_and_text_without_merging(self, concurrent):
        graph, text, source = self._stored(concurrent)
        doc = Document("reader", graph=graph, text=text)
        assert doc.oplog.graph is graph
        assert doc.text == text
        assert doc.merge_stats.merges == 0
        assert doc.merge_stats.events_integrated == 0
        assert not doc.engine.has_resident_state
        assert doc.version() == source.version()
        # Editable and mergeable straight away, in both directions.
        self._type_two_runs(doc)
        source.insert(len(source.text), " source went on.")
        doc.merge(source)
        source.merge(doc)
        assert doc.text == source.text

    @pytest.mark.parametrize("concurrent", [True, False])
    def test_graph_without_text_is_replayed_in_place(self, concurrent):
        graph, text, _ = self._stored(concurrent)
        doc = Document("reader", graph=graph)
        assert doc.oplog.graph is graph
        assert doc.text == text
        assert doc.merge_stats.merges == 1
        assert doc.merge_stats.events_integrated == len(graph)
        assert not doc.engine.has_resident_state
        self._type_two_runs(doc)
        assert doc.text == "reader was here. " + text
        assert doc.text == EgWalker(graph).replay_text()

    def test_text_without_graph_is_rejected(self):
        with pytest.raises(ValueError):
            Document("reader", text="orphan snapshot")
