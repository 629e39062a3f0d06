"""Tests for the replication substrate: causal broadcast, the replica built on
it, and the network simulator."""

import random

import pytest

from repro.core.document import Document
from repro.core.ids import EventId, insert_op
from repro.core.oplog import RemoteEvent, graph_to_remote_events, recarve_events
from repro.core.range_map import SpanSet
from repro.network import CausalBuffer, NetworkSimulator, Replica, full_mesh, star
from repro.storage.container import ContainerOptions, encode_event_graph_v3
from repro.traces.generator import generate_concurrent

from oracles import per_char_text


def remote_event(agent, seq, parents, pos, char):
    return RemoteEvent(
        id=EventId(agent, seq),
        parents=tuple(parents),
        op=insert_op(pos, char),
    )


class TestCausalBuffer:
    def test_in_order_delivery(self):
        delivered = []
        buffer = CausalBuffer(deliver_batch=delivered.extend)
        e1 = remote_event("a", 0, [], 0, "x")
        e2 = remote_event("a", 1, [e1.id], 1, "y")
        assert buffer.receive_batch([e1]) == 1
        assert buffer.receive_batch([e2]) == 1
        assert [e.id for e in delivered] == [e1.id, e2.id]

    def test_out_of_order_delivery_is_held_back(self):
        delivered = []
        buffer = CausalBuffer(deliver_batch=delivered.extend)
        e1 = remote_event("a", 0, [], 0, "x")
        e2 = remote_event("a", 1, [e1.id], 1, "y")
        e3 = remote_event("a", 2, [e2.id], 2, "z")
        assert buffer.receive_batch([e3]) == 0
        assert buffer.receive_batch([e2]) == 0
        assert buffer.pending_count == 2
        # The missing root arrives: everything cascades out in causal order.
        assert buffer.receive_batch([e1]) == 3
        assert [e.id.seq for e in delivered] == [0, 1, 2]
        assert buffer.pending_count == 0

    def test_duplicates_are_dropped(self):
        delivered = []
        buffer = CausalBuffer(deliver_batch=delivered.extend)
        e1 = remote_event("a", 0, [], 0, "x")
        buffer.receive_batch([e1])
        buffer.receive_batch([e1])
        assert len(delivered) == 1
        assert buffer.stats.duplicates == 1

    def test_a_superseded_carving_is_counted(self):
        """A parked run that a coarser carving replaces is ``superseded``,
        whether the coarser one parks too or is deliverable (its sender named
        other parents for the same first character)."""
        delivered = []
        buffer = CausalBuffer(deliver_batch=delivered.extend)
        finer = remote_event("a", 0, [EventId("z", 0)], 0, "x")
        coarser = remote_event("a", 0, [EventId("z", 0)], 0, "xy")
        buffer.receive_batch([finer, coarser])
        assert buffer.pending_count == 1 and buffer.stats.superseded == 1
        rootless = remote_event("a", 0, [], 0, "xyz")
        buffer.receive_batch([rootless])
        assert delivered == [rootless]
        stats = buffer.stats
        assert buffer.pending_count == 0 and stats.superseded == 2
        assert stats.received == stats.delivered + stats.duplicates + stats.superseded

    def test_mark_known_suppresses_local_events(self):
        delivered = []
        buffer = CausalBuffer(deliver_batch=delivered.extend)
        e1 = remote_event("a", 0, [], 0, "x")
        buffer.mark_known_spans([(e1.id, 1)])
        e2 = remote_event("b", 0, [e1.id], 1, "y")
        assert buffer.receive_batch([e2]) == 1
        assert buffer.receive_batch([e1]) == 0  # already known

    def test_stats_track_high_water_mark(self):
        buffer = CausalBuffer(deliver_batch=lambda batch: None)
        e1 = remote_event("a", 0, [], 0, "x")
        e2 = remote_event("a", 1, [e1.id], 1, "y")
        e3 = remote_event("a", 2, [e2.id], 2, "z")
        buffer.receive_batch([e3])
        buffer.receive_batch([e2])
        assert buffer.stats.buffered_high_water == 2


class TestSpanAwareBuffer:
    """The buffer reasons about character spans, so run carving is irrelevant."""

    def run_event(self, agent, seq, parents, pos, content):
        return RemoteEvent(
            id=EventId(agent, seq), parents=tuple(parents), op=insert_op(pos, content)
        )

    def test_recarved_redelivery_is_duplicate(self):
        delivered = []
        buffer = CausalBuffer(deliver_batch=delivered.extend)
        buffer.receive_batch([self.run_event("a", 0, [], 0, "abcd")])
        # The same characters again, carved as two runs: both are duplicates.
        assert buffer.receive_batch([self.run_event("a", 0, [], 0, "ab")]) == 0
        assert buffer.receive_batch([self.run_event("a", 2, [EventId("a", 1)], 2, "cd")]) == 0
        assert buffer.stats.duplicates == 2
        assert len(delivered) == 1

    def test_partially_known_run_passes_through(self):
        delivered = []
        buffer = CausalBuffer(deliver_batch=delivered.extend)
        buffer.receive_batch([self.run_event("a", 0, [], 0, "ab")])
        # A coarser carving that extends the known prefix is not a duplicate:
        # the graph's split-on-ingest keeps only the new characters.
        assert buffer.receive_batch([self.run_event("a", 0, [], 0, "abcd")]) == 1
        assert len(delivered) == 2

    def test_mid_run_parent_reference_counts_as_known(self):
        delivered = []
        buffer = CausalBuffer(deliver_batch=delivered.extend)
        buffer.receive_batch([self.run_event("a", 0, [], 0, "abcd")])
        # A peer that saw only "ab" depends on the mid-run character (a, 1).
        assert buffer.receive_batch([self.run_event("b", 0, [EventId("a", 1)], 2, "x")]) == 1

    def test_coarser_carving_replaces_buffered_finer_carving(self):
        """A coarser run arriving while a finer carving of the same run is
        buffered must not be dropped as a duplicate — its extra characters
        would be lost."""
        delivered = []
        buffer = CausalBuffer(deliver_batch=delivered.extend)
        parent = EventId("p", 0)
        assert buffer.receive_batch([self.run_event("a", 0, [parent], 0, "ab")]) == 0
        assert buffer.receive_batch([self.run_event("a", 0, [parent], 0, "abcd")]) == 0
        assert buffer.pending_count == 1
        # The reverse direction (finer after coarser) *is* a duplicate.
        assert buffer.receive_batch([self.run_event("a", 0, [parent], 0, "ab")]) == 0
        assert buffer.stats.duplicates == 1
        buffer.receive_batch([self.run_event("p", 0, [], 0, "!")])
        assert [e.op.content for e in delivered] == ["!", "abcd"]

    def test_mark_known_spans_flushes_waiting_events(self):
        delivered = []
        buffer = CausalBuffer(deliver_batch=delivered.extend)
        held = self.run_event("b", 0, [EventId("a", 3)], 4, "x")
        assert buffer.receive_batch([held]) == 0
        assert buffer.pending_count == 1
        # The parent span arrives out of band (e.g. a direct graph sync).
        assert buffer.mark_known_spans([(EventId("a", 0), 4)]) == 1
        assert buffer.pending_count == 0
        assert [e.id for e in delivered] == [held.id]


class TestSpanSetModel:
    """``SpanSet`` against a plain ``set`` of its members."""

    @staticmethod
    def runs(members):
        """Maximal runs of consecutive members: what a canonical SpanSet holds."""
        return sum(1 for k in members if k - 1 not in members)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_a_set_of_members(self, seed):
        rng = random.Random(seed)
        spans, model = SpanSet(), set()
        tail = 0
        for _ in range(300):
            roll = rng.random()
            if roll < 0.35:  # the last run's end, or a gap past it
                start = tail + (0 if rng.random() < 0.6 else rng.randint(1, 4))
            elif roll < 0.7:  # fill or straddle a gap between runs
                start = rng.randrange(tail + 2)
            else:  # anywhere, possibly covering several runs at once
                start = rng.randrange(tail + 8)
            length = rng.randint(0, 9)
            spans.add(start, length)
            model.update(range(start, start + length))
            tail = max(model, default=0) + 1
            assert len(spans) == self.runs(model)
            for key in range(-1, tail + 2):
                assert spans.contains(key) == (key in model)
            for _ in range(4):
                lo, length = rng.randrange(-1, tail + 2), rng.randint(1, 6)
                assert spans.covers(lo, length) == model.issuperset(range(lo, lo + length))


class TestShuffledDelivery:
    """Any network order, multiplicity and carving of a history releases all
    of it, in causal order, with nothing left parked."""

    @pytest.mark.parametrize("seed", range(6))
    def test_releases_the_history_in_causal_order(self, seed):
        rng = random.Random(seed)
        trace = generate_concurrent("shuffle", target_events=120, seed=seed)
        history = graph_to_remote_events(trace.graph)
        deliveries = []
        for _ in range(3):  # three carvings of the history, interleaved
            deliveries += recarve_events(
                history,
                splits=lambda e: [k for k in range(1, e.op.length) if rng.random() < 0.3],
                merge_adjacent=rng.random() < 0.5,
            )
        deliveries += rng.sample(deliveries, 20)
        rng.shuffle(deliveries)

        released = []
        buffer = CausalBuffer(deliver_batch=released.extend)
        stats = buffer.stats
        while deliveries:
            cut = rng.randint(1, 12)
            buffer.receive_batch(deliveries[:cut])
            deliveries = deliveries[cut:]
            # Every received event is accounted once, parked ones included.
            # Seed 0 is the stream whose counters once read received 168 vs
            # delivered 43 + duplicates 85: superseded carvings and covered
            # cascade pops were counted nowhere.
            assert stats.received == (
                stats.delivered + stats.duplicates + stats.superseded + buffer.pending_count
            )
        assert buffer.pending_count == 0
        assert stats.superseded > 0

        known = {}
        for event in released:  # every parent was released before its child
            for parent in event.parents:
                assert parent.seq in known.get(parent.agent, ()), (event, parent)
            known.setdefault(event.id.agent, set()).update(
                range(event.id.seq, event.id.seq + event.op.length)
            )
        expected = {}
        for event in history:
            expected.setdefault(event.id.agent, set()).update(
                range(event.id.seq, event.id.seq + event.op.length)
            )
        assert known == expected
        assert stats.delivered == len(released)
        document = Document("reader")
        document.apply_remote_events(released)
        assert document.text == trace.final_text


class TestNetworkSimulator:
    def test_full_mesh_real_time_session_converges(self):
        sim = full_mesh(["a", "b", "c"], latency=0.01)
        rng = random.Random(1)
        for _ in range(120):
            replica = sim.replicas[rng.choice(["a", "b", "c"])]
            if len(replica.text) == 0 or rng.random() < 0.7:
                replica.insert(rng.randint(0, len(replica.text)), rng.choice("abc"))
            else:
                replica.delete(rng.randrange(len(replica.text)))
            sim.advance(0.004)
        sim.run_until_quiescent()
        assert sim.converged()
        texts = set(sim.all_texts().values())
        assert len(texts) == 1 and len(texts.pop()) > 0

    def test_star_topology_relays_through_hub(self):
        sim = star("server", ["u1", "u2", "u3"], latency=0.01)
        sim.replicas["u1"].insert(0, "hello from u1 ")
        sim.replicas["u2"].insert(0, "hello from u2 ")
        sim.run_until_quiescent()
        assert sim.converged()
        assert "hello from u1" in sim.replicas["u3"].text
        assert "hello from u2" in sim.replicas["u3"].text

    def test_offline_editing_and_reconnect(self):
        sim = full_mesh(["alice", "bob"], latency=0.01)
        alice = sim.replicas["alice"]
        bob = sim.replicas["bob"]
        alice.insert(0, "base ")
        sim.run_until_quiescent()
        bob.set_online(False)
        bob.insert(len(bob.text), "offline work by bob. ")
        alice.insert(len(alice.text), "online work by alice. ")
        sim.run_until_quiescent()
        # Neither side has seen the other's edits while bob is offline.
        assert "offline work" not in alice.text
        assert "online work" not in bob.text
        bob.set_online(True)
        sim.run_until_quiescent()
        assert alice.text == bob.text
        assert "offline work by bob." in alice.text
        assert "online work by alice." in alice.text

    def test_partition_and_heal(self):
        sim = full_mesh(["x", "y"], latency=0.01)
        sim.replicas["x"].insert(0, "shared ")
        sim.run_until_quiescent()
        sim.partition("x", "y")
        sim.replicas["x"].insert(len(sim.replicas["x"].text), "from x ")
        sim.replicas["y"].insert(len(sim.replicas["y"].text), "from y ")
        sim.run_until_quiescent()
        assert not sim.converged()
        sim.heal("x", "y")
        sim.run_until_quiescent()
        assert sim.converged()
        assert "from x" in sim.replicas["y"].text
        assert "from y" in sim.replicas["x"].text

    def test_duplicate_replica_name_rejected(self):
        sim = NetworkSimulator()
        sim.add_replica("a")
        with pytest.raises(ValueError):
            sim.add_replica("a")

    def test_message_counters(self):
        sim = full_mesh(["a", "b"], latency=0.01)
        sim.replicas["a"].insert(0, "hi")
        sim.run_until_quiescent()
        # The whole insert run travels as a single event message.
        assert sim.messages_sent == 1
        assert sim.messages_delivered == 1


class TestBatchedDelivery:
    def test_buffer_batches_cascades_into_one_call(self):
        batches = []
        buffer = CausalBuffer(deliver_batch=batches.append)
        e1 = RemoteEvent(EventId("a", 0), (), insert_op(0, "x"))
        e2 = RemoteEvent(EventId("a", 1), (EventId("a", 0),), insert_op(1, "y"))
        e3 = RemoteEvent(EventId("a", 2), (EventId("a", 1),), insert_op(2, "z"))
        assert buffer.receive_batch([e3]) == 0
        assert buffer.receive_batch([e2]) == 0
        # e1 unblocks the whole chain: one batch carries all three, in order.
        assert buffer.receive_batch([e1]) == 3
        assert len(batches) == 1
        assert [e.id.seq for e in batches[0]] == [0, 1, 2]
        assert buffer.stats.batches == 1

    def test_receive_batch_is_one_dispatch(self):
        batches = []
        buffer = CausalBuffer(deliver_batch=batches.append)
        events = [
            RemoteEvent(EventId("a", 0), (), insert_op(0, "x")),
            RemoteEvent(EventId("b", 0), (EventId("a", 0),), insert_op(1, "y")),
            RemoteEvent(EventId("c", 0), (EventId("b", 0),), insert_op(2, "z")),
        ]
        assert buffer.receive_batch(events) == 3
        assert len(batches) == 1 and buffer.stats.batches == 1

    def test_deliver_batch_is_a_required_keyword(self):
        with pytest.raises(TypeError):
            CausalBuffer()  # type: ignore[call-arg]
        with pytest.raises(TypeError):
            CausalBuffer(lambda batch: None)  # type: ignore[misc]

    def test_single_event_receives_dispatch_one_batch_each(self):
        batches = []
        buffer = CausalBuffer(deliver_batch=batches.append)
        e1 = RemoteEvent(EventId("a", 0), (), insert_op(0, "x"))
        e2 = RemoteEvent(EventId("a", 1), (EventId("a", 0),), insert_op(1, "y"))
        assert buffer.receive_batch([e1]) == 1
        assert buffer.receive_batch([e2]) == 1
        assert [[e.id for e in batch] for batch in batches] == [[e1.id], [e2.id]]
        assert buffer.stats.batches == 2

    def test_hub_fan_in_pays_one_integrate_per_tick(self):
        """Relay-hub amortisation: many leaves editing in the same latency
        window must cost the hub one merge per advance() tick, not one per
        event (the PR 3 leftover this batching exists for)."""
        leaves = [f"u{i}" for i in range(6)]
        sim = star("hub", leaves, latency=0.01)
        hub = sim.replicas["hub"]
        for round_no in range(5):
            for i, leaf in enumerate(leaves):
                replica = sim.replicas[leaf]
                replica.insert(len(replica.text), f"{leaf}r{round_no} ")
            sim.advance(0.05)  # every leaf's event reaches the hub this tick
        sim.run_until_quiescent()
        assert sim.converged()
        stats = hub.document.merge_stats
        # 30 events arrived at the hub; without batching that is >= 30 merges.
        assert stats.events_integrated >= 30
        assert stats.merges <= 10
        assert hub.inbound.stats.batches == hub.document.merge_stats.merges


class TestReconnectReplayDedup:
    """A reconnecting peer replays spans the receiver may already have; every
    fully-covered event must be a clean no-op (``receive_batch`` returns 0, nothing
    is re-dispatched, nothing leaks into the pending buffer)."""

    def run_event(self, agent, seq, parents, pos, content):
        return RemoteEvent(
            id=EventId(agent, seq), parents=tuple(parents), op=insert_op(pos, content)
        )

    def test_covered_receive_is_clean_noop(self):
        delivered = []
        buffer = CausalBuffer(deliver_batch=delivered.extend)
        event = self.run_event("a", 0, [], 0, "hello")
        assert buffer.receive_batch([event]) == 1
        assert buffer.receive_batch([event]) == 0
        assert len(delivered) == 1
        assert buffer.stats.duplicates == 1
        assert buffer.pending_count == 0

    def test_disconnect_replay_overlapping_batch(self):
        """Disconnect, miss some spans, then receive a replayed batch that
        overlaps what was already delivered: only the missed tail comes out."""
        delivered = []
        buffer = CausalBuffer(deliver_batch=delivered.extend)
        e1 = self.run_event("a", 0, [], 0, "abc")
        e2 = self.run_event("b", 0, [EventId("a", 2)], 3, "xy")
        # Seen before the disconnect.
        assert buffer.receive_batch([e1, e2]) == 2
        # Missed while offline, then replayed together with the old spans
        # (the sender resends everything after the client's last version).
        e3 = self.run_event("a", 3, [EventId("b", 1)], 5, "de")
        assert buffer.receive_batch([e1, e2, e3]) == 1
        assert [e.id for e in delivered] == [e1.id, e2.id, e3.id]
        assert buffer.stats.duplicates == 2
        assert buffer.pending_count == 0

    def test_reconnect_seeded_from_known_spans(self):
        """A fresh buffer (new connection) seeded with the replica's known
        spans treats the replayed overlap exactly like the old buffer did."""
        delivered = []
        buffer = CausalBuffer(deliver_batch=delivered.extend)
        # The replica already holds "abc" + "xy" from before the reconnect.
        buffer.mark_known_spans([(EventId("a", 0), 3), (EventId("b", 0), 2)])
        replay = [
            self.run_event("a", 0, [], 0, "abc"),
            self.run_event("b", 0, [EventId("a", 2)], 3, "xy"),
            self.run_event("a", 3, [EventId("b", 1)], 5, "de"),
        ]
        assert sum(buffer.receive_batch([e]) for e in replay) == 1
        assert [e.id for e in delivered] == [EventId("a", 3)]
        assert buffer.stats.duplicates == 2
        assert buffer.pending_count == 0

    def test_recarved_overlap_is_still_duplicate(self):
        """The replayed batch may carve the same characters into different
        runs (sender-side coalescing after the reconnect): coverage is by
        character span, so every re-carving of known spans is a no-op."""
        delivered = []
        buffer = CausalBuffer(deliver_batch=delivered.extend)
        buffer.receive_batch([self.run_event("a", 0, [], 0, "ab")])
        buffer.receive_batch([self.run_event("a", 2, [EventId("a", 1)], 2, "cd")])
        # Replayed as one coalesced run: fully covered by the two finer runs.
        assert buffer.receive_batch([self.run_event("a", 0, [], 0, "abcd")]) == 0
        # Replayed as a mid-run suffix: also fully covered.
        assert buffer.receive_batch([self.run_event("a", 1, [EventId("a", 0)], 1, "bcd")]) == 0
        assert buffer.stats.duplicates == 2
        assert len(delivered) == 2
        assert buffer.pending_count == 0

    def test_recarved_overlap_with_new_tail_passes_once(self):
        delivered = []
        buffer = CausalBuffer(deliver_batch=delivered.extend)
        buffer.receive_batch([self.run_event("a", 0, [], 0, "abcd")])
        # Replay extends the run: only the tail is new, delivered exactly once.
        extended = self.run_event("a", 0, [], 0, "abcdef")
        assert buffer.receive_batch([extended]) == 1
        assert buffer.receive_batch([extended]) == 0
        assert len(delivered) == 2
        assert buffer.stats.duplicates == 1

    def test_mark_known_flushes_waiting_events(self):
        """Marking single-character ids known must flush events that were
        only waiting on them — otherwise a session seeded after the events
        arrived parks them forever."""
        delivered = []
        buffer = CausalBuffer(deliver_batch=delivered.extend)
        held = self.run_event("b", 0, [EventId("a", 1)], 2, "z")
        assert buffer.receive_batch([held]) == 0
        assert buffer.pending_count == 1
        assert buffer.mark_known_spans([(EventId("a", 0), 1), (EventId("a", 1), 1)]) == 1
        assert [e.id for e in delivered] == [held.id]
        assert buffer.pending_count == 0

    def test_duplicate_of_pending_event_stays_single(self):
        """A replayed copy of an event that is still buffered (parent missing
        at both arrivals) is delivered exactly once when the parent lands."""
        delivered = []
        buffer = CausalBuffer(deliver_batch=delivered.extend)
        parent = self.run_event("p", 0, [], 0, "!")
        child = self.run_event("a", 0, [parent.id], 1, "qq")
        assert buffer.receive_batch([child]) == 0
        assert buffer.receive_batch([child]) == 0  # replayed while still pending
        assert buffer.pending_count == 1
        assert buffer.receive_batch([parent]) == 2
        assert [e.id for e in delivered] == [parent.id, child.id]
        assert buffer.stats.duplicates == 1
        assert buffer.pending_count == 0


class TestReplica:
    """The rule every replica rests on: its inbound buffer knows exactly what
    its graph covers — seeded from the graph, and each local edit's exported
    suffix marked known before it leaves."""

    @staticmethod
    def _peer_delivery(rng, peer):
        """A peer's history as the network might hand it over: some of it
        (what is missing parks the rest), re-carved, shuffled, with
        duplicates."""
        keep = rng.random()
        events = graph_to_remote_events(peer.document.oplog.graph)
        events = [e for e in events if rng.random() < keep]
        events = recarve_events(
            events,
            splits=lambda e: [k for k in range(1, e.op.length) if rng.random() < 0.3],
            merge_adjacent=rng.random() < 0.5,
        )
        events += rng.sample(events, min(len(events), rng.randint(0, 3)))
        rng.shuffle(events)
        return events

    @staticmethod
    def _edit(rng, replica):
        length = len(replica.text)
        if length > 6 and rng.random() < 0.3:
            return replica.local_delete(rng.randrange(length - 3), rng.randint(1, 3))
        word = rng.choice(["ab", "cde", "f", "ghij"])
        return replica.local_insert(rng.randint(0, length), word)

    @pytest.mark.parametrize("seed", range(12))
    def test_buffer_knows_exactly_what_the_graph_covers(self, seed):
        rng = random.Random(seed)
        replica = Replica(Document("r"))
        peers = [Replica(Document(f"p{i}")) for i in range(3)]
        probes = 0
        for _ in range(40):
            roll = rng.random()
            if roll < 0.3:
                self._edit(rng, replica)
            elif roll < 0.5:
                self._edit(rng, rng.choice(peers))
            elif roll < 0.8:
                replica.receive(self._peer_delivery(rng, rng.choice(peers)))
            elif roll < 0.92:
                rng.choice(peers).receive(
                    graph_to_remote_events(replica.document.oplog.graph)
                )
            else:
                # Restart from a stored file: a replica over a loaded document.
                document = replica.document
                data = encode_event_graph_v3(
                    document.oplog.graph,
                    ContainerOptions(include_snapshot=True, final_text=document.text),
                )
                replica = Replica(Document.from_bytes(data, "r"))

            graph = replica.document.oplog.graph
            assert replica.receive(graph_to_remote_events(graph)) == 0
            newest = graph.next_seq_for("r") - 1
            if newest >= 0:
                parked = replica.pending_count
                parents = (EventId("r", newest),)
                if probes:
                    parents += (EventId("probe", probes - 1),)
                probe = RemoteEvent(EventId("probe", probes), parents, insert_op(0, "?"))
                probes += 1
                assert replica.receive([probe]) == 1
                assert replica.pending_count == parked

        for peer in peers:
            replica.receive(graph_to_remote_events(peer.document.oplog.graph))
        assert replica.pending_count == 0
        full = graph_to_remote_events(replica.document.oplog.graph)
        for peer in peers:
            peer.receive(full)
            assert peer.pending_count == 0
            assert peer.text == replica.text
        oracle = per_char_text(replica.document.oplog.graph)
        assert replica.text == oracle

    def test_local_edits_return_the_suffix_to_send(self):
        replica = Replica(Document("r"))
        first = replica.local_insert(0, "abc")
        second = replica.local_insert(3, "de")
        # Run coalescing extended the first event; only the new suffix ships.
        assert [(e.id, e.op.length) for e in first] == [(EventId("r", 0), 3)]
        assert [(e.id, e.op.length) for e in second] == [(EventId("r", 3), 2)]
        assert replica.own_history() == graph_to_remote_events(replica.document.oplog.graph)
        deleted = replica.local_delete(0, 2)
        assert [(e.id, e.op.length) for e in deleted] == [(EventId("r", 5), 2)]
        assert replica.text == "cde"
        assert replica.agent == "r"

    def test_subclasses_extend_deliver(self):
        batches = []

        class Logged(Replica):
            def deliver(self, events):
                super().deliver(events)
                batches.append(len(events))

        author = Replica(Document("a"))
        events = author.local_insert(0, "x") + author.local_insert(0, "y")
        logged = Logged(Document("b"))
        assert logged.receive(list(reversed(events))) == 2
        assert batches == [2] and logged.text == author.text
