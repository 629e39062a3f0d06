"""End-to-end tests for the collaboration server, over real sockets.

Each test spins up a :class:`~repro.server.CollabServer` on an ephemeral
loopback port inside ``asyncio.run`` and drives it with the loadgen clients.
The load gates are here too: convergence with nothing left parked at every
fan-out of a live sweep, an A1 trace-suite session replayed by 8+ WebSocket
clients against the per-character oracle, and the same live load with the
WAL off, group-committed and fsynced per delta.  They assert outcomes and
counters, never a timing.  (The room summary's gauges and the idle-session
reaper are also checked in process, on the room itself.)
"""

import asyncio
import json
import random
import time

import pytest

from repro.core.causal_graph import CausalGraph
from repro.core.document import Document
from repro.core.ids import EventId, insert_op
from repro.core.oplog import RemoteEvent
from repro.network import Replica
from repro.server import (
    CollabServer,
    DocumentRoom,
    DurabilityOptions,
    run_loadgen,
    run_trace_replay,
)
from repro.server.loadgen import CollabClient, PollClient, http_request
from repro.server.protocol import MAX_FRAME_BYTES, decode_frame, delta_frame, encode_frame
from repro.server.wire import OP_TEXT
from repro.traces.datasets import get_trace


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60.0))


async def wait_until(predicate, timeout=8.0, interval=0.01):
    """Poll ``predicate`` until it holds (returning True) or time runs out."""
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return predicate()


#: Edits each client makes in the fan-out and durability gates.
EDITS_PER_CLIENT = 30


def assert_nothing_parked(result):
    assert all(count == 0 for count in result.leaks.values()), result.leaks


def assert_no_leaks(server, doc, *clients):
    room = server.room(doc)
    leaks = dict(room.buffer_pending())
    for client in clients:
        leaks[f"client:{client.agent}"] = client.pending_count
    assert all(count == 0 for count in leaks.values()), leaks


class TestWebSocketSessions:
    def test_two_clients_converge(self):
        async def scenario():
            async with CollabServer() as server:
                a = CollabClient(server.host, server.port, "d", "alice")
                b = CollabClient(server.host, server.port, "d", "bob")
                await a.connect()
                await b.connect()
                await a.insert(0, "hello ")
                assert await wait_until(lambda: b.text == "hello ")
                await b.insert(6, "world")
                assert await wait_until(
                    lambda: a.text == b.text == "hello world"
                )
                assert server.room("d").document.text == "hello world"
                assert_no_leaks(server, "d", a, b)
                await a.close()
                await b.close()

        run(scenario())

    def test_late_joiner_gets_catchup_delta(self):
        async def scenario():
            async with CollabServer() as server:
                a = CollabClient(server.host, server.port, "d", "alice")
                await a.connect()
                await a.insert(0, "already here")
                b = CollabClient(server.host, server.port, "d", "bob")
                await b.connect()
                assert await wait_until(lambda: b.text == "already here")
                assert_no_leaks(server, "d", a, b)
                await a.close()
                await b.close()

        run(scenario())

    def test_reconnect_replay_is_deduplicated(self):
        """Disconnect, edit elsewhere, reconnect with the old document and
        replay everything already uploaded: the server must ship only the
        missed suffix and drop the replayed overlap without re-applying it."""

        async def scenario():
            async with CollabServer() as server:
                a = CollabClient(server.host, server.port, "d", "alice")
                b = CollabClient(server.host, server.port, "d", "bob")
                await a.connect()
                await b.connect()
                await a.insert(0, "shared ")
                assert await wait_until(lambda: b.text == "shared ")
                await b.insert(7, "tail")
                assert await wait_until(lambda: a.text == "shared tail")
                # b's connection drops without a bye.
                await b.close(send_bye=False)
                # Meanwhile alice keeps typing.
                await a.insert(0, "new ")
                assert await wait_until(
                    lambda: server.room("d").document.text == "new shared tail"
                )
                room = server.room("d")
                dropped_before = room.stats.duplicates_dropped
                # b reconnects with its old replica and (paranoid client)
                # replays its complete local history, overlapping everything
                # the server already holds.
                b2 = CollabClient(
                    server.host, server.port, "d", "bob", document=b.document
                )
                await b2.connect()
                replay = b2.document.oplog.export_since_seq("bob", 0)
                assert replay
                await b2.send_events(replay)
                assert await wait_until(lambda: b2.text == "new shared tail")
                assert await wait_until(
                    lambda: room.stats.duplicates_dropped > dropped_before
                )
                # The replay changed nothing: server and both clients agree.
                assert room.document.text == "new shared tail"
                assert a.text == "new shared tail"
                assert_no_leaks(server, "d", a, b2)
                await a.close()
                await b2.close()

        run(scenario())

    def test_malformed_frames_get_errors_not_disconnects(self):
        async def scenario():
            async with CollabServer() as server:
                a = CollabClient(server.host, server.port, "d", "alice")
                b = CollabClient(server.host, server.port, "d", "bob")
                await a.connect()
                await b.connect()
                await a.send_raw("{this is not json")
                assert await wait_until(lambda: len(a.errors) == 1)
                assert a.errors[0]["code"] == "bad-json"
                await a.send_raw(json.dumps({"type": "teleport"}))
                assert await wait_until(lambda: len(a.errors) == 2)
                assert a.errors[1]["code"] == "unknown-type"
                # A client-sent server-only frame is rejected the same way.
                await a.send_raw(json.dumps({"type": "ack", "accepted": 1}))
                assert await wait_until(lambda: len(a.errors) == 3)
                assert a.errors[2]["code"] == "unexpected-type"
                # The connection survived all three: edits still flow.
                await a.insert(0, "still alive")
                assert await wait_until(lambda: b.text == "still alive")
                await a.close()
                await b.close()

        run(scenario())

    def test_an_event_past_the_64_bit_columns_is_refused_and_the_room_goes_on(self):
        """A delete of length 2**64 names a real parent, so it would reach
        the event graph — and overflow a column halfway through an append.
        It gets an error frame instead, and the honest author's next edits
        still reach everyone."""

        async def scenario():
            async with CollabServer() as server:
                a = CollabClient(server.host, server.port, "d", "alice")
                b = CollabClient(server.host, server.port, "d", "bob")
                await a.connect()
                await b.connect()
                await a.insert(0, "abc")
                assert await wait_until(lambda: b.text == "abc")
                await b.send_raw(
                    json.dumps(
                        {"type": "delta", "events": [["bob", 0, [["alice", 2]], 0, 1 << 64]]}
                    )
                )
                assert await wait_until(lambda: len(b.errors) == 1)
                assert b.errors[0]["code"] == "bad-op"
                await a.insert(3, "d")
                await a.delete(0)
                await b.insert(0, "x")
                room = server.room("d")
                assert await wait_until(
                    lambda: a.text == b.text == room.document.text == "xbcd"
                )
                assert len(room.document.oplog.graph) == 4
                assert_no_leaks(server, "d", a, b)
                await a.close()
                await b.close()

        run(scenario())

    def test_presence_reaches_websocket_peers_only(self):
        async def scenario():
            async with CollabServer() as server:
                a = CollabClient(server.host, server.port, "d", "alice")
                b = CollabClient(server.host, server.port, "d", "bob")
                c = PollClient(server.host, server.port, "d", "carol", poll_wait=0.05)
                await a.connect()
                await b.connect()
                await c.connect()
                await a.insert(0, "x")
                await a.send_presence()
                assert await wait_until(lambda: "alice" in b.presence_seen)
                assert b.presence_seen["alice"]  # pinned to an id frontier
                # The sender does not hear its own cursor back; the polling
                # fallback gets no presence at all.
                assert a.presence_received == 0
                await asyncio.sleep(0.2)
                assert c.presence_received == 0
                # A late WS joiner receives the existing cursors on connect.
                d = CollabClient(server.host, server.port, "d", "dave")
                await d.connect()
                assert await wait_until(lambda: "alice" in d.presence_seen)
                for client in (a, b, c, d):
                    await client.close()

        run(scenario())


class TestLongPollFallback:
    def test_poll_and_ws_clients_converge(self):
        async def scenario():
            async with CollabServer() as server:
                ws = CollabClient(server.host, server.port, "d", "alice")
                poll = PollClient(server.host, server.port, "d", "bob", poll_wait=0.05)
                await ws.connect()
                await poll.connect()
                await ws.insert(0, "from ws ")
                assert await wait_until(lambda: poll.text == "from ws ")
                await poll.insert(8, "and poll")
                assert await wait_until(
                    lambda: ws.text == poll.text == "from ws and poll"
                )
                assert_no_leaks(server, "d", ws, poll)
                await ws.close()
                await poll.close()

        run(scenario())

    def test_lone_surrogate_is_refused_on_both_transports(self):
        """A lone surrogate is valid JSON but not UTF-8: were it accepted,
        every poll response carrying it would fail to encode and the poll
        client would lose those frames.  Both transports refuse it, and the
        poll client still receives every frame."""
        lone = delta_frame([RemoteEvent(EventId("mallory", 0), (), insert_op(0, "\ud800"))])

        async def scenario():
            async with CollabServer() as server:
                host, port = server.host, server.port
                ws = CollabClient(host, port, "d", "alice")
                poll = PollClient(host, port, "d", "bob", poll_wait=0.05)
                await ws.connect()
                await poll.connect()
                await ws.send_raw(json.dumps(lone))
                assert await wait_until(lambda: len(ws.errors) == 1)
                assert ws.errors[0]["code"] == "bad-frame"
                status, body = await http_request(
                    host, port, "POST", f"/v1/send?session={poll.session_id}", {"frames": [lone]}
                )
                assert status == 400 and body["code"] == "bad-frame"
                hello = {"type": "hello", "doc": "d", "agent": "\udfff", "version": [], "protocol": 2}
                status, body = await http_request(host, port, "POST", "/v1/connect", hello)
                assert status == 400 and body["code"] == "bad-frame"
                await ws.insert(0, "ws ")
                assert await wait_until(lambda: poll.text == "ws ")
                await poll.insert(3, "poll")
                assert await wait_until(lambda: ws.text == poll.text == "ws poll")
                late = PollClient(host, port, "d", "carol", poll_wait=0.05)
                await late.connect()
                assert await wait_until(lambda: late.text == "ws poll")
                assert_no_leaks(server, "d", ws, poll, late)
                for client in (ws, poll, late):
                    await client.close()

        run(scenario())

    def test_invalid_utf8_is_refused_alike_on_both_transports(self):
        """A byte that is not UTF-8 is ``bad-json`` over WebSocket as over
        ``/v1/send``: refused where it enters, never replaced by U+FFFD, and
        the WebSocket connection goes on editing."""
        delta = delta_frame([RemoteEvent(EventId("mallory", 0), (), insert_op(0, "X"))])

        def invalid(frame):
            return encode_frame(frame).encode().replace(b"X", b"\xff")

        async def scenario():
            async with CollabServer() as server:
                host, port = server.host, server.port
                ws = CollabClient(host, port, "d", "alice")
                poll = PollClient(host, port, "d", "bob", poll_wait=0.05)
                await ws.connect()
                await poll.connect()
                await ws.insert(0, "ab")
                assert await wait_until(lambda: poll.text == "ab")
                await ws.ws._send(OP_TEXT, invalid(delta))
                assert await wait_until(lambda: len(ws.errors) == 1)
                assert ws.errors[0]["code"] == "bad-json"
                status, body = await http_request(
                    host, port, "POST", f"/v1/send?session={poll.session_id}",
                    invalid({"frames": [delta]}),
                )
                assert status == 400 and body["code"] == "bad-json"
                assert server.room("d").text == "ab"
                await ws.insert(2, "c")
                assert await wait_until(lambda: poll.text == server.room("d").text == "abc")
                assert ws.text == "abc" and len(ws.errors) == 1
                assert_no_leaks(server, "d", ws, poll)
                await ws.close()
                await poll.close()

        run(scenario())

    def test_a_large_cjk_delta_crosses_both_transports(self):
        """300 000 CJK characters are one 900 043-byte delta frame of UTF-8,
        under the ceiling on either transport; ASCII-escaped they would be
        1 800 050 bytes, over it."""
        cjk = "中" * 300_000
        frame = delta_frame([RemoteEvent(EventId("a", 0), (), insert_op(0, cjk))])
        assert len(encode_frame(frame).encode()) == 900_043 < MAX_FRAME_BYTES
        assert len(json.dumps(frame)) == 1_800_050

        async def scenario():
            async with CollabServer() as server:
                ws = CollabClient(server.host, server.port, "d", "a")
                poll = PollClient(server.host, server.port, "d", "b", poll_wait=0.05)
                await ws.connect()
                await poll.connect()
                await ws.insert(0, cjk)
                assert await wait_until(lambda: poll.text == cjk)
                await poll.insert(300_000, cjk)
                assert await wait_until(lambda: ws.text == poll.text == cjk * 2)
                assert ws.errors == poll.errors == []
                assert server.room("d").text == cjk * 2
                assert_no_leaks(server, "d", ws, poll)
                await ws.close()
                await poll.close()

        run(scenario())

    def test_a_body_over_the_frame_ceiling_is_refused_on_both_transports(self):
        huge = delta_frame([RemoteEvent(EventId("m", 0), (), insert_op(0, "中" * 350_000))])
        assert len(encode_frame(huge).encode()) > MAX_FRAME_BYTES

        async def scenario():
            async with CollabServer() as server:
                host, port = server.host, server.port
                ws = CollabClient(host, port, "d", "alice")
                poll = PollClient(host, port, "d", "bob", poll_wait=0.05)
                await ws.connect()
                await poll.connect()
                await ws.send_raw(encode_frame(huge))
                assert await wait_until(lambda: len(ws.errors) == 1)
                assert ws.errors[0]["code"] == "frame-too-large"
                status, body = await http_request(
                    host, port, "POST", f"/v1/send?session={poll.session_id}", {"frames": [huge]}
                )
                assert status == 400 and body["code"] == "frame-too-large"
                assert server.room("d").text == ""
                # Both sessions survive the refusal.
                await ws.insert(0, "ws ")
                await poll.insert(0, "poll ")
                assert await wait_until(lambda: ws.text == poll.text == server.room("d").text)
                assert len(ws.text) == 8
                await ws.close()
                await poll.close()

        run(scenario())

    def test_http_endpoints(self):
        async def scenario():
            async with CollabServer() as server:
                host, port = server.host, server.port
                status, body = await http_request(host, port, "GET", "/healthz")
                assert status == 200 and body["ok"] is True
                status, body = await http_request(host, port, "GET", "/nope")
                assert status == 404 and body["code"] == "not-found"
                # A session opened over HTTP answers sends with acks.
                client = PollClient(host, port, "d", "eve", poll_wait=0.05)
                await client.connect()
                await client.insert(0, "hi")
                status, body = await http_request(
                    host, port, "GET", "/v1/text?doc=d"
                )
                assert status == 200 and body["text"] == "hi"
                status, body = await http_request(
                    host, port, "GET", "/v1/stats?doc=d"
                )
                assert status == 200 and body["doc"] == "d"
                assert body["resident_walker_records"] == 0  # sequential
                await client.close()

        run(scenario())


class TestRoomSummary:
    def test_resident_walker_records_gauge(self):
        room = DocumentRoom("gauge")
        alice = room.connect("alice", "ws", ())
        bob = room.connect("bob", "ws", ())
        room.receive_delta(alice, [RemoteEvent(EventId("alice", 0), (), insert_op(0, "ab"))])
        room.receive_delta(
            alice, [RemoteEvent(EventId("alice", 2), (EventId("alice", 1),), insert_op(2, "c"))]
        )
        assert room.summary()["resident_walker_records"] == 0  # sequential: fast path
        # Concurrent with alice's second run: the merge keeps walker state.
        room.receive_delta(
            bob, [RemoteEvent(EventId("bob", 0), (EventId("alice", 1),), insert_op(0, "X"))]
        )
        assert room.text == "Xabc"
        assert room.summary()["resident_walker_records"] > 0


def received_events(session):
    """Drain ``session``; the events of its queued ``delta`` frames, as the
    client decodes them."""
    return [
        event
        for frame in session.drain()
        if frame["type"] == "delta"
        for event in decode_frame(encode_frame(frame))["events"]
    ]


def chars(events):
    """Every character id the events carry, in order (repeats kept)."""
    return [(e.id.agent, e.id.seq + k) for e in events for k in range(e.op.length)]


def assert_filters_add_up(room):
    for session in room.sessions.values():
        stats = session.outbound.stats
        assert stats.received == stats.delivered + stats.duplicates + stats.superseded
        assert stats.buffered_high_water == 0  # a session never parks


def typed_room(seed, edits=30, names=("alice", "bob")):
    """A room the clients typed into concurrently: each edit is uploaded at
    once, but a client reads its queue only now and then."""
    rng = random.Random(seed)
    room = DocumentRoom("fan-out")
    clients = {name: Replica(Document(name)) for name in names}
    sessions = {name: room.connect(name, "ws", ()) for name in names}
    for session in sessions.values():
        session.drain()
    uploads = {name: [] for name in names}
    for _ in range(edits):
        name = rng.choice(names)
        client = clients[name]
        if client.text and rng.random() < 0.3:
            events = client.local_delete(rng.randrange(len(client.text)))
        else:
            events = client.local_insert(rng.randint(0, len(client.text)), rng.choice("xyz"))
        room.receive_delta(sessions[name], events)
        uploads[name] += events
        for other in names:
            if rng.random() < 0.4:
                clients[other].receive(received_events(sessions[other]))
    return room, clients, sessions, uploads


class TestFanOut:
    """In process: the room hands each causally ordered batch to every
    session as it stands, and a session drops, per event, only the spans its
    own client uploaded."""

    @pytest.mark.parametrize("seed", range(3))
    def test_uploader_never_receives_its_own_spans(self, seed):
        room, clients, sessions, uploads = typed_room(seed, names=("alice", "bob", "carol"))
        for name, client in clients.items():
            client.receive(received_events(sessions[name]))
            assert client.pending_count == 0
            assert client.text == room.text
            # Each upload was offered back once, and dropped as an echo.
            stats = sessions[name].outbound.stats
            assert stats.duplicates == len(uploads[name]) > 0
            assert stats.delivered == sum(len(u) for u in uploads.values()) - len(uploads[name])
        assert_filters_add_up(room)

    def test_an_upload_that_unblocks_another_is_filtered_per_event(self):
        """Session ``a`` uploads a child whose parent the room lacks; session
        ``b`` then uploads the parent, and one batch delivers both.  ``b``
        still gets ``a``'s child, and ``a`` gets only ``b``'s parent."""
        room = DocumentRoom("cascade")
        a, b, c = (room.connect(name, "ws", ()) for name in ("a", "b", "c"))
        for session in (a, b, c):
            session.drain()
        parent = RemoteEvent(EventId("b", 0), (), insert_op(0, "x"))
        child = RemoteEvent(EventId("a", 0), (parent.id,), insert_op(1, "y"))
        room.receive_delta(a, [child])
        assert room.pending_count == 1
        assert [received_events(s) for s in (a, b, c)] == [[], [], []]
        room.receive_delta(b, [parent])
        assert received_events(a) == [parent]
        assert received_events(b) == [child]
        assert received_events(c) == [parent, child]
        assert room.text == "xy"
        assert_filters_add_up(room)

    def test_a_session_gets_the_events_since_its_version_once(self):
        room, clients, sessions, _ = typed_room(11)
        carol = Replica(Document("carol"))
        carol.receive(room.document.events_since(())[:12])
        version = carol.document.version().ids
        expected = room.document.events_since(version)
        late = room.connect("carol", "ws", version)
        frames = late.drain()
        assert [f["type"] for f in frames] == ["welcome", "delta"]
        assert frames[1] == delta_frame(expected)
        catchup = decode_frame(encode_frame(frames[1]))["events"]
        # Live traffic after the connect carries each new event once.
        alice = clients["alice"]
        alice.receive(received_events(sessions["alice"]))
        typed, live = [], []
        for k in range(5):
            events = alice.local_insert(k, "L")
            room.receive_delta(sessions["alice"], events)
            typed += events
            live += received_events(late)
        assert live == typed
        before = set(chars(carol.document.events_since(())))
        got = chars(catchup + live)
        assert len(got) == len(set(got))
        assert set(got) == set(chars(room.document.events_since(()))) - before
        carol.receive(catchup + live)
        assert carol.pending_count == 0 and carol.text == room.text
        assert_filters_add_up(room)

    def test_replaying_the_whole_own_history_on_reconnect_gets_nothing_back(self):
        room, clients, sessions, _ = typed_room(4)
        alice, bob = clients["alice"], clients["bob"]
        for name in ("alice", "bob"):
            clients[name].receive(received_events(sessions[name]))
        room.disconnect(sessions["alice"])
        missed = []
        for k in range(3):  # bob types on while alice is away
            events = bob.local_insert(k, "b")
            room.receive_delta(sessions["bob"], events)
            missed += events
        again = room.connect("alice", "ws", alice.document.version().ids)
        catchup = received_events(again)
        assert chars(catchup) == chars(missed)
        alice.receive(catchup)
        dropped = room.stats.duplicates_dropped
        room.receive_delta(again, alice.own_history())
        assert room.stats.duplicates_dropped > dropped
        assert again.drain() == [] and sessions["bob"].drain() == []
        assert alice.text == bob.text == room.text
        assert_filters_add_up(room)

    def test_a_hello_naming_ids_the_room_lost_gets_only_what_it_lacks(self):
        """The room lost alice's last characters in a crash, so her hello
        names ids it does not know.  Her catch-up is bob's edit alone, not
        her own history again, and her replay restores what was lost."""
        alice = Replica(Document("alice"))
        typed = [event for k in range(10) for event in alice.local_insert(k, "a")]
        survivor = Document("server::lost")
        survivor.apply_remote_events(typed[:6])
        room = DocumentRoom("lost", document=survivor)
        bob = Replica(Document("bob"))
        bob_session = room.connect("bob", "ws", ())
        bob.receive(received_events(bob_session))
        edit = bob.local_insert(6, "b")
        room.receive_delta(bob_session, edit)
        again = room.connect("alice", "ws", alice.document.version().ids)
        catchup = received_events(again)
        assert chars(catchup) == chars(edit)
        alice.receive(catchup)
        room.receive_delta(again, alice.own_history())
        bob.receive(received_events(bob_session))
        assert alice.pending_count == bob.pending_count == 0
        assert alice.text == bob.text == room.text
        assert sorted(room.text) == ["a"] * 10 + ["b"]
        assert_filters_add_up(room)

    def test_connect_runs_no_ancestor_closure(self, monkeypatch):
        room, *_ = typed_room(7)
        carol = Replica(Document("carol"))
        carol.receive(room.document.events_since(())[:10])
        closures = []
        original = CausalGraph.ancestors

        def spy(self, frontier):
            closures.append(frontier)
            return original(self, frontier)

        monkeypatch.setattr(CausalGraph, "ancestors", spy)
        late = room.connect("carol", "ws", carol.document.version().ids)
        assert received_events(late)
        assert closures == []


class TestLoadgen:
    def test_live_session_mixed_transports(self):
        async def scenario():
            async with CollabServer() as server:
                result = await run_loadgen(
                    server.host,
                    server.port,
                    clients=3,
                    edits_per_client=8,
                    edit_interval=0.0,
                    transport="mixed",
                )
                assert result.converged, result
                assert_nothing_parked(result)
                assert result.edits == 24

        run(scenario())

    @pytest.mark.parametrize("clients", [2, 4, 8])
    def test_live_sessions_converge_at_every_fanout(self, clients):
        """Every client and the server replica converge byte-identically,
        and no causal buffer (the room's inbound, any client's) still parks
        an event after quiesce."""

        async def scenario():
            async with CollabServer() as server:
                return await run_loadgen(
                    server.host,
                    server.port,
                    doc=f"live-{clients}",
                    clients=clients,
                    edits_per_client=EDITS_PER_CLIENT,
                    edit_interval=0.002,
                    transport="ws",
                )

        result = run(scenario())
        assert result.converged, result
        assert result.clients == clients
        assert result.edits == clients * EDITS_PER_CLIENT
        assert_nothing_parked(result)

    def test_trace_replay_matches_per_character_oracle(self):
        trace = get_trace("C2", 0.04)

        async def scenario():
            async with CollabServer() as server:
                result = await run_trace_replay(server.host, server.port, trace)
                assert result.converged, result
                assert_nothing_parked(result)

        run(scenario())

    def test_trace_replay_with_eight_plus_ws_clients(self):
        """The A1 trace-suite session (8 authors at this scale), one
        WebSocket client per author, converges on the per-character oracle."""
        trace = get_trace("A1", 0.1)

        async def scenario():
            async with CollabServer() as server:
                return await run_trace_replay(server.host, server.port, trace)

        result = run(scenario())
        assert result.clients >= 8, result
        assert result.converged, result
        assert_nothing_parked(result)


class TestDurabilityModes:
    """The same live load with the WAL off, with fsync batched by the
    group-commit loop, and with an fsync per ingested delta."""

    MODES = ("off", "group", "always")

    @pytest.fixture(scope="class")
    def outcomes(self, tmp_path_factory):
        """Mode -> (loadgen result, the room's WAL stats or ``None``)."""

        async def drive(mode):
            options = {}
            if mode != "off":
                options = dict(
                    data_dir=str(tmp_path_factory.mktemp(mode)),
                    durability=DurabilityOptions(fsync_policy=mode, group_interval=0.01),
                )
            async with CollabServer(**options) as server:
                result = await run_loadgen(
                    server.host,
                    server.port,
                    doc="ablation",
                    clients=4,
                    edits_per_client=EDITS_PER_CLIENT,
                    edit_interval=0.002,
                    transport="ws",
                )
                storage = server.room("ablation").storage
                return result, None if storage is None else storage.stats.as_dict()

        return {mode: run(drive(mode)) for mode in self.MODES}

    def test_every_mode_converges(self, outcomes):
        """Durability never costs correctness."""
        for mode, (result, _) in outcomes.items():
            assert result.converged, (mode, result)
            assert_nothing_parked(result)

    def test_wal_accounting(self, outcomes):
        """Both durable modes persisted every ingested delta, and
        fsync-per-delta paid at least one fsync per record, and at least as
        many as the group-commit loop."""
        assert outcomes["off"][1] is None
        group, always = outcomes["group"][1], outcomes["always"][1]
        for wal in (group, always):
            assert wal["records_appended"] > 0, wal
            assert wal["events_appended"] > 0, wal
            assert wal["torn_writes"] == 0, wal
        assert always["fsyncs"] >= always["records_appended"], always
        assert always["fsyncs"] >= group["fsyncs"], (always, group)


class TestLifecycleRaces:
    """Regressions for the read→await→write interleavings the
    ``await-state-race`` lint rule flagged in the server lifecycle."""

    def test_restart_during_suspended_stop_is_not_clobbered(self):
        # stop() used to null self._server only after wait_closed() resumed,
        # clobbering (and leaking) a server started concurrently during the
        # suspension.  The fix detaches the reference before the first await.
        async def scenario():
            server = CollabServer()
            await server.start()
            stop_task = asyncio.create_task(server.stop())
            await asyncio.sleep(0)  # let stop() detach and suspend in close
            await server.start()  # restart while the old stop is in flight
            await stop_task
            # The restarted listener survived the resumed stop() and serves.
            status, payload = await http_request(
                server.host, server.port, "GET", "/v1/stats"
            )
            assert status == 200 and isinstance(payload, dict)
            await server.stop()

        run(scenario())

    def test_concurrent_stops_are_idempotent(self):
        async def scenario():
            server = CollabServer()
            await server.start()
            await asyncio.gather(server.stop(), server.stop(), server.stop())
            with pytest.raises(OSError):
                await http_request(server.host, server.port, "GET", "/v1/stats")

        run(scenario())

    def test_restart_during_suspended_crash_is_not_clobbered(self):
        # crash() shares stop()'s first step, so it too detaches the
        # listener before suspending.
        async def scenario():
            server = CollabServer()
            await server.start()
            crash_task = asyncio.create_task(server.crash())
            await asyncio.sleep(0)
            await server.start()
            await crash_task
            status, payload = await http_request(
                server.host, server.port, "GET", "/v1/stats"
            )
            assert status == 200 and isinstance(payload, dict)
            await server.stop()

        run(scenario())

    def test_concurrent_crashes_are_idempotent(self):
        async def scenario():
            server = CollabServer()
            await server.start()
            await asyncio.gather(server.crash(), server.crash(), server.crash())
            with pytest.raises(OSError):
                await http_request(server.host, server.port, "GET", "/v1/stats")

        run(scenario())

    @pytest.mark.parametrize("teardown", ["stop", "crash"])
    def test_teardown_cancels_background_tasks(self, teardown, tmp_path):
        async def scenario():
            server = CollabServer(
                data_dir=str(tmp_path),
                durability=DurabilityOptions(fsync_policy="group", group_interval=0.02),
            )
            await server.start()
            background = [server._reaper_task, server._commit_task]
            assert all(task is not None and not task.done() for task in background)
            await getattr(server, teardown)()
            assert all(task.cancelled() for task in background)
            assert server._reaper_task is None and server._commit_task is None
            with pytest.raises(OSError):
                await http_request(server.host, server.port, "GET", "/v1/stats")
            # Nothing the teardown left behind stands in the way of a restart.
            await server.start()
            status, _ = await http_request(server.host, server.port, "GET", "/v1/stats")
            assert status == 200
            await server.stop()

        run(scenario())

    def test_double_start_raises_and_keeps_the_first_listener(self):
        async def scenario():
            server = CollabServer()
            await server.start()
            port = server.port
            with pytest.raises(RuntimeError):
                await server.start()
            assert server.port == port
            status, _ = await http_request(server.host, port, "GET", "/v1/stats")
            assert status == 200
            await server.stop()

        run(scenario())


class TestBackgroundMaintenance:
    def test_periodic_reaper_reclaims_abandoned_poll_sessions(self):
        """A long-poll client that vanishes without a bye must be reclaimed
        by the periodic reaper — session object, room entry, and the
        server-level routing entry all gone."""

        async def scenario():
            server = CollabServer(reap_interval=0.05, poll_session_timeout=0.1)
            async with server:
                poll = PollClient(server.host, server.port, "d", "ghost")
                await poll.connect()
                await poll.insert(0, "left behind")
                room = server.room("d")
                assert len(room.sessions) == 1
                # Vanish: kill the poll loop, never send a bye.
                poll._closing = True
                poll._receive_task.cancel()
                try:
                    await poll._receive_task
                except asyncio.CancelledError:
                    pass
                assert await wait_until(
                    lambda: room.sessions == {} and server._sessions == {}
                )
                assert room.stats.sessions_reaped >= 1
                # The room itself survives with the ghost's edit intact.
                assert room.document.text == "left behind"

        run(scenario())

    def test_joining_a_room_reaps_with_the_server_timeout(self):
        """A join sweeps idle poll sessions too, and it must use the
        server's ``poll_session_timeout`` as the periodic reaper does."""
        server = CollabServer(poll_session_timeout=300)
        room = server.room("d")
        idle = room.connect("a", "poll", ())
        idle.last_seen = time.monotonic() - 120
        server._reap_once()
        assert not idle.closed
        room.connect("b", "ws", ())
        assert not idle.closed and idle.id in room.sessions
        # Past the server's timeout, the join does reap it.
        idle.last_seen = time.monotonic() - 400
        room.connect("c", "ws", ())
        assert idle.closed and idle.id not in room.sessions
        assert room.stats.sessions_reaped == 1

    def test_abandoned_final_flush_frames_are_counted(self):
        """A WebSocket reader that disconnects while its outbound queue is
        still draining: the drain is bounded and the frames it gives up on
        are accounted, not silently lost."""
        from repro.faults import FaultPlan

        async def scenario():
            plan = FaultPlan(seed=1, slow_reader_agents=("lurker",), slow_reader_delay=0.5)
            server = CollabServer(faults=plan, drain_timeout=0.05)
            async with server:
                lurker = CollabClient(server.host, server.port, "d", "lurker")
                fast = CollabClient(server.host, server.port, "d", "fast")
                await lurker.connect()
                await fast.connect()
                for i in range(5):
                    await fast.insert(0, f"w{i} ")
                room = server.room("d")
                # The lurker's pump is stalled in the injected throttle with
                # most of the fan-out batch unsent; vanish under it.  The
                # bounded drain then cancels the pump, which requeues the
                # unsent tail for the accounting.
                await asyncio.sleep(0.05)
                await lurker.close(send_bye=False)
                assert await wait_until(lambda: room.stats.frames_abandoned > 0)
                assert await wait_until(
                    lambda: all(
                        s.agent != "lurker" for s in room.sessions.values()
                    )
                )
                await fast.close()
                assert room.document.text == "w4 w3 w2 w1 w0 "

        run(scenario())
