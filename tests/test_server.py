"""End-to-end tests for the collaboration server, over real sockets.

Each test spins up a :class:`~repro.server.CollabServer` on an ephemeral
loopback port inside ``asyncio.run`` and drives it with the loadgen clients —
the same code paths the benchmark and the CI smoke job exercise, at small
scale.  (The room summary's gauges are also checked in process, on a bare
:class:`~repro.server.DocumentRoom`.)
"""

import asyncio
import json

import pytest

from repro.core.ids import EventId, insert_op
from repro.core.oplog import RemoteEvent
from repro.server import CollabServer, DocumentRoom, run_loadgen, run_trace_replay
from repro.server.loadgen import CollabClient, PollClient, http_request
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
                assert result.converged, result.as_row()
                assert result.leaks == {} or all(
                    v == 0 for v in result.leaks.values()
                ), result.leaks
                assert result.edits == 24
                assert result.latency_samples > 0

        run(scenario())

    def test_trace_replay_matches_per_character_oracle(self):
        trace = get_trace("C2", 0.04)

        async def scenario():
            async with CollabServer() as server:
                result = await run_trace_replay(server.host, server.port, trace)
                assert result.converged, result.as_row()
                assert all(v == 0 for v in result.leaks.values()), result.leaks

        run(scenario())


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
                poll._stopping = True
                poll._poll_task.cancel()
                try:
                    await poll._poll_task
                except asyncio.CancelledError:
                    pass
                assert await wait_until(
                    lambda: room.sessions == {} and server._sessions == {}
                )
                assert room.stats.sessions_reaped >= 1
                # The room itself survives with the ghost's edit intact.
                assert room.document.text == "left behind"

        run(scenario())

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
