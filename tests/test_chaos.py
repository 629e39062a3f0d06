"""Chaos suite: deterministic fault schedules against the full stack.

Every scenario runs a fixed-seed :class:`~repro.faults.FaultPlan` and gates
on the strongest oracle the repo has: byte-identical convergence between
every client replica, the server replica, and the per-character reference
replay — plus zero events parked in any causal buffer and zero leaked
sessions.  These are the CI ``chaos-smoke`` scenarios; crank the loops for
longer soak runs.
"""

import asyncio

from repro.core.event_graph import expand_to_chars
from repro.core.walker import EgWalker
from repro.faults import FaultPlan, PartitionWindow
from repro.network.simulator import full_mesh
from repro.server import (
    CollabServer,
    DurabilityOptions,
    ReconnectPolicy,
    run_loadgen,
)
from repro.server.loadgen import CollabClient, PollClient
from repro.server.wal import recover_document, room_directory


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60.0))


async def wait_until(predicate, timeout=15.0, interval=0.02):
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return predicate()


#: Aggressive backoff for tests: redial fast, retry long enough to cover a
#: server restart window.
FAST_RECONNECT = ReconnectPolicy(base_delay=0.02, max_delay=0.25, max_attempts=40)


def oracle_text(document):
    """The per-character reference replay of a replica's event graph."""
    return EgWalker(expand_to_chars(document.oplog.graph)).replay_text()


def assert_converged(server, doc, *clients):
    room = server.room(doc)
    text = room.document.text
    assert text == oracle_text(room.document)
    for client in clients:
        assert client.text == text, (client.agent, client.text, text)
        assert client.pending_count == 0
    assert all(v == 0 for v in room.buffer_pending().values()), room.buffer_pending()


def assert_no_leaked_sessions(server):
    for room in server.rooms.values():
        assert room.sessions == {}, (room.name, list(room.sessions))
    assert server._sessions == {}, list(server._sessions)


class TestCrashRestart:
    """Kill the server mid-ingest (torn WAL tail), restart on the same
    port, and require the reconnecting clients to restore full state."""

    def test_torn_wal_crash_restart_converges(self, tmp_path):
        async def scenario():
            plan = FaultPlan(seed=11, crash_after_ingests=4, crash_point="torn-wal")
            server = CollabServer(
                data_dir=str(tmp_path),
                durability=DurabilityOptions(fsync_policy="always"),
                faults=plan,
            )
            await server.start()
            port = server.port
            a = CollabClient("127.0.0.1", port, "d", "alice", reconnect=FAST_RECONNECT)
            b = CollabClient("127.0.0.1", port, "d", "bob", reconnect=FAST_RECONNECT)
            await a.connect()
            await b.connect()
            for i, client in enumerate((a, b, a, b)):  # 4th ingest crashes
                await client.insert(0, f"w{i} ")
                await asyncio.sleep(0.05)
            assert await wait_until(lambda: server._crash_task is not None)
            await server._crash_task
            assert server.faults.stats.crashes == 1
            crashed_doc = server.room("d").document
            assert len(crashed_doc.oplog.graph)  # it really held state

            restarted = CollabServer(port=port, data_dir=str(tmp_path))
            await restarted.start()
            info = restarted.recovery["d"]
            # fsync-per-delta + torn 4th record: exactly 3 records survive.
            assert info.wal_records == 3
            assert info.torn_bytes_dropped > 0
            recovered_doc = restarted.room("d").document
            # The recovered room serves the longest valid prefix of the
            # crashed room's history...
            lost = crashed_doc.events_since(recovered_doc.version())
            assert len(lost) == 1
            for event in recovered_doc.events_since(()):
                assert crashed_doc.oplog.graph.contains_id(event.id)

            # ...and the reconnect replays restore the lost tail: everything
            # converges byte-identically with the per-character oracle.
            assert await wait_until(
                lambda: a.text == b.text == recovered_doc.text
                and crashed_doc.events_since(recovered_doc.version()) == []
            )
            assert a.reconnects >= 1 and b.reconnects >= 1
            assert_converged(restarted, "d", a, b)
            await a.close()
            await b.close()
            await restarted.stop()
            assert_no_leaked_sessions(restarted)

        run(scenario())

    def test_second_crash_keeps_edits_acknowledged_after_torn_restart(self, tmp_path):
        """Torn-WAL crash, restart, reconnect replays plus new edits, then an
        ``after-wal`` crash: the second recovery must hold everything the
        restarted room ingested, not stop at the first crash's torn bytes."""

        async def scenario():
            always = DurabilityOptions(fsync_policy="always")
            data_dir = str(tmp_path)
            server = CollabServer(
                data_dir=data_dir,
                durability=always,
                faults=FaultPlan(seed=11, crash_after_ingests=4, crash_point="torn-wal"),
            )
            await server.start()
            port = server.port
            a = CollabClient("127.0.0.1", port, "d", "alice", reconnect=FAST_RECONNECT)
            b = CollabClient("127.0.0.1", port, "d", "bob", reconnect=FAST_RECONNECT)
            await a.connect()
            await b.connect()
            for i, client in enumerate((a, b, a, b)):  # 4th ingest tears
                await client.insert(0, f"w{i} ")
                await asyncio.sleep(0.05)
            assert await wait_until(lambda: server._crash_task is not None)
            await server._crash_task
            first_crash_text = server.room("d").document.text

            # Restart: the reconnect replay restores the torn record (one
            # ingest), then new edits until the after-wal crash fires.
            second = CollabServer(
                port=port,
                data_dir=data_dir,
                durability=always,
                faults=FaultPlan(seed=12, crash_after_ingests=4, crash_point="after-wal"),
            )
            await second.start()
            assert second.recovery["d"].torn_bytes_dropped > 0
            room = second.room("d")
            assert await wait_until(lambda: room.document.text == first_crash_text)
            for i, client in enumerate((a, b, a, b, a)):
                if second._crash_task is not None:
                    break
                await client.insert(0, f"x{i} ")
                assert await wait_until(
                    lambda: f"x{i} " in room.document.text or second._crash_task is not None
                )
            assert await wait_until(lambda: second._crash_task is not None)
            await second._crash_task
            assert second.faults.stats.crashes == 1
            crashed_doc = room.document

            # Recovery only reads, so probe what the next start will see.
            probe, info = recover_document(room_directory(data_dir, "d"), "probe")
            assert info.torn_bytes_dropped == 0
            assert info.pending_after_recovery == 0
            assert crashed_doc.events_since(probe.version()) == []
            assert probe.text == crashed_doc.text

            third = CollabServer(port=port, data_dir=data_dir)
            await third.start()
            recovered_doc = third.room("d").document
            assert await wait_until(
                lambda: a.text == b.text == recovered_doc.text
                and crashed_doc.events_since(recovered_doc.version()) == []
            )
            assert_converged(third, "d", a, b)
            await a.close()
            await b.close()
            await third.stop()
            assert_no_leaked_sessions(third)

        run(scenario())

    def test_before_and_after_wal_crash_points(self, tmp_path):
        async def scenario():
            for point, surviving in (("before-wal", 0), ("after-wal", 1)):
                data_dir = str(tmp_path / point)
                plan = FaultPlan(seed=2, crash_after_ingests=1, crash_point=point)
                server = CollabServer(
                    data_dir=data_dir,
                    durability=DurabilityOptions(fsync_policy="always"),
                    faults=plan,
                )
                await server.start()
                port = server.port
                client = CollabClient(
                    "127.0.0.1", port, "d", "alice", reconnect=FAST_RECONNECT
                )
                await client.connect()
                await client.insert(0, "payload")  # first ingest crashes
                assert await wait_until(lambda: server._crash_task is not None)
                await server._crash_task

                restarted = CollabServer(port=port, data_dir=data_dir)
                await restarted.start()
                assert restarted.recovery["d"].wal_records == surviving
                # Either way the client's replay restores the edit.
                assert await wait_until(
                    lambda: restarted.room("d").document.text == "payload"
                )
                assert_converged(restarted, "d", client)
                await client.close()
                await restarted.stop()

        run(scenario())


class TestPartitionHeal:
    def test_scheduled_partition_heals_by_anti_entropy(self):
        plan = FaultPlan(
            seed=3, partitions=(PartitionWindow("a", "b", start=0.0, end=1.0),)
        )
        sim = full_mesh(["a", "b", "c"], latency=0.05, faults=plan)
        sim.replicas["a"].insert(0, "aaa ")
        sim.replicas["b"].insert(0, "bbb ")
        sim.replicas["c"].insert(0, "ccc ")
        sim.advance(0.2)
        # Inside the window a<->b traffic is severed: not converged yet.
        assert sim.replicas["a"].text != sim.replicas["b"].text
        assert sim.faults.stats.partitioned > 0
        sim.advance(1.0)  # leave the window
        sim.anti_entropy()
        sim.run_until_quiescent()
        assert sim.converged(), sim.all_texts()
        text = sim.replicas["a"].text
        assert text == oracle_text(sim.replicas["a"].document)
        assert all(r.inbound.pending_count == 0 for r in sim.replicas.values())

    def test_random_drops_heal_by_repeated_anti_entropy(self):
        plan = FaultPlan(seed=17, drop=0.25, duplicate=0.15, delay=0.3, max_delay=0.2)
        sim = full_mesh(["a", "b", "c"], latency=0.05, faults=plan)
        for i in range(8):
            sim.replicas["abc"[i % 3]].insert(0, f"w{i} ")
            sim.advance(0.1)
        for _ in range(20):
            sim.anti_entropy()
            sim.run_until_quiescent()
            if sim.converged():
                break
        assert sim.converged(), sim.all_texts()
        assert sim.faults.stats.dropped > 0
        assert sim.faults.stats.duplicated > 0


class TestTransportFaults:
    def test_reorder_duplicate_delay_over_websockets(self):
        async def scenario():
            plan = FaultPlan(seed=5, duplicate=0.3, reorder=0.25, delay=0.3, max_delay=0.005)
            async with CollabServer(faults=plan) as server:
                clients = [
                    CollabClient(server.host, server.port, "d", f"c{i}")
                    for i in range(3)
                ]
                for client in clients:
                    await client.connect()
                for i in range(12):
                    await clients[i % 3].insert(0, f"w{i} ")
                # Adjacent-swap reorder can park a client's *final* delta
                # until its next frame arrives; presence frames flush it
                # without touching the document.
                for _ in range(2):
                    for client in clients:
                        await client.send_presence()
                    await asyncio.sleep(0.05)
                room = server.room("d")
                assert await wait_until(
                    lambda: room.document.oplog.graph.num_chars
                    == sum(len(f"w{i} ") for i in range(12))
                    and all(c.text == room.document.text for c in clients)
                )
                stats = server.faults.stats
                assert stats.duplicated > 0 and stats.reordered > 0
                # Duplicated deltas were shed by span dedup, not re-applied.
                assert room.stats.duplicates_dropped > 0
                assert_converged(server, "d", *clients)
                for client in clients:
                    await client.close()

        run(scenario())

    def test_connection_cuts_heal_via_reconnect(self):
        async def scenario():
            plan = FaultPlan(seed=23, cut=0.08)
            async with CollabServer(faults=plan) as server:
                clients = [
                    CollabClient(
                        server.host, server.port, "d", f"c{i}", reconnect=FAST_RECONNECT
                    )
                    for i in range(2)
                ]
                for client in clients:
                    await client.connect()
                for i in range(15):
                    await clients[i % 2].insert(0, f"w{i} ")
                    await asyncio.sleep(0.01)
                room = server.room("d")
                assert await wait_until(
                    lambda: clients[0].text == clients[1].text == room.document.text
                    and room.document.oplog.graph.num_chars >= 15 * 3
                )
                assert server.faults.stats.cuts > 0
                assert sum(c.reconnects for c in clients) > 0
                assert_converged(server, "d", *clients)
                for client in clients:
                    await client.close()

        run(scenario())

    def test_poll_transport_cut_heals_via_reconnect(self):
        async def scenario():
            plan = FaultPlan(seed=29, cut=0.2)
            async with CollabServer(faults=plan) as server:
                poll = PollClient(
                    server.host,
                    server.port,
                    "d",
                    "poller",
                    poll_wait=0.05,
                    reconnect=FAST_RECONNECT,
                )
                await poll.connect()
                for i in range(10):
                    await poll.insert(0, f"w{i} ")
                    await asyncio.sleep(0.01)
                room = server.room("d")
                assert await wait_until(
                    lambda: room.document.oplog.graph.num_chars == sum(
                        len(f"w{i} ") for i in range(10)
                    )
                )
                assert server.faults.stats.cuts > 0 and poll.reconnects > 0
                assert await wait_until(lambda: poll.text == room.document.text)
                assert_converged(server, "d", poll)
                await poll.close()

        run(scenario())


class TestSlowReaderShed:
    def test_shed_session_gets_resumable_bye_and_recovers(self):
        async def scenario():
            plan = FaultPlan(seed=9, slow_reader_agents=("slow",), slow_reader_delay=0.25)
            async with CollabServer(faults=plan, max_queued_frames=5) as server:
                slow = CollabClient(
                    server.host, server.port, "d", "slow", reconnect=FAST_RECONNECT
                )
                fast = CollabClient(server.host, server.port, "d", "fast")
                await slow.connect()
                await fast.connect()
                for i in range(12):
                    await fast.insert(0, f"w{i} ")
                room = server.room("d")
                assert await wait_until(lambda: room.stats.sessions_shed >= 1)
                assert room.stats.frames_shed > 0
                # The shed was structured and resumable...
                assert await wait_until(
                    lambda: any(
                        bye.get("reason") == "slow-consumer" and bye.get("resume")
                        for bye in slow.byes
                    )
                )
                # ...and the slow client reconnected and caught up (the
                # injected throttle still applies, so give it time).
                assert await wait_until(
                    lambda: slow.reconnects >= 1 and slow.text == room.document.text,
                    timeout=30.0,
                )
                assert fast.text == room.document.text
                assert_converged(server, "d", slow, fast)
                assert server.faults.stats.slow_waits > 0
                await slow.close()
                await fast.close()
                assert await wait_until(lambda: room.sessions == {})
            assert_no_leaked_sessions(server)

        run(scenario())


class TestDurableLoadgen:
    def test_loadgen_against_durable_room_recovers_after_clean_stop(self, tmp_path):
        """A full mixed-transport load run against a durable room, then a
        cold start from disk alone reproduces the exact final text."""

        async def scenario():
            server = CollabServer(
                data_dir=str(tmp_path),
                durability=DurabilityOptions(fsync_policy="group", group_interval=0.02),
            )
            async with server:
                result = await run_loadgen(
                    server.host,
                    server.port,
                    clients=3,
                    edits_per_client=10,
                    edit_interval=0.0,
                    transport="mixed",
                )
                assert result.converged, result
                final_text = server.room("loadgen").document.text
                stats = server.room("loadgen").storage.stats
                assert stats.records_appended > 0
            # Clean stop compacted; a fresh server recovers from disk alone.
            restarted = CollabServer(data_dir=str(tmp_path))
            await restarted.start()
            assert restarted.room("loadgen").document.text == final_text
            assert restarted.recovery["loadgen"].snapshot_loaded
            await restarted.stop()

        run(scenario())
