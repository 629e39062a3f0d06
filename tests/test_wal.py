"""Tests for the durable-room storage layer (`repro.server.wal`).

The WAL is the paper's thesis made operational: the event graph is the
durable document, so crash safety reduces to (a) never losing an *intact*
appended record and (b) never trusting a torn one.  The property test here
drives (b) to exhaustion: a WAL truncated at **every** byte offset of its
tail record must recover exactly the longest valid record prefix.
"""

import asyncio
import os
import random

import pytest

from repro.core.document import Document
from repro.core.ids import EventId, delete_op, insert_op
from repro.core.oplog import RemoteEvent
from repro.server import CollabServer, DurabilityOptions, ReconnectPolicy
from repro.server.loadgen import CollabClient
from repro.server.session import DocumentRoom
from repro.server.wal import (
    RecoveryInfo,
    RoomStorage,
    WriteAheadLog,
    decode_wal_record,
    encode_wal_record,
    frame_record,
    list_room_directories,
    recover_document,
    room_directory,
    room_name_from_directory,
)

from oracles import per_char_text


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60.0))


def make_events(agent="alice", edits=((0, "hello world"),)):
    """Author some edits and export them as portable RemoteEvents."""
    doc = Document(agent)
    for pos, content in edits:
        if isinstance(content, int):
            doc.delete(pos, content)
        else:
            doc.insert(pos, content)
    return doc, list(doc.oplog.export_since_seq(agent, 0))


class TestRecordCodec:
    def test_round_trip_inserts_and_deletes(self):
        _, events = make_events(edits=((0, "héllo wörld"), (5, 3), (0, "x")))
        assert decode_wal_record(encode_wal_record(events)) == events

    def test_round_trip_multi_agent_parents(self):
        a = Document("alice")
        a.insert(0, "base ")
        b = Document("bob")
        b.apply_remote_events(a.oplog.export_since_seq("alice", 0))
        b.insert(5, "tail")
        events = a.oplog.export_since_seq("alice", 0) + b.oplog.export_since_seq("bob", 0)
        decoded = decode_wal_record(encode_wal_record(list(events)))
        assert decoded == list(events)
        # Cross-agent parents survive exactly.
        assert decoded[-1].parents and decoded[-1].parents[0].agent == "alice"

    def test_empty_batch(self):
        assert decode_wal_record(encode_wal_record([])) == []

    def test_trailing_garbage_rejected(self):
        payload = encode_wal_record(make_events()[1])
        with pytest.raises(ValueError):
            decode_wal_record(payload + b"\x00")


class TestRecordFormat:
    """A record is the protocol's event list, pinned byte for byte: a change
    to ``encode_event`` that would change the on-disk log fails here until
    ``_WAL_FORMAT`` is bumped."""

    #: Two agents, an explicit and an implied parent, a delete and a
    #: character outside the BMP.
    EVENTS = [
        RemoteEvent(EventId("alice", 0), (), insert_op(0, "hi")),
        RemoteEvent(EventId("alice", 2), (EventId("alice", 1),), insert_op(2, "\U0001F600")),
        RemoteEvent(EventId("bob", 0), (EventId("alice", 2),), delete_op(1, 2)),
    ]
    PAYLOAD = (
        b'[["alice",0,[],0,"hi"],["alice",2,0,2,"\xf0\x9f\x98\x80"],'
        b'["bob",0,[["alice",2]],1,2]]'
    )

    def test_pinned_record(self, tmp_path):
        assert decode_wal_record(self.PAYLOAD) == self.EVENTS
        assert encode_wal_record(self.EVENTS) == self.PAYLOAD
        WriteAheadLog(str(tmp_path / "wal.log")).close()
        assert (tmp_path / "wal.log").read_bytes() == b"EGWL\x02"

    @pytest.mark.parametrize("payload", [b"{}", b"[1]", b"\xff"])
    def test_crc_valid_record_that_is_no_event_list_is_refused(self, tmp_path, payload):
        directory = room_directory(str(tmp_path), "doc")
        storage = RoomStorage(directory)
        storage.wal.append_record(payload)
        storage.abandon()
        with pytest.raises(ValueError):
            recover_document(directory, "server")

    def test_empty_format_1_log_opens_empty_and_accepts_appends(self, tmp_path):
        """A clean shutdown's compaction leaves a format-1 log with only its
        header: nothing in it to decode."""
        directory = room_directory(str(tmp_path), "doc")
        os.makedirs(directory)
        path = os.path.join(directory, "wal.log")
        with open(path, "wb") as fh:
            fh.write(b"EGWL\x01")
        _, info = recover_document(directory, "server")
        assert info.wal_records == info.torn_bytes_dropped == 0
        storage = RoomStorage(directory)
        doc, events = make_events()
        storage.append(events)
        storage.abandon()
        assert open(path, "rb").read().startswith(b"EGWL\x02")
        recovered, info = recover_document(directory, "server")
        assert recovered.text == doc.text and info.wal_records == 1


class TestWriteAheadLog:
    def test_append_scan_round_trip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        payloads = [b"first", b"second", b"third record, longer"]
        for payload in payloads:
            wal.append_record(payload)
        wal.close()
        recovered, torn = WriteAheadLog.scan(path)
        assert recovered == payloads
        assert torn == 0

    def test_scan_missing_and_foreign_files(self, tmp_path):
        assert WriteAheadLog.scan(str(tmp_path / "nope.log")) == ([], 0)
        foreign = tmp_path / "foreign.log"
        foreign.write_bytes(b"not a wal at all")
        with pytest.raises(ValueError, match="foreign.log"):
            WriteAheadLog.scan(str(foreign))

    def test_recovery_refuses_a_log_it_cannot_read(self, tmp_path):
        """A format-1 log holding a record is no empty room: recovery on its
        own refuses it, as opening the log for appends does."""
        directory = room_directory(str(tmp_path), "doc")
        os.makedirs(directory)
        path = os.path.join(directory, "wal.log")
        with open(path, "wb") as fh:
            fh.write(b"EGWL\x01" + frame_record(b"[]"))
        with pytest.raises(ValueError, match="wal.log"):
            recover_document(directory, "server")
        # A log cut inside its header by a crash is still an empty one.
        for prefix in (b"", b"E", b"EGWL"):
            with open(path, "wb") as fh:
                fh.write(prefix)
            _, info = recover_document(directory, "server")
            assert info.wal_records == 0 and info.torn_bytes_dropped == len(prefix)

    def test_corrupt_crc_stops_scan(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append_record(b"good")
        wal.append_record(b"bad")
        wal.close()
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0xFF  # flip a CRC byte of the last record
        open(path, "wb").write(bytes(data))
        payloads, torn = WriteAheadLog.scan(path)
        assert payloads == [b"good"]
        assert torn > 0

    def test_reopen_cuts_torn_tail(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append_record(b"kept")
        intact = wal.size
        wal.append_record(b"torn record", partial=5)
        wal.close()
        wal = WriteAheadLog(path)  # reopening for append cuts the torn bytes
        assert wal.size == os.path.getsize(path) == intact
        wal.append_record(b"after restart")
        wal.close()
        assert WriteAheadLog.scan(path) == ([b"kept", b"after restart"], 0)

    @pytest.mark.parametrize(
        "header", [b"EGWL\x01", b"EGWL\x03", b"EGWL\x80", b"not a wal at all"]
    )
    def test_reopen_refuses_unreadable_file(self, tmp_path, header):
        path = tmp_path / "wal.log"
        path.write_bytes(header + b"\x05hello")
        with pytest.raises(ValueError) as excinfo:
            WriteAheadLog(str(path))
        message = str(excinfo.value)
        assert str(path) in message and repr(header[:5]) in message
        # Refused, not touched: the bytes are still there for an operator.
        assert path.read_bytes() == header + b"\x05hello"

    @pytest.mark.parametrize("prefix", [b"E", b"EGWL"])
    def test_reopen_rewrites_partial_header(self, tmp_path, prefix):
        """A crash while the file was being created leaves a prefix of the
        header: that is a new log, not a foreign one."""
        path = tmp_path / "wal.log"
        path.write_bytes(prefix)
        wal = WriteAheadLog(str(path))
        wal.append_record(b"first")
        wal.close()
        assert WriteAheadLog.scan(str(path)) == ([b"first"], 0)

    def test_reset_truncates_to_header(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append_record(b"doomed")
        wal.reset()
        wal.append_record(b"fresh")
        wal.close()
        assert WriteAheadLog.scan(path) == ([b"fresh"], 0)


class TestRoomDirectories:
    def test_name_round_trip(self, tmp_path):
        for name in ("plain", "with/slash", "unicode-α", "dots..", ""):
            path = room_directory(str(tmp_path), name)
            assert room_name_from_directory(path) == name

    def test_listing_skips_foreign_entries(self, tmp_path):
        os.makedirs(room_directory(str(tmp_path), "doc"))
        os.makedirs(tmp_path / "not-hex-zz")
        (tmp_path / "a-file").write_text("x")
        assert list_room_directories(str(tmp_path)) == [
            ("doc", room_directory(str(tmp_path), "doc"))
        ]
        assert list_room_directories(str(tmp_path / "missing")) == []


class TestRoomStorage:
    def test_fsync_policies(self, tmp_path):
        doc, events = make_events()
        for policy, expected_immediate in (("always", 1), ("group", 0), ("none", 0)):
            storage = RoomStorage(
                room_directory(str(tmp_path), policy),
                options=DurabilityOptions(fsync_policy=policy),
            )
            storage.append(events)
            assert storage.stats.fsyncs == expected_immediate, policy
            storage.sync()
            # sync() is a no-op for a clean log, a real fsync for a dirty one.
            assert storage.stats.fsyncs == 1, policy
            storage.sync()
            assert storage.stats.fsyncs == 1, policy
            storage.abandon()

    def test_compaction_snapshots_and_resets(self, tmp_path):
        directory = room_directory(str(tmp_path), "doc")
        storage = RoomStorage(
            directory,
            options=DurabilityOptions(compact_min_records=2, compact_min_bytes=1 << 30),
        )
        doc = Document("server")
        author = Document("alice")
        for i, word in enumerate(("one ", "two ", "three ")):
            before = author.oplog.graph.next_seq_for("alice")
            author.insert(0, word)
            batch = author.oplog.export_since_seq("alice", before)
            doc.apply_remote_events(batch)
            storage.append(list(batch))
            storage.maybe_compact(doc)
        # Threshold of 2 records: at least one compaction fired and the WAL
        # holds only records appended since.
        assert storage.stats.compactions >= 1
        assert os.path.exists(os.path.join(directory, "snapshot.egwk"))
        storage.close(document=doc)

        recovered, info = recover_document(directory, "server2")
        assert recovered.text == doc.text == "three two one "
        assert info.snapshot_loaded and info.snapshot_text_verified
        assert info.pending_after_recovery == 0
        # Closed cleanly: the snapshot holds everything and was adopted, so
        # recovery merged nothing and started no walker.
        assert recovered.merge_stats.events_integrated == 0
        assert not recovered.engine.has_resident_state

    def test_duplicate_spans_after_interrupted_compaction(self, tmp_path):
        """A crash between snapshot replace and WAL reset leaves the same
        events in both files; recovery must dedup, not double-apply."""
        directory = room_directory(str(tmp_path), "doc")
        storage = RoomStorage(directory, options=DurabilityOptions())
        doc, events = make_events(edits=((0, "abc"), (1, 1)))
        storage.append(events)
        storage.compact(doc)  # snapshot now holds everything
        storage.append(events)  # ...and the WAL holds it again (no reset ran)
        storage.abandon()
        recovered, info = recover_document(directory, "server")
        assert recovered.text == doc.text
        assert info.snapshot_loaded and info.wal_records == 1
        assert info.pending_after_recovery == 0
        # The snapshot was adopted and the seeded buffer shed the whole WAL
        # record as duplicates: nothing reached the merge engine at all.
        assert recovered.merge_stats.merges == 0
        assert len(recovered.oplog.graph) == len(doc.oplog.graph)

    def test_snapshot_is_adopted_and_only_the_tail_is_merged(self, tmp_path):
        """Recovery = adopt the snapshot (graph and text as they are), then
        apply the WAL tail; the recovered replica edits and merges on."""
        directory = room_directory(str(tmp_path), "doc")
        storage = RoomStorage(
            directory, options=DurabilityOptions(compact_on_close=False)
        )
        server = Document("server")
        alice, bob = Document("alice"), Document("bob")
        alice.insert(0, "shared base. ")
        base = alice.oplog.export_since_seq("alice", 0)
        bob.apply_remote_events(base)
        server.apply_remote_events(base)
        storage.append(list(base))
        storage.compact(server)  # snapshot: the base; the WAL is reset
        # The tail: two concurrent edits, logged after the compaction.
        alice.insert(len(alice.text), "alice's tail. ")
        bob.insert(0, "bob's head. ")
        tail = [
            list(alice.oplog.export_since_seq("alice", len("shared base. "))),
            list(bob.oplog.export_since_seq("bob", 0)),
        ]
        for batch in tail:
            server.apply_remote_events(batch)
            storage.append(batch)
        storage.abandon()

        recovered, info = recover_document(directory, "server")
        assert recovered.text == server.text
        assert info.snapshot_loaded and info.snapshot_text_verified
        assert info.snapshot_events == 1 and info.wal_records == 2
        stats = recovered.merge_stats
        assert stats.events_integrated == info.wal_events == 2
        assert stats.merges == 1
        # Still a full replica: a new concurrent edit converges both ways.
        recovered.insert(0, "after recovery. ")
        alice.insert(0, "meanwhile. ")
        bob.apply_remote_events(alice.events_since(bob.version()))
        for peer in (alice, bob):
            peer.apply_remote_events(recovered.events_since(peer.version()))
            recovered.apply_remote_events(peer.events_since(recovered.version()))
        assert recovered.text == alice.text == bob.text

    def test_snapshot_without_text_column_is_replayed_in_place(self, tmp_path):
        """A snapshot file that carries no text (not what ``compact`` writes,
        but a legal file) is still adopted; its text comes from a replay."""
        from repro.server.wal import SNAPSHOT_FILENAME
        from repro.storage import encode_event_graph_v3

        directory = room_directory(str(tmp_path), "doc")
        os.makedirs(directory)
        doc, _ = make_events(edits=((0, "hello world"), (5, 3), (0, "x")))
        with open(os.path.join(directory, SNAPSHOT_FILENAME), "wb") as fh:
            fh.write(encode_event_graph_v3(doc.oplog.graph))
        recovered, info = recover_document(directory, "server")
        assert recovered.text == doc.text
        assert info.snapshot_loaded and not info.snapshot_text_verified
        # The text comes from the one full replay (history from the root),
        # which merges nothing.
        stats = recovered.merge_stats
        assert stats.merges == stats.events_integrated == 0
        replayed = stats.history_fast_path_events + stats.history_new_events
        assert replayed == len(doc.oplog.graph)
        assert not recovered.engine.has_resident_state

    def test_close_compacts_when_configured(self, tmp_path):
        directory = room_directory(str(tmp_path), "doc")
        storage = RoomStorage(
            directory, options=DurabilityOptions(compact_on_close=True)
        )
        doc, events = make_events()
        storage.append(events)
        storage.close(document=doc)
        assert storage.stats.compactions == 1
        # The WAL was reset: recovery runs on the snapshot alone.
        _, info = recover_document(directory, "server")
        assert info.snapshot_loaded and info.wal_records == 0

    def test_server_refuses_room_with_unreadable_wal(self, tmp_path):
        directory = room_directory(str(tmp_path), "doc")
        os.makedirs(directory)
        with open(os.path.join(directory, "wal.log"), "wb") as fh:
            fh.write(b"EGWL\x03" + frame_record(b"a newer format"))
        with pytest.raises(ValueError, match="wal.log"):
            run(CollabServer(data_dir=str(tmp_path)).start())


class TestTornWriteRecovery:
    """Satellite: truncation at *every* byte offset of the tail record."""

    def _build(self, tmp_path, name="doc"):
        """A storage dir with two intact records + the bytes of a third."""
        directory = room_directory(str(tmp_path), name)
        storage = RoomStorage(
            directory, options=DurabilityOptions(compact_on_close=False)
        )
        doc = Document("server")
        author = Document("alice")
        batches = []
        for word in ("one ", "two ", "three "):
            before = author.oplog.graph.next_seq_for("alice")
            author.insert(0, word)
            batch = list(author.oplog.export_since_seq("alice", before))
            doc.apply_remote_events(batch)
            storage.append(batch)
            batches.append(batch)
        storage.abandon()
        tail = frame_record(encode_wal_record(batches[-1]))
        return directory, doc, author, tail

    def test_every_truncation_offset_recovers_longest_prefix(self, tmp_path):
        directory, doc, _, tail = self._build(tmp_path)
        wal_path = os.path.join(directory, "wal.log")
        full = open(wal_path, "rb").read()
        tail_start = len(full) - len(tail)
        for offset in range(len(tail)):
            open(wal_path, "wb").write(full[: tail_start + offset])
            payloads, torn = WriteAheadLog.scan(wal_path)
            assert len(payloads) == 2, offset
            assert torn == offset, offset
            recovered, info = recover_document(directory, "server")
            assert recovered.text == "two one ", offset
            assert info.wal_records == 2 and info.torn_bytes_dropped == offset
        # The untouched file recovers all three records.
        open(wal_path, "wb").write(full)
        recovered, info = recover_document(directory, "server")
        assert recovered.text == doc.text == "three two one "
        assert info.wal_records == 3 and info.torn_bytes_dropped == 0

    @pytest.mark.parametrize("cut", ["start", "middle", "last-byte"])
    def test_truncated_tail_converges_with_reconnecting_client(self, tmp_path, cut):
        """End to end: a server recovering a torn WAL plus the original
        author reconnecting must converge to the full pre-crash text."""
        directory, doc, author, tail = self._build(tmp_path)
        wal_path = os.path.join(directory, "wal.log")
        full = open(wal_path, "rb").read()
        offset = {"start": 0, "middle": len(tail) // 2, "last-byte": len(tail) - 1}[cut]
        open(wal_path, "wb").write(full[: len(full) - len(tail) + offset])

        async def scenario():
            async with CollabServer(data_dir=str(tmp_path)) as server:
                info = server.recovery["doc"]
                assert info.wal_records == 2 and info.torn_bytes_dropped == offset
                assert server.room("doc").document.text == "two one "
                client = CollabClient(
                    server.host,
                    server.port,
                    "doc",
                    "alice",
                    document=author,
                    reconnect=ReconnectPolicy(base_delay=0.01),
                )
                await client.connect()
                # The hello version is ahead of the recovered server; replay
                # local history to restore the lost tail record.
                await client.send_events(author.oplog.export_since_seq("alice", 0))
                deadline = asyncio.get_running_loop().time() + 8.0
                room = server.room("doc")
                while asyncio.get_running_loop().time() < deadline:
                    if room.document.text == "three two one ":
                        break
                    await asyncio.sleep(0.02)
                assert room.document.text == "three two one "
                assert client.text == room.document.text
                await client.close()

        run(scenario())
        # The restored tail is durable again: a *second* recovery sees it.
        recovered, _ = recover_document(directory, "server")
        assert recovered.text == "three two one "


class TestRecoveryMergesTailOnce:
    def test_tail_of_concurrent_records_is_one_merge(self, tmp_path):
        """Two authors typing concurrently, one WAL record per delivered
        batch: recovery decodes the whole tail and merges it in one call."""
        directory = room_directory(str(tmp_path), "doc")
        storage = RoomStorage(directory, options=DurabilityOptions(compact_on_close=False))
        server = Document("server")
        authors = [Document("alice"), Document("bob")]
        rng = random.Random(7)
        records = 0
        for round_ in range(30):
            for author in authors:
                before = author.oplog.graph.next_seq_for(author.agent)
                author.insert(rng.randint(0, len(author.text)), f"{author.agent[0]}{round_} ")
                batch = list(author.oplog.export_since_seq(author.agent, before))
                server.apply_remote_events(batch)
                storage.append(batch)
                records += 1
            if round_ % 5 == 4:  # the authors sync now and then
                alice, bob = authors
                alice.apply_remote_events(bob.events_since(alice.version()))
                bob.apply_remote_events(alice.events_since(bob.version()))
        storage.abandon()

        recovered, info = recover_document(directory, "server")
        assert records >= 50
        assert info.wal_records == records
        assert info.pending_after_recovery == 0
        assert recovered.merge_stats.merges == 1
        assert recovered.text == server.text
        assert recovered.text == per_char_text(recovered.oplog.graph)


class TestDoubleCrash:
    def test_edits_after_torn_tail_restart_survive_second_crash(self, tmp_path):
        """Restarting after a torn write must not leave the torn bytes in
        front of what the restarted room appends."""
        directory = room_directory(str(tmp_path), "doc")
        options = DurabilityOptions(compact_on_close=False)
        author = Document("alice")
        storage = RoomStorage(directory, options=options)
        for word, torn in (("one ", False), ("two ", True)):
            before = author.oplog.graph.next_seq_for("alice")
            author.insert(len(author.text), word)
            storage.append(list(author.oplog.export_since_seq("alice", before)), torn=torn)
        storage.abandon()  # crash

        recovered, info = recover_document(directory, "server")
        assert recovered.text == "one " and info.torn_bytes_dropped > 0
        room = DocumentRoom(
            "doc", document=recovered, storage=RoomStorage(directory, options=options)
        )
        replay = author.oplog.export_since_seq("alice", 0)
        before = author.oplog.graph.next_seq_for("alice")
        author.insert(len(author.text), "three")
        room.receive(replay + author.oplog.export_since_seq("alice", before))
        assert room.text == author.text == "one two three"
        room.storage.abandon()  # crash again

        recovered, info = recover_document(directory, "server")
        assert recovered.text == "one two three"
        assert info.torn_bytes_dropped == 0


class TestRecoveryInfo:
    def test_fresh_directory(self, tmp_path):
        recovered, info = recover_document(str(tmp_path / "empty"), "server")
        assert recovered.text == ""
        assert info.as_dict() == RecoveryInfo().as_dict()
