"""Tests for the storage layer: varints, compression, columnar encoding, version handles."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.document import Document
from repro.core.event_graph import EventGraph
from repro.core.ids import EventId, delete_op, insert_op
from repro.core.walker import EgWalker
from repro.history import Version
from repro.storage import (
    ContainerOptions,
    StorageError,
    compress,
    decode_file,
    decode_svarint,
    decode_uvarint,
    decode_version,
    decompress,
    encode_event_graph_v3,
    encode_svarint,
    encode_uvarint,
    encode_version,
    pack_uvarints,
    unpack_uvarints,
)
from repro.storage.varint import ByteReader, ByteWriter


class TestVarints:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 255, 300, 2**14, 2**21, 2**40])
    def test_uvarint_round_trip(self, value):
        encoded = encode_uvarint(value)
        decoded, offset = decode_uvarint(encoded)
        assert decoded == value
        assert offset == len(encoded)

    def test_small_values_use_one_byte(self):
        assert len(encode_uvarint(0)) == 1
        assert len(encode_uvarint(127)) == 1
        assert len(encode_uvarint(128)) == 2

    def test_negative_uvarint_rejected(self):
        with pytest.raises(ValueError):
            encode_uvarint(-1)

    def test_truncated_varint_rejected(self):
        with pytest.raises(ValueError):
            decode_uvarint(b"\x80")

    @pytest.mark.parametrize("value", [0, 1, -1, 63, -64, 1000, -1000, 2**30, -(2**30)])
    def test_svarint_round_trip(self, value):
        decoded, _ = decode_svarint(encode_svarint(value))
        assert decoded == value

    @given(st.integers(min_value=0, max_value=2**60))
    @settings(max_examples=200, deadline=None)
    def test_uvarint_property(self, value):
        decoded, _ = decode_uvarint(encode_uvarint(value))
        assert decoded == value

    @given(st.integers(min_value=-(2**60), max_value=2**60))
    @settings(max_examples=200, deadline=None)
    def test_svarint_property(self, value):
        decoded, _ = decode_svarint(encode_svarint(value))
        assert decoded == value

    def test_byte_writer_reader(self):
        writer = ByteWriter()
        writer.write_uvarint(42)
        writer.write_svarint(-7)
        writer.write_string("héllo")
        writer.write_length_prefixed(b"\x00\x01")
        reader = ByteReader(writer.getvalue())
        assert reader.read_uvarint() == 42
        assert reader.read_svarint() == -7
        assert reader.read_string() == "héllo"
        assert reader.read_length_prefixed() == b"\x00\x01"
        assert reader.at_end()


class TestVarintKernels:
    """``pack_uvarints`` / ``unpack_uvarints``: whole columns in one loop."""

    EDGES = [0, 1, 127, 128, 255, 16383, 16384, 2**32, 2**63 - 1]

    def test_round_trip_over_seeded_random_values(self):
        rng = random.Random(0xC01)
        values = self.EDGES + [rng.getrandbits(rng.randint(1, 63)) for _ in range(2000)]
        rng.shuffle(values)
        packed = pack_uvarints(values)
        assert unpack_uvarints(packed, len(values)) == values
        assert unpack_uvarints(packed) == values
        # The kernels speak the same bytes as the per-value codec.
        assert packed == b"".join(encode_uvarint(v) for v in values)

    def test_empty_column(self):
        assert pack_uvarints([]) == b""
        assert unpack_uvarints(b"", 0) == []

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            pack_uvarints([3, -1])

    @pytest.mark.parametrize(
        "data, count",
        [
            (b"\x05\x80", 2),  # truncated: the last varint never terminates
            (b"\x80" * 10 + b"\x01", 1),  # a 10-byte continuation run (> 63 bits)
            (b"\x01\x02", 3),  # count too large: too few values
            (b"\x01\x02", 1),  # count too small: trailing bytes
            (b"\x01\x02\x00", 2),  # trailing bytes, even a zero
        ],
    )
    def test_malformed_column_rejected(self, data, count):
        with pytest.raises(ValueError):
            unpack_uvarints(data, count)

    def test_nine_continuation_bytes_still_decode(self):
        value = 2**63
        assert unpack_uvarints(pack_uvarints([value]), 1) == [value]


class TestCompression:
    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"a",
            b"hello world",
            b"abcabcabcabcabcabcabcabc",
            b"the quick brown fox jumps over the lazy dog " * 50,
            bytes(range(256)) * 3,
        ],
    )
    def test_round_trip(self, data):
        assert decompress(compress(data), len(data)) == data

    def test_repetitive_data_compresses(self):
        data = b"collaborative text editing " * 200
        assert len(compress(data)) < len(data) / 3

    @given(st.binary(max_size=2000))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, data):
        assert decompress(compress(data), len(data)) == data

    def test_anything_but_exactly_the_declared_bytes_is_rejected(self):
        raw = b"hello hello hello hello hello"
        data = compress(raw)
        for bad, length in [
            (data[: len(data) // 2] + b"\xff\xff\xff\xff", len(raw)),  # corrupt
            (data[:-3], len(raw)),  # unfinished stream
            (data + b"\x00", len(raw)),  # unconsumed input
            (data, len(raw) - 1),  # inflates past the declared length
            (data, len(raw) + 1),  # inflates short of it
            (b"", 0),  # not a stream at all
        ]:
            with pytest.raises(ValueError):
                decompress(bad, length)

    def test_inflate_is_bounded_by_the_declared_length(self):
        """A small block declaring a small length must not be able to make
        the reader allocate what it actually inflates to."""
        bomb = compress(b"\x00" * 5_000_000)
        with pytest.raises(ValueError):
            decompress(bomb, 16)


class TestEventGraphEncoding:
    def _round_trip(
        self, graph: EventGraph, options: ContainerOptions | None = None
    ) -> EventGraph:
        return decode_file(encode_event_graph_v3(graph, options)).graph

    @pytest.mark.parametrize(
        "trace_fixture",
        ["small_sequential_trace", "small_concurrent_trace", "small_async_trace"],
    )
    def test_round_trip_preserves_everything(self, trace_fixture, request):
        graph = request.getfixturevalue(trace_fixture).graph
        decoded = self._round_trip(graph)
        assert len(decoded) == len(graph)
        for original, restored in zip(graph.events(), decoded.events()):
            assert original.id == restored.id
            assert original.parents == restored.parents
            assert original.op == restored.op

    def test_round_trip_replays_identically(self, figure4_graph):
        decoded = self._round_trip(figure4_graph)
        assert EgWalker(decoded).replay_text() == EgWalker(figure4_graph).replay_text()

    def test_uncompressed_round_trip(self, small_sequential_trace):
        graph = small_sequential_trace.graph
        decoded = self._round_trip(graph, ContainerOptions(compress_columns=False))
        assert EgWalker(decoded).replay_text() == EgWalker(graph).replay_text()

    def test_snapshot_column(self, small_sequential_trace):
        graph = small_sequential_trace.graph
        text = EgWalker(graph).replay_text()
        data = encode_event_graph_v3(
            graph, ContainerOptions(include_snapshot=True, final_text=text)
        )
        decoded = decode_file(data)
        assert decoded.snapshot == text

    def test_snapshot_requires_text(self, figure2_graph):
        with pytest.raises(ValueError):
            encode_event_graph_v3(figure2_graph, ContainerOptions(include_snapshot=True))

    def test_pruned_encoding_drops_deleted_text_but_keeps_structure(
        self, small_sequential_trace
    ):
        graph = small_sequential_trace.graph
        full = encode_event_graph_v3(graph)
        pruned = encode_event_graph_v3(graph, ContainerOptions(prune_deleted_content=True))
        assert len(pruned) < len(full)
        decoded = decode_file(pruned)
        assert decoded.pruned
        assert len(decoded.graph) == len(graph)
        # Surviving characters are restored; the final document matches.
        assert EgWalker(decoded.graph).replay_text() == EgWalker(graph).replay_text()

    def test_sequential_trace_encodes_compactly(self, small_sequential_trace):
        graph = small_sequential_trace.graph
        data = encode_event_graph_v3(graph, ContainerOptions(compress_columns=False))
        inserted_chars = sum(e.op.length for e in graph.events() if e.op.is_insert)
        # One row per run event: the file is the inserted text plus a few
        # bytes per *run*, far below a per-character encoding.
        assert len(data) < inserted_chars + 8 * len(graph) + 128
        assert len(graph) < graph.num_chars / 3
        # Deflating the columns never grows the file (store-raw-if-not-smaller).
        assert len(encode_event_graph_v3(graph)) <= len(data)

    def test_wrong_magic_rejected(self):
        with pytest.raises(StorageError) as info:
            decode_file(b"NOPE" + b"\x00" * 20)
        assert info.value.code == "bad-magic"

    def test_empty_graph_round_trip(self):
        graph = EventGraph()
        decoded = self._round_trip(graph)
        assert len(decoded) == 0


class TestSplitRunStorage:
    """Storage round-trips graphs whose runs were split on ingest."""

    def _graph_with_split_runs(self) -> EventGraph:
        graph = EventGraph()
        graph.add_event(
            EventId("a", 0), (), insert_op(0, "hello world"), parents_are_indices=True
        )
        graph.add_event(EventId("a", 11), (0,), delete_op(2, 4), parents_are_indices=True)
        # A peer that saw only "hello" replies concurrently -> the stored
        # insert run splits at the dependency boundary; a peer that saw only
        # part of the delete splits that run too.
        graph.ingest_runs(
            [
                (EventId("b", 0), (EventId("a", 4),), insert_op(5, "XY")),
                (EventId("c", 0), (EventId("a", 12),), insert_op(2, "z")),
            ]
        )
        assert len(graph) > 4  # the splits really happened
        return graph

    def test_full_round_trip_preserves_split_carving(self):
        graph = self._graph_with_split_runs()
        decoded = decode_file(encode_event_graph_v3(graph)).graph
        assert len(decoded) == len(graph)
        for original, restored in zip(graph.events(), decoded.events()):
            assert original.id == restored.id
            assert original.parents == restored.parents
            assert original.op == restored.op
        assert EgWalker(decoded).replay_text() == EgWalker(graph).replay_text()

    def test_pruned_round_trip_of_split_runs(self):
        graph = self._graph_with_split_runs()
        data = encode_event_graph_v3(graph, ContainerOptions(prune_deleted_content=True))
        decoded = decode_file(data)
        assert decoded.pruned
        assert len(decoded.graph) == len(graph)
        assert EgWalker(decoded.graph).replay_text() == EgWalker(graph).replay_text()

    def test_decoded_file_merges_into_differently_carved_replica(self):
        """A reader whose graph carves the same history differently than the
        writer did still unions cleanly with the decoded file."""
        writer = EventGraph()
        writer.add_event(
            EventId("a", 0), (), insert_op(0, "collaborative"), parents_are_indices=True
        )
        writer.add_event(EventId("b", 0), (0,), insert_op(13, "!"), parents_are_indices=True)
        data = encode_event_graph_v3(writer)

        reader = EventGraph()
        reader.add_event(EventId("a", 0), (), insert_op(0, "colla"), parents_are_indices=True)
        reader.add_event(
            EventId("a", 5), (0,), insert_op(5, "borative"), parents_are_indices=True
        )
        decoded = decode_file(data).graph
        added = reader.merge_from(decoded)
        assert [reader[i].id for i in added] == [EventId("b", 0)]
        assert reader.num_chars == writer.num_chars
        assert EgWalker(reader).replay_text() == EgWalker(writer).replay_text()
        # And the re-carved union round-trips through storage itself.
        re_encoded = decode_file(encode_event_graph_v3(reader)).graph
        assert EgWalker(re_encoded).replay_text() == EgWalker(writer).replay_text()

    def test_pruned_decode_of_recarved_union(self):
        """Pruned mode works on a graph whose carving came from ingest-time
        splitting (survival masks are computed per character, so carving is
        irrelevant)."""
        graph = self._graph_with_split_runs()
        text = EgWalker(graph).replay_text()
        data = encode_event_graph_v3(
            graph,
            ContainerOptions(
                prune_deleted_content=True, include_snapshot=True, final_text=text
            ),
        )
        decoded = decode_file(data)
        assert decoded.snapshot == text
        assert EgWalker(decoded.graph).replay_text() == text


class TestSnapshots:
    """Version handles: a saved frontier, resolvable on any replica."""

    def test_version_handle_round_trip(self):
        version = Version((EventId("a", 3), EventId("b", 7)))
        assert decode_version(encode_version(version)) == version
        assert decode_version(encode_version(Version())) == Version()

    def test_version_handle_wrong_magic_rejected(self):
        with pytest.raises(ValueError):
            decode_version(b"XXXXwhatever")

    def test_version_handle_round_trips_unicode_agents(self):
        version = Version((EventId("wörld", 0), EventId("日本", 12)))
        assert decode_version(encode_version(version)) == version

    def test_truncated_version_handle_rejected(self):
        data = encode_version(Version((EventId("a", 3), EventId("bob", 300))))
        for cut in range(len(data)):
            with pytest.raises(ValueError):
                decode_version(data[:cut])

    def test_version_handle_resolves_on_a_reloaded_replica(self):
        doc = Document("alice")
        doc.insert(0, "hello")
        handle = encode_version(doc.version())
        doc.insert(5, " world")
        doc.delete(0, 1)
        reloaded = Document.from_bytes(encode_event_graph_v3(doc.oplog.graph), "bob")
        assert reloaded.text == doc.text
        assert reloaded.text_at(decode_version(handle)) == "hello"


class TestEncodingProperty:
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 30), st.sampled_from("abcXYZ ")), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_random_linear_graph_round_trip(self, edits):
        graph = EventGraph()
        length = 0
        for is_delete, pos_seed, char in edits:
            if is_delete and length > 0:
                graph.add_local_event("agent", delete_op(pos_seed % length))
                length -= 1
            else:
                graph.add_local_event("agent", insert_op(pos_seed % (length + 1), char))
                length += 1
        decoded = decode_file(encode_event_graph_v3(graph)).graph
        assert len(decoded) == len(graph)
        assert EgWalker(decoded).replay_text() == EgWalker(graph).replay_text()
