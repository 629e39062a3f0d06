"""The storage container: round trips, the corruption battery, lazy
hydration accounting, and the golden corpus.

The battery mirrors ``test_wal.py``'s rigor for the container: a file is
truncated at **every** byte offset and has **every** byte of the header and
of the column blocks flipped, through every load path, and each mutation must
surface as a structured :class:`~repro.storage.StorageError` with a stable
``code`` — never a silent wrong decode.  Stale offsets, duplicated/missing
columns, per-column CRC mismatches, mislabelled compression and internally
inconsistent column payloads are each staged explicitly by rewriting the
column table (and re-signing the header CRC, so only the staged defect can
trip).

A committed golden corpus (``tests/golden/storage_v3``) pins the format by
what is stable: uncompressed files byte for byte, compressed files (deflate
output differs between zlib builds) by their table structure and inflated
column payloads.  Regenerate with
``python tests/test_storage_container.py --regenerate``.
"""

from __future__ import annotations

import os
import tracemalloc
import zlib

import pytest

from repro.core.document import Document
from repro.core.event_graph import EventGraph
from repro.core.ids import EventId, delete_op, insert_op
from repro.history import History, Version
from repro.storage import (
    ContainerOptions,
    LazyDecodedFile,
    StorageError,
    decode_event_graph_v3,
    decode_file,
    decode_text,
    encode_event_graph_v3,
    pack_uvarints,
)
from repro.storage.container import (
    COL_AGENTS,
    COL_CONTENT,
    COL_IDS,
    COL_OPS,
    COL_PARENTS,
    COL_SNAPSHOT,
    COLUMN_NAMES,
    MAGIC_V3,
    parse_header,
)
from repro.storage.varint import ByteWriter
from repro.traces.datasets import TRACE_NAMES, get_trace
from repro.traces.generator import generate_concurrent, generate_sequential

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden", "storage_v3")

#: Every code :class:`StorageError` may legally carry (documented contract).
KNOWN_CODES = {
    "bad-magic",
    "unsupported-version",
    "truncated-header",
    "header-crc-mismatch",
    "duplicate-column",
    "stale-column-offset",
    "truncated-column",
    "trailing-data",
    "column-crc-mismatch",
    "column-decode",
    "missing-column",
    "text-requires-graph",
}


# ----------------------------------------------------------------------
# Fixture graphs (deterministic: the golden corpus uses the same builders).
# The figure graphs and two-branch documents mirror tests/conftest.py —
# inlined (rather than imported across conftests) so this module also runs
# standalone, e.g. for `--regenerate`.
# ----------------------------------------------------------------------
def build_figure2_graph() -> EventGraph:
    """Figure 2: concurrent "l" and "!" insertions into "Helo"."""
    graph = EventGraph()
    graph.add_event(EventId("u1", 0), (), insert_op(0, "H"), parents_are_indices=True)
    graph.add_event(EventId("u1", 1), (0,), insert_op(1, "e"), parents_are_indices=True)
    graph.add_event(EventId("u1", 2), (1,), insert_op(2, "l"), parents_are_indices=True)
    graph.add_event(EventId("u1", 3), (2,), insert_op(3, "o"), parents_are_indices=True)
    graph.add_event(EventId("u1", 4), (3,), insert_op(3, "l"), parents_are_indices=True)
    graph.add_event(EventId("u2", 0), (3,), insert_op(4, "!"), parents_are_indices=True)
    return graph


def build_figure4_graph() -> EventGraph:
    """Figure 4: "hi" -> concurrent "hey" / "Hi" -> "Hey!"."""
    graph = EventGraph()
    graph.add_event(EventId("a", 0), (), insert_op(0, "h"), parents_are_indices=True)
    graph.add_event(EventId("a", 1), (0,), insert_op(1, "i"), parents_are_indices=True)
    graph.add_event(EventId("b", 0), (1,), insert_op(0, "H"), parents_are_indices=True)
    graph.add_event(EventId("b", 1), (2,), delete_op(1), parents_are_indices=True)
    graph.add_event(EventId("a", 2), (1,), delete_op(1), parents_are_indices=True)
    graph.add_event(EventId("a", 3), (4,), insert_op(1, "e"), parents_are_indices=True)
    graph.add_event(EventId("a", 4), (5,), insert_op(2, "y"), parents_are_indices=True)
    graph.add_event(EventId("a", 5), (3, 6), insert_op(3, "!"), parents_are_indices=True)
    return graph


def make_two_branch_documents() -> tuple[Document, Document]:
    """Two replicas that share a prefix and then diverge."""
    alice = Document("alice")
    alice.insert(0, "shared base text. ")
    bob = Document("bob")
    bob.merge(alice)
    alice.insert(len(alice.text), "alice adds this at the end. ")
    alice.delete(0, 7)
    bob.insert(0, "bob prepends this. ")
    bob.delete(len(bob.text) - 6, 5)
    return alice, bob


def _linear_document() -> Document:
    doc = Document("alice")
    doc.insert(0, "the quick brown fox jumps over the lazy dog. ")
    doc.delete(4, 6)
    doc.insert(4, "slow ")
    doc.insert(len(doc.text), "again and again and again.")
    return doc


def _merged_two_branch_document() -> Document:
    alice, bob = make_two_branch_documents()
    alice.merge(bob)
    bob.merge(alice)
    return alice


def fixture_graphs() -> dict[str, EventGraph]:
    """Name → deterministic fixture graph (hand-built and generated)."""
    return {
        "figure2": build_figure2_graph(),
        "figure4": build_figure4_graph(),
        "linear": _linear_document().oplog.graph,
        "two_branch": _merged_two_branch_document().oplog.graph,
        "seq_trace": generate_sequential(
            "gold-seq", target_events=80, authors=2, seed=7
        ).graph,
        "conc_trace": generate_concurrent(
            "gold-conc", target_events=90, seed=8, events_per_exchange=9
        ).graph,
    }


def graph_text(graph: EventGraph) -> str:
    return History.over_graph(graph).text_at(Version.frontier(graph))


def assert_graphs_equivalent(a: EventGraph, b: EventGraph, context: str = "") -> None:
    """Same events (ids, parents, ops), same frontier, same replayed text."""
    assert len(a) == len(b), context
    for ea, eb in zip(a.events(), b.events()):
        assert ea.id == eb.id, context
        assert ea.parents == eb.parents, context
        assert ea.op.kind == eb.op.kind, context
        assert ea.op.pos == eb.op.pos, context
        assert ea.op.length == eb.op.length, context
    assert a.frontier == b.frontier, context
    assert graph_text(a) == graph_text(b), context


ALL_OPTIONS = {
    "default": ContainerOptions(),
    "uncompressed": ContainerOptions(compress_columns=False),
    "pruned": ContainerOptions(prune_deleted_content=True),
}


# ----------------------------------------------------------------------
# Table-rewriting helpers (for staging single defects with a valid header)
# ----------------------------------------------------------------------
def _entries_of(data: bytes):
    """Parse a file into (header, mutable column-entry dicts with blocks)."""
    header = parse_header(data)
    blocks = data[header.header_length :]
    entries = [
        {
            "column_id": c.column_id,
            "flags": c.flags,
            "offset": c.offset,
            "stored_length": c.stored_length,
            "raw_length": c.raw_length,
            "crc32": c.crc32,
            "stored": blocks[c.offset : c.offset + c.stored_length],
        }
        for c in header.columns
    ]
    return header, entries


def _reflow(entries) -> None:
    """Recompute contiguous offsets (after resizing/reordering blocks)."""
    offset = 0
    for entry in entries:
        entry["offset"] = offset
        offset += entry["stored_length"]


def _emit(header, entries, version: int = 4) -> bytes:
    """Re-emit a file from entry dicts, re-signing the header CRC (so a
    staged table defect is the *only* thing a decoder can trip on)."""
    writer = ByteWriter()
    writer.write_bytes(MAGIC_V3)
    writer.write_uvarint(version)
    writer.write_uvarint(header.flags)
    writer.write_uvarint(header.num_events)
    writer.write_uvarint(len(entries))
    for entry in entries:
        writer.write_uvarint(entry["column_id"])
        writer.write_uvarint(entry["flags"])
        writer.write_uvarint(entry["offset"])
        writer.write_uvarint(entry["stored_length"])
        writer.write_uvarint(entry["raw_length"])
        writer.write_bytes(entry["crc32"].to_bytes(4, "big"))
    header_bytes = writer.getvalue()
    out = ByteWriter()
    out.write_bytes(header_bytes)
    out.write_bytes(zlib.crc32(header_bytes).to_bytes(4, "big"))
    for entry in entries:
        out.write_bytes(entry["stored"])
    return out.getvalue()


def _append_column(data: bytes, column_id: int, payload: bytes) -> bytes:
    header, entries = _entries_of(data)
    entries.append(
        {
            "column_id": column_id,
            "flags": 0,
            "offset": 0,
            "stored_length": len(payload),
            "raw_length": len(payload),
            "crc32": zlib.crc32(payload),
            "stored": payload,
        }
    )
    _reflow(entries)
    return _emit(header, entries)


def column_payloads(data: bytes) -> dict[int, bytes]:
    """Column id → inflated payload, for every column of ``data``."""
    lazy = LazyDecodedFile(data)
    return {c.column_id: lazy.column_payload(c.column_id) for c in lazy.header.columns}


def assert_same_file(a: bytes, b: bytes, context: str = "") -> None:
    """Equal up to what zlib is free to vary: the same file flags, event
    count and column ids in the same order, and identical inflated payloads
    (compressed blocks themselves differ between zlib builds)."""
    ha, hb = parse_header(a), parse_header(b)
    assert (ha.flags, ha.num_events) == (hb.flags, hb.num_events), context
    assert [c.column_id for c in ha.columns] == [c.column_id for c in hb.columns], context
    assert column_payloads(a) == column_payloads(b), context


def test_rewrite_helpers_are_faithful():
    """Sanity: an identity rewrite reproduces the file byte for byte."""
    data = _battery_file()
    header, entries = _entries_of(data)
    assert _emit(header, entries) == data


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
@pytest.mark.parametrize("graph_name", sorted(fixture_graphs()))
@pytest.mark.parametrize("options_name", sorted(ALL_OPTIONS))
def test_v3_round_trip(graph_name, options_name):
    graph = fixture_graphs()[graph_name]
    options = ALL_OPTIONS[options_name]
    data = encode_event_graph_v3(graph, options)
    decoded = decode_event_graph_v3(data)
    if options.prune_deleted_content:
        # Pruned decode restores surviving characters; graph structure and
        # final text are preserved even though deleted content is gone.
        assert decoded.pruned
        assert len(decoded.graph) == len(graph)
        assert decoded.graph.frontier == graph.frontier
        assert graph_text(decoded.graph) == graph_text(graph)
    else:
        assert_graphs_equivalent(decoded.graph, graph, f"{graph_name}/{options_name}")
    # Re-encoding a decode reproduces every column payload; an uncompressed
    # file is byte-identical outright.
    re_encoded = encode_event_graph_v3(decoded.graph, options)
    assert_same_file(re_encoded, data, f"{graph_name}/{options_name}")
    if not options.compress_columns:
        assert re_encoded == data


def test_compressed_file_holds_the_uncompressed_payloads():
    """Compression is per block and invisible above it: the same payloads,
    deflated only where that made the block smaller."""
    graph = fixture_graphs()["conc_trace"]
    packed = encode_event_graph_v3(graph)
    plain = encode_event_graph_v3(graph, ContainerOptions(compress_columns=False))
    assert_same_file(packed, plain)
    assert len(packed) < len(plain)
    columns = parse_header(packed).columns
    assert any(c.compressed for c in columns) and not all(c.compressed for c in columns)
    for column in columns:
        if column.compressed:
            assert column.stored_length < column.raw_length
        else:
            assert column.stored_length == column.raw_length
    assert not any(c.compressed for c in parse_header(plain).columns)


@pytest.mark.parametrize("graph_name", sorted(fixture_graphs()))
def test_v3_snapshot_round_trip(graph_name):
    graph = fixture_graphs()[graph_name]
    text = graph_text(graph)
    data = encode_event_graph_v3(
        graph, ContainerOptions(include_snapshot=True, final_text=text)
    )
    decoded = decode_event_graph_v3(data)
    assert decoded.snapshot == text
    assert decode_text(data) == text


def test_snapshot_requires_text():
    with pytest.raises(ValueError):
        encode_event_graph_v3(
            fixture_graphs()["linear"], ContainerOptions(include_snapshot=True)
        )


def test_decode_file_rejects_garbage():
    # "EGWK" was the magic of the retired interleaved format.
    for garbage in (b"NOPE" + b"\x00" * 20, b"EGWK\x02\x00\x00"):
        with pytest.raises(StorageError) as info:
            decode_file(garbage)
        assert info.value.code == "bad-magic"
    with pytest.raises(StorageError) as info:
        decode_file(b"EG")
    assert info.value.code == "truncated-header"


def test_unknown_columns_are_skipped():
    """Extensibility: a future column id decodes cleanly past this reader."""
    graph = fixture_graphs()["linear"]
    data = encode_event_graph_v3(graph)
    extended = _append_column(data, column_id=99, payload=b"future payload")
    decoded = decode_event_graph_v3(extended)
    assert_graphs_equivalent(decoded.graph, graph)
    # ...and its block is never read, not even by a text load that hydrates.
    lazy = LazyDecodedFile(extended)
    assert lazy.text == graph_text(graph)
    assert "column-99" not in lazy.stats.column_reads


# ----------------------------------------------------------------------
# Selective reads
# ----------------------------------------------------------------------
def test_decode_text_linear_without_snapshot():
    """The snapshot column is the one cached text: a linear file without it
    is refused by the selective read and served by a hydrating load."""
    doc = _linear_document()
    for options in (ContainerOptions(), ContainerOptions(prune_deleted_content=True)):
        data = encode_event_graph_v3(doc.oplog.graph, options)
        with pytest.raises(StorageError) as info:
            decode_text(data)
        assert info.value.code == "text-requires-graph"
        assert LazyDecodedFile(data).text == doc.text


def test_decode_text_concurrent_requires_graph():
    graph = fixture_graphs()["two_branch"]
    data = encode_event_graph_v3(graph)
    with pytest.raises(StorageError) as info:
        decode_text(data)
    assert info.value.code == "text-requires-graph"


def test_decode_text_prefers_snapshot_column():
    graph = fixture_graphs()["two_branch"]
    text = graph_text(graph)
    data = encode_event_graph_v3(
        graph, ContainerOptions(include_snapshot=True, final_text=text)
    )
    assert decode_text(data) == text


# ----------------------------------------------------------------------
# Lazy hydration accounting
# ----------------------------------------------------------------------
#: The cold reads run on a small fixture and on every trace-suite session
#: (at ``REPRO_TRACE_SCALE``), each persisted the way an evicted document
#: is: deleted content pruned, the text in a snapshot column.
COLD_INPUTS = ("conc_trace", *TRACE_NAMES)


def _evicted(name: str) -> tuple[EventGraph, str, bytes]:
    if name in TRACE_NAMES:
        trace = get_trace(name)
        graph, text = trace.graph, trace.final_text
    else:
        graph = fixture_graphs()[name]
        text = graph_text(graph)
    data = encode_event_graph_v3(
        graph,
        ContainerOptions(
            prune_deleted_content=True, include_snapshot=True, final_text=text
        ),
    )
    return graph, text, data


@pytest.mark.parametrize("name", COLD_INPUTS)
def test_cold_text_touches_only_snapshot_column(name):
    """Current text without materialising a single event, reading a
    fraction of the file; the full decode it is measured against
    materialises every event."""
    graph, text, data = _evicted(name)
    lazy = LazyDecodedFile(data)
    assert lazy.text == text
    assert set(lazy.stats.column_reads) == {"snapshot"}
    assert lazy.stats.events_materialised == 0
    assert lazy.stats.hydrations == 0
    assert lazy.stats.bytes_read / len(data) < 0.9

    full = LazyDecodedFile(data)
    _ = full.graph
    assert full.stats.events_materialised == len(graph)
    assert full.stats.bytes_read >= lazy.stats.bytes_read


def test_cold_text_without_snapshot_hydrates_the_graph_once():
    doc = _linear_document()
    data = encode_event_graph_v3(doc.oplog.graph)
    lazy = LazyDecodedFile(data)
    assert lazy.text == doc.text
    assert lazy.stats.hydrations == 1
    assert lazy.stats.events_materialised == len(doc.oplog.graph)
    reads = dict(lazy.stats.column_reads)
    assert "snapshot" not in reads
    # The text is cached, and the graph it was replayed from is reused.
    assert lazy.text == doc.text
    _ = lazy.graph
    assert lazy.stats.hydrations == 1
    assert lazy.stats.column_reads == reads


@pytest.mark.parametrize("name", COLD_INPUTS)
def test_first_history_access_hydrates_exactly_once(name):
    graph, text, data = _evicted(name)
    lazy = LazyDecodedFile(data)
    assert lazy.text == text
    assert lazy.stats.hydrations == 0

    history = lazy.history
    assert lazy.stats.hydrations == 1
    assert lazy.stats.events_materialised == len(graph)
    first_reads = dict(lazy.stats.column_reads)
    assert first_reads["parents"] == 1
    assert first_reads["agents"] == 1
    assert first_reads["ids"] == 1

    # Repeated accesses (history, graph) must not decode again.
    assert lazy.history is history
    _ = lazy.graph
    assert lazy.stats.hydrations == 1
    assert lazy.stats.column_reads == first_reads
    assert lazy.stats.events_materialised == len(graph)
    assert history.text_at(Version.frontier(lazy.graph)) == text

    # A document adopts a graph of its own (one owner per adopted graph):
    # a second, private hydration from the cached payloads -- no block is
    # read or decompressed twice.  Load is a decode: nothing is merged, no
    # walker state is built, and the document takes a local edit.
    document = lazy.document("reader")
    assert lazy.stats.hydrations == 2
    assert lazy.stats.column_reads == first_reads
    assert lazy.stats.events_materialised == 2 * len(graph)
    assert document.merge_stats.merges == 0
    assert document.merge_stats.events_integrated == 0
    assert not document.engine.has_resident_state
    document.insert(0, "x")
    assert document.text == "x" + text


def test_document_and_history_load_from_bytes():
    graph = fixture_graphs()["two_branch"]
    text = graph_text(graph)
    data = encode_event_graph_v3(graph)
    doc = Document.from_bytes(data, "reader")
    assert doc.text == text
    doc.insert(0, "still editable: ")
    assert doc.text.startswith("still editable: ")
    history = History.from_bytes(data)
    assert history.text_at(Version.frontier(history.graph)) == text


def test_loaded_document_coalesces_local_runs():
    graph = fixture_graphs()["two_branch"]
    doc = Document.from_bytes(encode_event_graph_v3(graph), "reader")
    before = len(doc.oplog)
    doc.insert(0, "ab")
    doc.insert(2, "cd")
    assert len(doc.oplog) == before + 1
    assert doc.text == "abcd" + graph_text(graph)


# ----------------------------------------------------------------------
# Corruption battery: truncation and byte flips
# ----------------------------------------------------------------------
def _battery_file() -> bytes:
    graph = fixture_graphs()["two_branch"]
    return encode_event_graph_v3(
        graph,
        ContainerOptions(include_snapshot=True, final_text=graph_text(graph)),
    )


def _open_editable(data: bytes) -> Document:
    return Document.from_bytes(data, "reader")


def _open_lazily(data: bytes) -> None:
    lazy = LazyDecodedFile(data)
    lazy.text
    lazy.graph


#: The battery runs through the plain decoder, the lazy reader and the
#: editable open, which adopts what it decodes: none may ever see a corrupt
#: file as valid.
BATTERY_DECODERS = (decode_file, _open_lazily, _open_editable)


def test_every_truncation_raises_structured_error():
    """A file cut at *any* byte offset (header, table, or blocks) must
    raise a StorageError with a documented code — never decode silently."""
    data = _battery_file()
    header_length = parse_header(data).header_length
    for decode in BATTERY_DECODERS:
        for cut in range(len(data)):
            with pytest.raises(StorageError) as info:
                decode(data[:cut])
            assert info.value.code in KNOWN_CODES, (
                f"truncation at {cut}: unexpected code {info.value.code!r}"
            )
            if cut < header_length:
                assert info.value.code in {
                    "truncated-header",
                    "header-crc-mismatch",
                    "bad-magic",
                }, f"header truncation at {cut} gave {info.value.code!r}"


def test_every_header_byte_flip_raises_structured_error():
    """Flipping any single byte of the header/table must be caught (the
    header CRC covers magic through table), with a deterministic code."""
    data = _battery_file()
    header_length = parse_header(data).header_length
    for decode in BATTERY_DECODERS:
        for pos in range(header_length):
            corrupted = bytearray(data)
            corrupted[pos] ^= 0xFF
            with pytest.raises(StorageError) as info:
                decode(bytes(corrupted))
            assert info.value.code in {
                "bad-magic",
                "unsupported-version",
                "truncated-header",
                "header-crc-mismatch",
                # a flipped length varint can push the parsed table past the
                # end of the file before the CRC line is reached
                "truncated-column",
                "trailing-data",
            }, f"header flip at {pos} gave {info.value.code!r}"


def test_every_block_byte_flip_raises_column_crc_mismatch():
    """A flipped byte anywhere in a column block — deflated or raw — trips
    that column's CRC before any inflate or parse sees it."""
    data = _battery_file()
    header = parse_header(data)
    assert len(header.columns) == 6  # ops, content, parents, agents, ids, snapshot
    assert {c.compressed for c in header.columns} == {True, False}
    for pos in range(header.header_length, len(data)):
        corrupted = bytearray(data)
        corrupted[pos] ^= 0x01
        for decode in BATTERY_DECODERS:
            with pytest.raises(StorageError) as info:
                decode(bytes(corrupted))
            assert info.value.code == "column-crc-mismatch", (
                f"block flip at {pos} gave {info.value.code!r}"
            )


def test_truncated_blocks_and_trailing_data():
    data = _battery_file()
    with pytest.raises(StorageError) as info:
        decode_event_graph_v3(data[:-1])
    assert info.value.code == "truncated-column"
    with pytest.raises(StorageError) as info:
        decode_event_graph_v3(data + b"\x00")
    assert info.value.code == "trailing-data"


# ----------------------------------------------------------------------
# Corruption battery: staged table defects
# ----------------------------------------------------------------------
def test_stale_offset_per_column():
    data = _battery_file()
    for index in range(len(parse_header(data).columns)):
        header, entries = _entries_of(data)
        entries[index]["offset"] += 1
        # keep the total block length consistent so only the offset trips
        entries[-1]["stored"] += b"\x00" if index == len(entries) - 1 else b""
        with pytest.raises(StorageError) as info:
            decode_event_graph_v3(_emit(header, entries))
        assert info.value.code == "stale-column-offset", (
            f"column {index}: {info.value.code!r}"
        )


def test_wrong_stored_crc_per_column():
    data = _battery_file()
    for index, column in enumerate(parse_header(data).columns):
        header, entries = _entries_of(data)
        entries[index]["crc32"] ^= 0xDEADBEEF
        with pytest.raises(StorageError) as info:
            decode_event_graph_v3(_emit(header, entries))
        assert info.value.code == "column-crc-mismatch", (
            f"column {column.name!r}: {info.value.code!r}"
        )


def test_wrong_raw_length_is_column_decode():
    """The declared raw length binds both kinds of block: a raw one must be
    exactly that long, a deflated one must inflate to exactly that much."""
    data = _battery_file()
    for index, column in enumerate(parse_header(data).columns):
        for delta in (1, -1):
            header, entries = _entries_of(data)
            entries[index]["raw_length"] += delta
            with pytest.raises(StorageError) as info:
                decode_event_graph_v3(_emit(header, entries))
            assert info.value.code == "column-decode", (
                f"column {column.name!r} {delta:+d}: {info.value.code!r}"
            )


def test_mislabelled_compression_is_column_decode():
    """A raw column labelled as deflated and a deflated one labelled as raw
    (flag flipped, header re-signed) fail as decode errors — ``zlib.error``
    never escapes, and nothing decodes as garbage."""
    data = _battery_file()
    columns = parse_header(data).columns
    assert {c.compressed for c in columns} == {True, False}
    for index, column in enumerate(columns):
        header, entries = _entries_of(data)
        entries[index]["flags"] ^= 1
        for decode in BATTERY_DECODERS:
            with pytest.raises(StorageError) as info:
                decode(_emit(header, entries))
            assert info.value.code == "column-decode", (
                f"column {column.name!r}: {info.value.code!r}"
            )


def test_corrupt_deflate_stream_is_column_decode():
    """Damage *inside* a deflated block that a re-signed CRC lets through
    (the case the block-flip battery cannot reach) is a structured error,
    never ``zlib.error`` and never a different payload: bit flips, a
    truncated stream, and bytes after the stream's end."""
    data = _battery_file()
    index = next(
        i for i, c in enumerate(parse_header(data).columns) if c.compressed
    )
    stored = _entries_of(data)[1][index]["stored"]
    damaged = [stored[:-2], stored + b"\x00"]
    for pos in range(len(stored)):
        flipped = bytearray(stored)
        flipped[pos] ^= 0x10
        damaged.append(bytes(flipped))
    refused = 0
    for block in damaged:
        header, entries = _entries_of(data)
        entries[index].update(
            stored=block, stored_length=len(block), crc32=zlib.crc32(block)
        )
        _reflow(entries)
        staged = _emit(header, entries)
        for decode in BATTERY_DECODERS:
            try:
                decode(staged)
            except StorageError as exc:
                assert exc.code == "column-decode", exc.code
                refused += 1
            else:
                # Deflate has don't-care bits (the padding after the final
                # block); a flip there inflates to the very same payload,
                # Adler-32 verified.  Nothing else may get through.
                assert column_payloads(staged) == column_payloads(data)
    assert refused >= len(BATTERY_DECODERS) * (len(damaged) - 2)


def test_inflate_never_exceeds_the_declared_length():
    """A crafted entry declaring a few bytes over a block that inflates to
    megabytes is refused without inflating it."""
    data = _battery_file()
    header, entries = _entries_of(data)
    bomb = zlib.compress(b"\x00" * 20_000_000)
    entries[-1].update(
        flags=1, stored=bomb, stored_length=len(bomb), raw_length=8,
        crc32=zlib.crc32(bomb),
    )
    _reflow(entries)
    tracemalloc.start()
    try:
        with pytest.raises(StorageError) as info:
            decode_text(_emit(header, entries))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.code == "column-decode"
    assert peak < 1_000_000


def test_duplicate_column_rejected():
    data = _battery_file()
    header, entries = _entries_of(data)
    entries.append(dict(entries[-1]))
    _reflow(entries)
    with pytest.raises(StorageError) as info:
        decode_event_graph_v3(_emit(header, entries))
    assert info.value.code == "duplicate-column"


@pytest.mark.parametrize(
    "column_id", [COL_OPS, COL_CONTENT, COL_PARENTS, COL_AGENTS, COL_IDS]
)
def test_missing_required_column(column_id):
    data = _battery_file()
    header, entries = _entries_of(data)
    entries = [e for e in entries if e["column_id"] != column_id]
    _reflow(entries)
    with pytest.raises(StorageError) as info:
        decode_event_graph_v3(_emit(header, entries))
    assert info.value.code == "missing-column", (
        f"{COLUMN_NAMES[column_id]}: {info.value.code!r}"
    )


def test_unsupported_version_rejected():
    data = _battery_file()
    # byte 4 is the version varint (4 encodes as one byte)
    assert data[4] == 4
    bumped = data[:4] + b"\x07" + data[5:]
    with pytest.raises(StorageError) as info:
        decode_event_graph_v3(bumped)
    assert info.value.code == "unsupported-version"
    # A correctly signed header of the retired version 3 (LZ77 columns,
    # interleaved ops) is refused by version, not mis-parsed.
    header, entries = _entries_of(data)
    for decode in BATTERY_DECODERS:
        with pytest.raises(StorageError) as info:
            decode(_emit(header, entries, version=3))
        assert info.value.code == "unsupported-version"


def test_inconsistent_ids_column_is_column_decode():
    """Internally inconsistent (but CRC-valid, correctly framed) column
    payloads still fail loudly: an ids column that no longer aligns with the
    ops column's event boundaries."""
    graph = fixture_graphs()["linear"]
    data = encode_event_graph_v3(graph, ContainerOptions(compress_columns=False))
    header, entries = _entries_of(data)
    for entry in entries:
        if entry["column_id"] == COL_IDS:
            entry["stored"] = entry["stored"][: max(1, len(entry["stored"]) // 2)]
            entry["stored_length"] = len(entry["stored"])
            entry["raw_length"] = len(entry["stored"])
            entry["crc32"] = zlib.crc32(entry["stored"])
    _reflow(entries)
    with pytest.raises(StorageError) as info:
        decode_event_graph_v3(_emit(header, entries))
    assert info.value.code == "column-decode"


# ----------------------------------------------------------------------
# Staged column defects: CRC-valid, correctly framed, internally inconsistent
# ----------------------------------------------------------------------
def _with_column(data: bytes, column_id: int, payload: bytes) -> bytes:
    """``data`` with one column's payload replaced (stored raw, CRC and
    header re-signed, so the payload's content is the only defect)."""
    header, entries = _entries_of(data)
    for entry in entries:
        if entry["column_id"] == column_id:
            entry.update(
                flags=0,
                stored=payload,
                stored_length=len(payload),
                raw_length=len(payload),
                crc32=zlib.crc32(payload),
            )
    _reflow(entries)
    return _emit(header, entries)


def _varints(*values: int) -> bytes:
    return pack_uvarints(values)


def _ops_payload(kinds: bytes, moves: bytes, lengths: bytes, tail: bytes = b"") -> bytes:
    """An ops column from its three sub-streams (each length-prefixed)."""
    writer = ByteWriter()
    for stream in (kinds, moves, lengths):
        writer.write_length_prefixed(stream)
    writer.write_bytes(tail)
    return writer.getvalue()


def _staged_defects() -> dict[str, bytes]:
    """Defect name → a file every CRC of which verifies."""
    plain = encode_event_graph_v3(build_figure2_graph())  # six 1-char events: u1:0..4, u2:0
    linear = _linear_document().oplog.graph  # multi-character runs, one agent
    inserted = sum(e.op.length for e in linear.events() if e.op.is_insert)
    return {
        # event 3 re-uses u1:2, which event 2 already covers
        "overlapping id spans": _with_column(
            plain, COL_IDS, _varints(3, 0, 0, 3, 0, 2, 2, 1, 0, 1)
        ),
        # one exception: event 2 names back-reference 0, i.e. itself
        "parent index >= own event": _with_column(
            plain, COL_PARENTS, _varints(1, 2, 1, 0)
        ),
        # one exception: event 5 names event 3 twice
        "duplicate parent": _with_column(
            plain, COL_PARENTS, _varints(1, 5, 2, 2, 2)
        ),
        # one exception, for an event the file does not have
        "parents exception past the last event": _with_column(
            plain, COL_PARENTS, _varints(1, 6, 1, 1)
        ),
        # the first id run ends one character into the second event
        "id run misaligned with event lengths": _with_column(
            encode_event_graph_v3(linear),
            COL_IDS,
            _varints(2, 0, 0, linear[0].op.length + 1, 0, linear[0].op.length + 1,
                     linear.num_chars - linear[0].op.length - 1),
        ),
        # figure 2's ops are six 1-char inserts at 0,1,2,3,3,4: every cursor
        # move is 0 except the fifth (one back: zig-zag 1)
        "unknown kind byte": _with_column(
            plain, COL_OPS, _ops_payload(b"\0\0\2\0\0\0", _varints(0, 0, 0, 0, 1, 0), _varints(*[1] * 6))
        ),
        "fewer kinds than events": _with_column(
            plain, COL_OPS, _ops_payload(b"\0" * 5, _varints(0, 0, 0, 0, 1, 0), _varints(*[1] * 6))
        ),
        "more positions than events": _with_column(
            plain, COL_OPS, _ops_payload(b"\0" * 6, _varints(0, 0, 0, 0, 1, 0, 0), _varints(*[1] * 6))
        ),
        "fewer lengths than events": _with_column(
            plain, COL_OPS, _ops_payload(b"\0" * 6, _varints(0, 0, 0, 0, 1, 0), _varints(*[1] * 5))
        ),
        # the lengths sub-stream claims 7 bytes; the column holds 6 more
        "sub-stream length prefix past the column end": _with_column(
            plain, COL_OPS, _ops_payload(b"\0" * 6, _varints(0, 0, 0, 0, 1, 0), b"")[:-1]
            + b"\x07" + _varints(*[1] * 6)
        ),
        "bytes after the last sub-stream": _with_column(
            plain, COL_OPS,
            _ops_payload(b"\0" * 6, _varints(0, 0, 0, 0, 1, 0), _varints(*[1] * 6), tail=b"\0"),
        ),
        # the first op moves one back from the document start (zig-zag 1)
        "relative position drives the cursor negative": _with_column(
            plain, COL_OPS, _ops_payload(b"\0" * 6, _varints(1, 0, 0, 0, 1, 0), _varints(*[1] * 6))
        ),
        "zero-length run": _with_column(
            plain, COL_OPS, _ops_payload(b"\0" * 6, _varints(0, 0, 0, 0, 1, 0), _varints(1, 1, 0, 1, 1, 1))
        ),
        "ids column cut mid-run": _with_column(
            plain, COL_IDS, _varints(2, 0, 0, 5, 1, 0)
        ),
        "snapshot longer than all inserts": _with_column(
            encode_event_graph_v3(
                linear,
                ContainerOptions(include_snapshot=True, final_text=graph_text(linear)),
            ),
            COL_SNAPSHOT,
            b"x" * (inserted + 1),
        ),
    }


@pytest.mark.parametrize("defect", sorted(_staged_defects()))
def test_staged_column_defects_are_column_decode(defect):
    """The column decoders and the bulk graph builder keep every check the
    per-event loops made, and the snapshot must be a possible text of the ops
    column: each defect is refused by the decoder, the lazy reader and the
    editable open alike."""
    data = _staged_defects()[defect]
    for decode in (*BATTERY_DECODERS, lambda d: LazyDecodedFile(d).document("reader")):
        with pytest.raises(StorageError) as info:
            decode(data)
        assert info.value.code == "column-decode", f"{defect}: {info.value.code!r}"


def test_stale_snapshot_is_refused():
    """A file written with a ``final_text`` that is not the text of its
    graph must not load: the editable open adopts the snapshot as the
    document, so a stale one would be a silent divergence."""
    doc = _linear_document()
    stale = doc.text
    doc.insert(0, "written after the text was captured. ")
    data = encode_event_graph_v3(
        doc.oplog.graph, ContainerOptions(include_snapshot=True, final_text=stale)
    )
    for decode in (decode_file, _open_editable, History.from_bytes):
        with pytest.raises(StorageError) as info:
            decode(data)
        assert info.value.code == "column-decode"
    # A concurrent history has no exact length (two branches may delete the
    # same character), but its text never holds more characters than were
    # inserted, nor fewer than inserted - deleted.
    merged = _merged_two_branch_document()
    graph = merged.oplog.graph
    for bad in (merged.text + "!" * graph.num_chars, ""):
        with pytest.raises(StorageError):
            _open_editable(
                encode_event_graph_v3(
                    graph, ContainerOptions(include_snapshot=True, final_text=bad)
                )
            )


def test_document_from_lazy_file_owns_its_graph():
    """``LazyDecodedFile.document()`` adopts a private graph: editing the
    document leaves the reader's graph, history and stats untouched."""
    source = _merged_two_branch_document()
    data = encode_event_graph_v3(
        source.oplog.graph,
        ContainerOptions(include_snapshot=True, final_text=source.text),
    )
    lazy = LazyDecodedFile(data)
    history = lazy.history
    events_before = len(lazy.graph)
    frontier_before = Version.frontier(lazy.graph)

    document = lazy.document("editor")
    assert document.oplog.graph is not lazy.graph
    assert document.text == source.text
    assert document.merge_stats.events_integrated == 0
    stats_before = (
        lazy.stats.hydrations,
        lazy.stats.events_materialised,
        dict(lazy.stats.column_reads),
        lazy.stats.bytes_read,
    )
    document.insert(0, "edited: ")
    document.delete(len(document.text) - 3, 3)
    other = Document("peer")
    other.insert(0, "concurrent ")
    document.merge(other)

    assert len(lazy.graph) == events_before
    assert Version.frontier(lazy.graph) == frontier_before
    assert lazy.history is history
    assert history.text_at(frontier_before) == source.text
    assert stats_before == (
        lazy.stats.hydrations,
        lazy.stats.events_materialised,
        dict(lazy.stats.column_reads),
        lazy.stats.bytes_read,
    )
    # The file is unchanged by any of it: a second document starts clean.
    assert lazy.document("second").text == source.text


# ----------------------------------------------------------------------
# WAL compaction + golden corpus
# ----------------------------------------------------------------------
def test_wal_compaction_snapshot_is_a_container(tmp_path):
    """WAL compaction writes the one format; recovery adopts it, and the
    room's text comes straight off the snapshot column."""
    from repro.server.wal import (
        SNAPSHOT_FILENAME,
        DurabilityOptions,
        RoomStorage,
        recover_document,
    )

    doc = _merged_two_branch_document()
    room_dir = tmp_path / "room"
    storage = RoomStorage(
        str(room_dir),
        options=DurabilityOptions(fsync_policy="none", compact_on_close=False),
    )
    storage.compact(doc)
    storage.close()
    snapshot_bytes = (room_dir / SNAPSHOT_FILENAME).read_bytes()
    assert snapshot_bytes[:4] == MAGIC_V3
    recovered, info = recover_document(str(room_dir), "server")
    assert recovered.text == doc.text
    assert info.snapshot_loaded and info.snapshot_text_verified
    assert_graphs_equivalent(recovered.oplog.graph, doc.oplog.graph, "wal snapshot")
    assert decode_text(snapshot_bytes) == doc.text


GOLDEN_MODES = {
    "full": lambda text: {},
    "pruned": lambda text: {"prune_deleted_content": True},
    "snapshot": lambda text: {"include_snapshot": True, "final_text": text},
}


def _golden_specs():
    """File stem → encode callable for every committed golden file: each
    fixture graph in each mode, deflated (``.bin``) and as its uncompressed
    twin (``.raw.bin``)."""
    specs = {}
    for graph_name, graph in fixture_graphs().items():
        text = graph_text(graph)
        for mode, mode_options in GOLDEN_MODES.items():
            for suffix, compress in (("", True), (".raw", False)):
                options = ContainerOptions(compress_columns=compress, **mode_options(text))
                specs[f"{graph_name}.{mode}{suffix}"] = (
                    lambda g=graph, o=options: encode_event_graph_v3(g, o)
                )
    return specs


def _golden(stem: str) -> bytes:
    with open(os.path.join(GOLDEN_DIR, f"{stem}.bin"), "rb") as fh:
        return fh.read()


def test_golden_corpus_pins_the_format():
    """Committed golden files fail loudly on any format drift.

    Uncompressed files are pinned byte for byte.  Deflate output is not
    stable across zlib builds, so a compressed file is pinned by what is:
    its table structure (flags, event count, column ids and raw lengths — a
    block is either deflated and smaller, or raw) and every column's
    *inflated* payload, which must equal the uncompressed twin's — for the
    committed bytes and for a fresh encode alike."""
    specs = _golden_specs()
    assert os.path.isdir(GOLDEN_DIR), (
        "golden corpus missing; regenerate with "
        "`python tests/test_storage_container.py --regenerate`"
    )
    committed = {name for name in os.listdir(GOLDEN_DIR) if name.endswith(".bin")}
    expected = {f"{stem}.bin" for stem in specs}
    assert committed == expected, (
        f"golden corpus out of sync: missing {sorted(expected - committed)}, "
        f"extra {sorted(committed - expected)}"
    )
    for stem, encode in sorted(specs.items()):
        golden, fresh = _golden(stem), encode()
        if stem.endswith(".raw"):
            assert fresh == golden, (
                f"{stem}: encoder output drifted from the committed golden file "
                f"({len(fresh)} vs {len(golden)} bytes); if the format change is "
                f"intentional, regenerate the corpus and bump the format version"
            )
            assert not any(c.compressed for c in parse_header(golden).columns)
            continue
        twin = _golden(f"{stem}.raw")
        for data in (golden, fresh):
            assert_same_file(data, twin, stem)
            assert len(data) <= len(twin), stem
            for column in parse_header(data).columns:
                assert column.flags in (0, 1), stem
                if column.compressed:
                    assert column.stored_length < column.raw_length, stem
                else:
                    assert column.stored_length == column.raw_length, stem


def test_golden_corpus_decodes_to_the_fixture_graphs():
    """Every committed golden file decodes to the graph it was written from."""
    graphs = fixture_graphs()
    for name in sorted(os.listdir(GOLDEN_DIR)):
        if not name.endswith(".bin"):
            continue
        graph_name, mode = name.split(".")[:2]
        graph = graphs[graph_name]
        decoded = decode_file(_golden(name[: -len(".bin")]))
        assert decoded.pruned == (mode == "pruned"), name
        assert decoded.snapshot == (graph_text(graph) if mode == "snapshot" else None), name
        if decoded.pruned:
            assert len(decoded.graph) == len(graph), name
            assert decoded.graph.frontier == graph.frontier, name
            assert graph_text(decoded.graph) == graph_text(graph), name
        else:
            assert_graphs_equivalent(decoded.graph, graph, name)
            assert [e.op for e in decoded.graph.events()] == [e.op for e in graph.events()]


def regenerate_golden_corpus() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in os.listdir(GOLDEN_DIR):
        if name.endswith(".bin"):
            os.remove(os.path.join(GOLDEN_DIR, name))
    for stem, encode in sorted(_golden_specs().items()):
        path = os.path.join(GOLDEN_DIR, f"{stem}.bin")
        with open(path, "wb") as fh:
            fh.write(encode())
        print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        sys.path.insert(0, os.path.dirname(__file__))
        regenerate_golden_corpus()
    else:
        print(__doc__)
