"""Randomized convergence fuzzer for partial-run interop and the merge engine.

Drives N replicas through the :class:`~repro.network.simulator.NetworkSimulator`
with a mix of

* insert/delete runs of mixed sizes (1..6 characters) — with sender-side run
  coalescing live, so consecutive edits extend frontier runs in place and
  only suffix deltas travel,
* partitions and heals between random pairs (heal resends use
  ``events_since``, whose version boundaries can land mid-run and split
  stored runs),
* **offline/online toggles**: an offline replica queues its outgoing edits
  and has incoming messages held, then floods everything on reconnect —
  mixed freely with the re-carved syncs below (the PR 2 gap),
* **re-carved direct syncs**: a random causally-closed prefix of one
  replica's exported events is re-encoded with different run boundaries
  (random splits, random adjacent-run merges) and ingested by another
  replica.  The receiver may then edit on top of a *strict prefix* of a
  peer's run, which forces mid-run parent references and
  partial-overlap ingestion everywhere that event travels — the
  split-on-ingest paths this fuzzer exists to hammer.

Every replica that edits carries a **shadow**: a
:class:`~repro.crdt.SimpleListCRDT` (YATA/YjsMod with linear scans, sharing no
code with the walker) under the replica's agent name.  Each local edit is
applied to the :class:`Document` first and then to the shadow, which
generates its own id-based ops from its own view of the text; the ops go into
a per-session pool keyed by character id, and their ids must be exactly the
ids of the exported events.  Before each edit the shadow catches up on every
id of its replica's graph (in local order) and must then hold the replica's
text.  A wrong ordering rule that every replica applies alike still converges
— only an oracle that does not share the rule can see it.

Sessions run on a full mesh and on a star (relay) topology: after healing
everything and draining the network, every replica must hold the same text,
that text must be the text of a shadow fed exactly the ops of the replica's
graph, and it must match the per-character
:func:`~repro.core.event_graph.expand_to_chars` replay (the check on
run-length encoding).

On top of convergence, every session exercises the **version stability**
property of the id-based history subsystem: replicas save
``document.version()`` handles (with the text they stood for) at random
points mid-session, and at the end — after all the in-place run extensions,
interop splits and re-carved syncs above — ``text_at(saved)`` must reproduce
the saved text exactly, must equal a shadow fed exactly the events of the
saved version (and the per-character replay), saved
handles must round-trip through the storage codec, and ``diff`` between a
replica's consecutive saves must transform one saved text into the next.

Every converged session ends with a **storage round-trip property**: the
history is encoded in full, uncompressed, pruned and snapshot-bearing
container modes (plus a re-carved interop copy of the same history), each
decode must re-encode to the same column payloads (byte-identically when
uncompressed), replay to the oracle-agreed text, and a snapshot-bearing file
must serve that text selectively — zero events materialised.

Every one of those files then goes
through the **adopted ≡ re-ingested** property: ``Document.from_bytes`` —
which adopts the decoded graph and the snapshot text instead of re-ingesting
and re-merging them — must agree with a twin that ingests the same events
through ``apply_remote_events`` on every event, the frontier, the critical
cuts and their versions and the text, must hold no walker state, and 20
further fuzzed edits exchanged between the two — shadowed like every other
edit — must converge to the shadow's text.  Files without a snapshot column (the pruned one among
them) take the in-place replay fallback.

Each session also checks **handle stability** of the columnar event graph:
random :class:`Event` views saved mid-session must still be the live
singleton for their position at the end (same object, same id, same
handle), the handle indirection must stay an exact inverse of the local
order, order labels must remain strictly increasing through every split,
and the handle-keyed critical-cut tracker must agree with a from-scratch :func:`critical_cut_positions` rebuild.

Everything is seeded and deterministic: session ``i`` uses
``random.Random(BASE_SEED + i)``.  The iteration count comes from the
``--fuzz-iterations`` pytest option (tests/conftest.py); CI runs a fixed
modest count, nightly jobs can crank it up.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Iterator

from repro.core.causal_graph import CausalGraph
from repro.core.critical_versions import critical_cut_positions
from repro.core.document import Document
from repro.core.event_graph import EventGraph, expand_to_chars
from repro.core.ids import EventId
from repro.core.oplog import RemoteEvent, graph_to_remote_events, recarve_events
from repro.crdt import CrdtOp, SimpleListCRDT
from repro.history import History, Version, apply_ops
from repro.network import Replica
from repro.network.simulator import full_mesh, star
from repro.storage import (
    ContainerOptions,
    LazyDecodedFile,
    decode_file,
    decode_version,
    encode_event_graph_v3,
    encode_version,
)

from oracles import per_char_text

BASE_SEED = 0xE6_2024
ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def char_ids(graph: EventGraph) -> Iterator[EventId]:
    """Every character id of ``graph``, in local (causal) order."""
    for event in graph.events():
        for offset in range(event.op.length):
            yield event.id.advance(offset)


class Shadows:
    """The session's :class:`SimpleListCRDT` shadow replicas and their op pool."""

    def __init__(self, context: str) -> None:
        self.context = context
        #: Every op a shadow generated this session, by character id.
        self.pool: dict[EventId, CrdtOp] = {}
        self._shadows: dict[str, SimpleListCRDT] = {}

    def text_of(self, ids: Iterable[EventId]) -> str:
        """The text of a fresh shadow fed exactly the ops of ``ids``."""
        shadow = SimpleListCRDT("oracle")
        shadow.apply_all(self.pool[i] for i in ids)
        return shadow.text()

    def insert(self, replica: Replica, pos: int, content: str) -> list[RemoteEvent]:
        return self._edit(
            replica,
            lambda: replica.local_insert(pos, content),
            lambda shadow: shadow.local_insert(pos, content),
        )

    def delete(self, replica: Replica, pos: int, length: int) -> list[RemoteEvent]:
        return self._edit(
            replica,
            lambda: replica.local_delete(pos, length),
            lambda shadow: shadow.local_delete(pos, length),
        )

    def _edit(
        self,
        replica: Replica,
        edit: Callable[[], list[RemoteEvent]],
        shadow_edit: Callable[[SimpleListCRDT], list[CrdtOp]],
    ) -> list[RemoteEvent]:
        document = replica.document
        shadow = self._shadows.setdefault(replica.agent, SimpleListCRDT(replica.agent))
        shadow.apply_all(self.pool[i] for i in char_ids(document.oplog.graph))
        assert shadow.text() == document.text, (
            f"replica {replica.agent} disagrees with its shadow ({self.context})"
        )
        # The Document first: it refuses an out-of-range edit before the
        # shadow sees it.
        exported = edit()
        ops = shadow_edit(shadow)
        exported_ids = [e.id.advance(k) for e in exported for k in range(e.op.length)]
        assert [op.id for op in ops] == exported_ids, (
            f"shadow op ids differ from the exported event ids ({self.context})"
        )
        for op in ops:
            assert op.id not in self.pool, f"id {op.id} generated twice ({self.context})"
            self.pool[op.id] = op
        return exported


def oracle_text(shadows: Shadows, document: Document) -> str:
    """The document text per the shadow oracle: a fresh shadow fed exactly
    the ops of the document's graph."""
    return shadows.text_of(char_ids(document.oplog.graph))


def oracle_text_at(shadows: Shadows, document: Document, version: Version) -> str:
    """:func:`oracle_text` at ``version``: a shadow fed exactly its events."""
    expanded = expand_to_chars(document.oplog.graph)
    heads = tuple(sorted({expanded.index_of(eid) for eid in version.ids}))
    events = sorted(CausalGraph(expanded).ancestors(heads))
    text = shadows.text_of(expanded.id_of(i) for i in events)
    assert per_char_text(document.oplog.graph, version.ids) == text, (
        f"per-character replay at a version disagrees with the shadow "
        f"({shadows.context})"
    )
    return text


def random_recarve(rng: random.Random, events):
    """Re-encode an event list with random run boundaries (same history)."""

    def splits(event):
        if event.op.length < 2 or rng.random() < 0.5:
            return ()
        count = rng.randint(1, min(2, event.op.length - 1))
        return rng.sample(range(1, event.op.length), count)

    return recarve_events(events, splits=splits, merge_adjacent=rng.random() < 0.5)


def run_session(
    seed: int,
    *,
    replicas: int = 3,
    steps: int = 28,
    topology: str = "mesh",
) -> None:
    rng = random.Random(seed)
    names = [f"r{i}" for i in range(replicas)]
    if topology == "star":
        sim = star("hub", names, latency=0.01)
        all_names = ["hub", *names]
    else:
        sim = full_mesh(names, latency=0.01)
        all_names = names
    context = f"seed {seed}, {topology}"
    shadows = Shadows(context)
    partitioned: set[frozenset[str]] = set()
    #: Version-stability snapshots: (replica name, saved handle, saved text).
    saved_versions: list[tuple[str, Version, str]] = []
    #: Handle-stability snapshots: (replica name, Event view, id, handle).
    saved_events: list[tuple[str, object, object, int]] = []

    for _ in range(steps):
        roll = rng.random()
        replica = sim.replicas[rng.choice(names)]
        if len(saved_versions) < 6 and rng.random() < 0.18:
            saved_versions.append(
                (replica.name, replica.document.version(), replica.text)
            )
        graph = replica.document.oplog.graph
        if len(saved_events) < 8 and len(graph) and rng.random() < 0.2:
            view = graph[rng.randrange(len(graph))]
            saved_events.append((replica.name, view, view.id, view.handle))
        if roll < 0.45 or not replica.text:
            pos = rng.randint(0, len(replica.text))
            length = rng.randint(1, 6)
            content = "".join(rng.choice(ALPHABET) for _ in range(length))
            sim.broadcast(replica.name, shadows.insert(replica, pos, content))
        elif roll < 0.62:
            pos = rng.randrange(len(replica.text))
            length = min(rng.randint(1, 4), len(replica.text) - pos)
            sim.broadcast(replica.name, shadows.delete(replica, pos, length))
        elif roll < 0.72 and topology == "mesh":
            a, b = rng.sample(names, 2)
            key = frozenset((a, b))
            if key in partitioned:
                sim.heal(a, b)
                partitioned.discard(key)
            else:
                sim.partition(a, b)
                partitioned.add(key)
        elif roll < 0.80:
            # Offline/online toggle: outgoing edits queue up, incoming
            # messages are held, and everything floods on reconnect — while
            # re-carved syncs (below) may slip the same spans in out of band.
            toggled = sim.replicas[rng.choice(names)]
            toggled.set_online(not toggled.online)
        else:
            # Re-carved direct sync of a random causally-closed prefix: the
            # receiver can end up holding a strict prefix of a peer's run and
            # then edit on top of it (mid-run parents, partial overlaps).
            a, b = rng.sample(names, 2)
            events = sim.replicas[a].document.oplog.export_events()
            recarved = random_recarve(rng, events)
            prefix = recarved[: rng.randint(0, len(recarved))]
            sim.replicas[b].receive(prefix)
        sim.advance(rng.random() * 0.03)

    for name in all_names:
        sim.replicas[name].set_online(True)
    for key in list(partitioned):
        a, b = sorted(key)
        sim.heal(a, b)
    # Direct syncs bypass the broadcast path, so make sure every pair has
    # exchanged anything a heal-less run might still be missing.
    for i, a in enumerate(all_names):
        for b in all_names[i + 1 :]:
            sim.heal(a, b)
    sim.run_until_quiescent()

    texts = {name: replica.text for name, replica in sim.replicas.items()}
    assert len(set(texts.values())) == 1, (
        f"replicas diverged (seed {seed}, {topology}): {texts}"
    )
    expected = next(iter(texts.values()))
    # Every replica — the hub too — holds the text of a shadow fed exactly
    # the ops of its graph.
    for name, replica in sim.replicas.items():
        assert oracle_text(shadows, replica.document) == expected, (
            f"replica {name} disagrees with the shadow oracle ({context})"
        )
        assert per_char_text(replica.document.oplog.graph) == expected, (
            f"replica {name} disagrees with the per-character replay ({context})"
        )

    # --- version stability: saved handles still mean what they meant -------
    per_replica: dict[str, list[tuple[Version, str]]] = {}
    for owner, version, text in saved_versions:
        document = sim.replicas[owner].document
        reconstructed = document.text_at(version)
        assert reconstructed == text, (
            f"text_at(saved version) diverged from the text the replica held "
            f"when the handle was taken ({context}, owner {owner})"
        )
        assert reconstructed == oracle_text_at(shadows, document, version), (
            f"text_at(saved version) disagrees with a shadow fed exactly the "
            f"events of the version ({context}, owner {owner})"
        )
        # The handle resolves on *every* replica (all have converged), not
        # just the one that took it.
        other = sim.replicas[rng.choice(all_names)].document
        assert other.text_at(version) == text, (
            f"saved version resolved differently on another replica ({context})"
        )
        per_replica.setdefault(owner, []).append((version, text))

    # diff between a replica's consecutive saves transforms text to text.
    for owner, snaps in per_replica.items():
        document = sim.replicas[owner].document
        for (v1, t1), (v2, t2) in zip(snaps, snaps[1:]):
            assert apply_ops(t1, document.diff(v1, v2)) == t2, (
                f"diff between saved versions does not transform the saved "
                f"texts into each other ({context}, owner {owner})"
            )

    # --- handle stability: saved Event views never renumber or go stale ----
    for owner, view, saved_id, saved_handle in saved_events:
        graph = sim.replicas[owner].document.oplog.graph
        # The view still equals the one at its (current) position; its id
        # and handle never changed, even if the run was split (the left half
        # keeps both) or extended in place.
        assert graph[view.index] == view, (
            f"saved Event view no longer equals the view at its index ({context})"
        )
        assert view.id == saved_id and view.handle == saved_handle, (
            f"saved Event view changed id or handle ({context}, owner {owner})"
        )
        assert graph.handle_at(view.index) == saved_handle, (
            f"handle_at disagrees with the saved handle ({context})"
        )
        assert graph.index_of_handle(saved_handle) == view.index, (
            f"index_of_handle is not the inverse of handle_at ({context})"
        )
        assert graph.locate(saved_id) == (view.index, 0), (
            f"the saved run's first character moved off its event ({context})"
        )
    for name in all_names:
        graph = sim.replicas[name].document.oplog.graph
        keys = [graph.order_key(graph.handle_at(i)) for i in range(len(graph))]
        assert keys == sorted(keys) and len(set(keys)) == len(keys), (
            f"order labels are not strictly increasing ({context}, {name})"
        )
        tracker = sim.replicas[name].document.engine.tracker
        assert {
            c: tracker.version_at(c) for c in tracker.cuts()
        } == critical_cut_positions(graph, range(len(graph))), (
            f"handle-keyed cut tracker disagrees with a from-scratch "
            f"rebuild ({context}, {name})"
        )

    # Saved handles survive a storage round trip of the event graph.
    if saved_versions:
        owner, version, text = saved_versions[0]
        graph_bytes = encode_event_graph_v3(sim.replicas[owner].document.oplog.graph)
        handle_bytes = encode_version(version)
        history = History.over_graph(decode_file(graph_bytes).graph)
        assert history.text_at(decode_version(handle_bytes)) == text, (
            f"saved version did not survive the storage round trip ({context})"
        )

    # --- storage round-trip property ---------------------------------------
    # The converged session history must survive the container in every
    # mode: full, uncompressed, pruned, and snapshot-bearing.  Decoding and
    # re-encoding with the same options must reproduce every column payload
    # (and an uncompressed file byte for byte), and the decoded graph must
    # replay to the oracle-agreed text.
    sample = sim.replicas[rng.choice(all_names)].document
    files = _assert_v3_round_trip(sample.oplog.graph, expected, context)

    # Selective-column reads: a snapshot-bearing file serves its text from
    # the snapshot column alone (zero events materialised); any file serves
    # it through the lazy fallback.
    with_snapshot = encode_event_graph_v3(
        sample.oplog.graph,
        ContainerOptions(include_snapshot=True, final_text=sample.text),
    )
    lazy = LazyDecodedFile(with_snapshot)
    assert lazy.text == expected and lazy.stats.events_materialised == 0, (
        f"selective text read touched the graph ({context})"
    )
    plain = LazyDecodedFile(encode_event_graph_v3(sample.oplog.graph))
    assert plain.text == expected, (
        f"lazy text fallback diverged from the converged text ({context})"
    )

    # A re-carved copy of the same history (different run boundaries) is a
    # different byte stream but must round-trip just as losslessly.
    recarved_doc = Document("recarve-reader")
    recarved_doc.apply_remote_events(
        random_recarve(rng, sample.oplog.export_events())
    )
    assert recarved_doc.text == expected == oracle_text(shadows, recarved_doc), (
        f"re-carved interop copy diverged before the round trip ({context})"
    )
    # ...of which the snapshot-bearing file joins the adoption property.
    files.append(
        _assert_v3_round_trip(
            recarved_doc.oplog.graph, expected, f"{context}, recarved"
        )[-1]
    )

    # --- adopted ≡ re-ingested ----------------------------------------------
    for number, data in enumerate(files):
        _assert_adopted_equals_reingested(data, expected, number, shadows, rng)


def _column_payloads(data: bytes) -> list[tuple[int, bytes]]:
    """(column id, inflated payload) per column — what a re-encode must
    reproduce (deflate's own bytes are not pinned across zlib builds)."""
    lazy = LazyDecodedFile(data)
    return [(c.column_id, lazy.column_payload(c.column_id)) for c in lazy.header.columns]


def _assert_v3_round_trip(graph, expected_text: str, context: str) -> list[bytes]:
    """Round-trip ``graph`` in the four container modes; returns the files
    (the snapshot-bearing one last)."""
    files = []
    for options in (
        ContainerOptions(),
        ContainerOptions(compress_columns=False),
        ContainerOptions(prune_deleted_content=True),
        ContainerOptions(include_snapshot=True, final_text=expected_text),
    ):
        data = encode_event_graph_v3(graph, options)
        decoded = decode_file(data)
        assert decoded.pruned == options.prune_deleted_content
        assert len(decoded.graph) == len(graph)
        assert decoded.graph.frontier == graph.frontier, (
            f"v3 round trip changed the frontier ({context})"
        )
        re_encoded = encode_event_graph_v3(decoded.graph, options)
        assert _column_payloads(re_encoded) == _column_payloads(data), (
            f"re-encode changed a column payload ({context}, {options})"
        )
        if not options.compress_columns:
            assert re_encoded == data, (
                f"uncompressed re-encode is not byte-identical ({context}, {options})"
            )
        history = History.over_graph(decoded.graph)
        assert history.text_at(Version.frontier(decoded.graph)) == expected_text, (
            f"v3 round trip changed the replayed text ({context}, {options})"
        )
        files.append(data)
    return files


def _assert_adopted_equals_reingested(
    data: bytes, expected_text: str, number: int, shadows: Shadows, rng: random.Random
) -> None:
    """``Document.from_bytes`` (adoption) ≡ ingesting the same file's events."""
    context = f"{shadows.context}, file {number}"
    decoded = decode_file(data)
    # Agents are unique per file: their shadowed edits share the session pool.
    adopted = Document.from_bytes(data, f"adopted{number}")
    twin = Document(f"twin{number}")
    twin.apply_remote_events(graph_to_remote_events(decoded.graph))

    stats = adopted.merge_stats
    assert stats.merges == 0 and stats.events_integrated == 0, (
        f"adoption merged events ({context})"
    )
    # A snapshot-less file takes the one full replay (history from the root,
    # every event read verbatim or replayed once); a snapshot needs none.
    replayed = stats.history_fast_path_events + stats.history_new_events
    assert replayed == (0 if decoded.snapshot is not None else len(decoded.graph)), (
        f"adoption replayed {replayed} events ({context})"
    )
    assert adopted.engine.has_resident_state is False, (
        f"adopted document holds walker state ({context})"
    )
    assert adopted.text == twin.text == expected_text, (
        f"adopted text diverged from the re-ingested twin ({context})"
    )
    ours, theirs = adopted.oplog.graph, twin.oplog.graph
    assert [(e.id, e.parents, e.op) for e in ours.events()] == [
        (e.id, e.parents, e.op) for e in theirs.events()
    ], f"adopted graph differs from the re-ingested one ({context})"
    assert ours.frontier == theirs.frontier and adopted.version() == twin.version(), (
        f"adopted frontier differs from the re-ingested one ({context})"
    )
    cuts = adopted.engine.tracker.cuts()
    assert cuts == twin.engine.tracker.cuts(), (
        f"adopted critical cuts differ from the re-ingested ones ({context})"
    )
    for cut in cuts:
        assert adopted.engine.tracker.version_at(cut) == twin.engine.tracker.version_at(
            cut
        ), f"critical version at cut {cut} differs ({context})"

    # 20 further edits, exchanged now and then so both sides see concurrency.
    # They happen outside the simulator, so each side gets its own shadow.
    pair = (adopted, twin)
    editors = (Replica(adopted), Replica(twin))
    for step in range(20):
        editor = editors[rng.randrange(2)]
        text = editor.text
        if not text or rng.random() < 0.65:
            pos = rng.randint(0, len(text))
            length = rng.randint(1, 4)
            content = "".join(rng.choice(ALPHABET) for _ in range(length))
            shadows.insert(editor, pos, content)
        else:
            pos = rng.randrange(len(text))
            shadows.delete(editor, pos, min(rng.randint(1, 3), len(text) - pos))
        if step == 19 or rng.random() < 0.3:
            for sender, receiver in (pair, pair[::-1]):
                receiver.apply_remote_events(sender.events_since(receiver.version()))
    assert (
        oracle_text(shadows, adopted)
        == per_char_text(adopted.oplog.graph)
        == adopted.text
        == twin.text
        == oracle_text(shadows, twin)
    ), f"edits on top of an adopted document diverged ({context})"


def test_convergence_fuzz(fuzz_iterations):
    """Mesh sessions, one per seed."""
    for i in range(fuzz_iterations):
        run_session(BASE_SEED + i)


def test_convergence_fuzz_star(fuzz_iterations):
    """Star (relay) sessions: all traffic through a forwarding hub, mixed
    with offline toggles and re-carved direct syncs between leaves."""
    for i in range(max(1, fuzz_iterations // 2)):
        run_session(BASE_SEED + 50_000 + i, topology="star")


def test_larger_sessions_converge():
    """A few bigger sessions (more replicas, more steps), fixed seeds."""
    for offset in range(3):
        run_session(BASE_SEED + 10_000 + offset, replicas=4, steps=48)
        run_session(
            BASE_SEED + 20_000 + offset, replicas=4, steps=48, topology="star"
        )
