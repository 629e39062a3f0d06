"""Tests for the incremental merge engine (O(new events) live merges).

Covers the three pillars of the engine:

* the :class:`CriticalCutTracker` maintains exactly the set
  :func:`critical_cut_positions` would compute, under appends, interop
  splits and in-place extensions (property-checked against the batch
  function on randomized histories);
* the sequential fast path and the checkpoint (resident walker state)
  machinery: a quiescent merge touches O(new events), never O(history) —
  proven by engine stat counters, with the legacy rebuild path
  (``incremental=False``) as the contrast;
* end-to-end equivalence: incremental and legacy documents, and the
  per-character oracle, produce identical texts on randomized sessions.
"""

from __future__ import annotations

import random

import pytest

from repro.core.critical_versions import CriticalCutTracker, critical_cut_positions
from repro.core.document import Document
from repro.core.event_graph import EventGraph, expand_to_chars
from repro.core.ids import EventId, delete_op, insert_op
from repro.core.oplog import RemoteEvent
from repro.core.walker import EgWalker
from repro.network.simulator import live_session
from repro.server.wal import graph_to_remote_events
from repro.traces.generator import generate_concurrent


def oracle_text(document: Document) -> str:
    expanded = expand_to_chars(document.oplog.graph)
    return EgWalker(expanded, backend="list", enable_clearing=False).replay_text()


# ----------------------------------------------------------------------
# The incremental critical-cut tracker
# ----------------------------------------------------------------------
class TestCriticalCutTracker:
    def check(self, graph: EventGraph, tracker: CriticalCutTracker) -> None:
        expected = critical_cut_positions(graph, range(len(graph)))
        assert {c: tracker.version_at(c) for c in tracker.cuts()} == expected

    def test_sequential_appends_are_all_cuts(self):
        graph = EventGraph()
        tracker = CriticalCutTracker(graph)
        for i in range(5):
            graph.add_local_event("a", insert_op(i, "x"))
        assert tracker.cuts() == [0, 1, 2, 3, 4]
        assert tracker.critical_run_end(0) == 4
        self.check(graph, tracker)

    def test_concurrent_branch_kills_cuts_behind_its_fork(self):
        graph = EventGraph()
        tracker = CriticalCutTracker(graph)
        graph.add_local_event("a", insert_op(0, "abc"))
        graph.add_local_event("a", insert_op(3, "def"))
        # A branch forking from event 0 invalidates the cut after event 1;
        # the tail cut is the (so far transient) two-head frontier.
        graph.add_event(EventId("b", 0), (0,), insert_op(1, "z"), parents_are_indices=True)
        self.check(graph, tracker)
        assert tracker.cuts() == [0, 2]
        assert tracker.version_at(2) == (1, 2)
        assert tracker.latest_cut_before(2) == 0
        # A merge event naming both heads confirms that version and becomes
        # a cut of its own.
        graph.add_event(
            EventId("a", 6), (1, 2), insert_op(0, "m"), parents_are_indices=True
        )
        self.check(graph, tracker)
        assert tracker.cuts() == [0, 2, 3]
        assert tracker.latest_cut_before(3) == 2
        assert tracker.latest_cut_before(4) == 3
        assert tracker.version_at(None) == ()

    def test_parentless_second_root_clears_all_earlier_cuts(self):
        graph = EventGraph()
        tracker = CriticalCutTracker(graph)
        graph.add_local_event("a", insert_op(0, "abc"))
        assert tracker.cuts() == [0]
        graph.add_event(EventId("b", 0), (), insert_op(0, "z"), parents_are_indices=True)
        self.check(graph, tracker)
        assert tracker.cuts() == [1] and tracker.version_at(1) == (0, 1)
        # An event naming only one of the two roots un-makes that version.
        graph.add_event(EventId("b", 1), (1,), insert_op(1, "y"), parents_are_indices=True)
        self.check(graph, tracker)
        assert tracker.cuts() == [2]

    def test_split_shifts_and_twins_cuts(self):
        graph = EventGraph()
        tracker = CriticalCutTracker(graph)
        graph.add_local_event("a", insert_op(0, "abcdef"))
        graph.add_local_event("a", insert_op(6, "gh"))
        assert tracker.cuts() == [0, 1]
        graph.split_event(0, 3)  # semantic no-op: both halves are cuts
        self.check(graph, tracker)
        assert tracker.cuts() == [0, 1, 2]

    def test_extension_keeps_cuts(self):
        graph = EventGraph()
        tracker = CriticalCutTracker(graph)
        graph.add_local_event("a", insert_op(0, "ab"))
        graph.extend_event(0, insert_op(2, "cd"))
        self.check(graph, tracker)
        assert tracker.cuts() == [0]

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_batch_computation_on_random_histories(self, seed):
        """Random appends (sequential runs, forks, merges) + random splits:
        the tracker must always equal the linear-pass recomputation."""
        rng = random.Random(0xC07 + seed)
        graph = EventGraph()
        tracker = CriticalCutTracker(graph)
        next_seq = {"a": 0, "b": 0, "c": 0}
        for step in range(40):
            roll = rng.random()
            if len(graph) and roll < 0.15:
                # Interop-style split of a random multi-char run.
                candidates = [e.index for e in graph.events() if e.op.length >= 2]
                if candidates:
                    idx = rng.choice(candidates)
                    graph.split_event(idx, rng.randint(1, graph[idx].op.length - 1))
                    self.check(graph, tracker)
                    continue
            agent = rng.choice(["a", "b", "c"])
            length = rng.randint(1, 4)
            if not len(graph) or roll < 0.6:
                parents = graph.frontier  # extends everything: sequential
            else:
                # Fork from a random old event (concurrent branch).
                parents = (rng.randrange(len(graph)),)
            op = insert_op(0, "x" * length)
            graph.add_event(
                EventId(agent, next_seq[agent]), parents, op, parents_are_indices=True
            )
            next_seq[agent] += length
            self.check(graph, tracker)


# ----------------------------------------------------------------------
# The O(new events) acceptance claim
# ----------------------------------------------------------------------
class TestQuiescentMergeCost:
    def build_peer_pair(self, history_events: int, *, incremental: bool):
        """An editor with ``history_events`` runs of quiescent history and a
        fully synced watcher using the given engine mode."""
        editor = Document("editor")
        for i in range(history_events):
            # Alternate kinds so coalescing keeps one event per call.
            if i % 2 == 0:
                editor.insert(len(editor.text), f"w{i} ")
            else:
                editor.delete(0, 1)
        watcher = Document("watcher", incremental=incremental)
        watcher.merge(editor)
        return editor, watcher

    def test_incremental_merge_touches_only_new_events(self):
        editor, watcher = self.build_peer_pair(300, incremental=True)
        n = len(editor.oplog.graph)
        assert n >= 300
        baseline = watcher.merge_stats.snapshot()
        editor.insert(len(editor.text), "new!")
        watcher.merge(editor)
        stats = watcher.merge_stats
        # One new event, O(1) work: fast path, no walker, no O(history)
        # bookkeeping of any kind.
        assert stats.last_merge_events_touched == 1
        assert stats.fast_path_merges == baseline["fast_path_merges"] + 1
        assert stats.cut_scan_events == 0
        assert stats.order_events_materialised == 0
        assert stats.walkers_rebuilt == 0
        assert stats.replayed_new_events == baseline["replayed_new_events"]
        assert watcher.text == editor.text
        # Steady state: no resident walker state, memory is just the text.
        assert not watcher.engine.has_resident_state

    def test_legacy_merge_pays_o_history_bookkeeping(self):
        editor, watcher = self.build_peer_pair(300, incremental=False)
        n = len(editor.oplog.graph)
        before = watcher.merge_stats.cut_scan_events
        editor.insert(len(editor.text), "new!")
        watcher.merge(editor)
        stats = watcher.merge_stats
        # The rebuild path re-scans the whole order for critical cuts and
        # materialises it, every single merge.
        assert stats.cut_scan_events - before >= n
        assert stats.last_merge_events_touched >= n
        assert stats.walkers_rebuilt >= 1
        assert watcher.text == editor.text

    def test_per_merge_work_is_flat_in_history_length(self):
        """The acceptance curve in miniature: per-merge work at N and at 4N
        history must be identical for the engine, growing for the rebuild."""
        work = {}
        for mode in (True, False):
            for n in (100, 400):
                editor, watcher = self.build_peer_pair(n, incremental=mode)
                editor.insert(len(editor.text), "x")
                watcher.merge(editor)
                work[(mode, n)] = watcher.merge_stats.last_merge_events_touched
        assert work[(True, 100)] == work[(True, 400)] == 1
        assert work[(False, 400)] >= work[(False, 100)] + 300


class TestSequentialFastPath:
    def test_fast_path_applies_ops_verbatim_without_walker(self):
        alice = Document("alice")
        bob = Document("bob")
        alice.insert(0, "hello world")
        alice.delete(5, 6)
        bob.merge(alice)
        stats = bob.merge_stats
        assert stats.fast_path_merges == 1
        assert stats.fresh_replays == 0 and stats.resumed_merges == 0
        assert bob.text == "hello"

    def test_fast_path_batches_rope_edits_through_coalescer(self):
        alice = Document("alice", coalesce_local_runs=False)
        for i in range(6):
            alice.insert(len(alice.text), "ab")  # six separate run events
        bob = Document("bob")
        ops = bob.merge(alice)
        # Six sequential insert runs coalesce into one rope edit.
        assert len(ops) == 1
        assert ops[0].content == "ab" * 6
        assert bob.merge_stats.fast_path_events == 6
        assert bob.text == alice.text


# ----------------------------------------------------------------------
# Resident walker state between merges
# ----------------------------------------------------------------------
class TestBatchPrefixPeeling:
    def test_sequential_prefix_of_mixed_batch_applies_verbatim(self):
        """A single batch holding a sequential prefix and a concurrent tail
        (what per-tick delivery batching produces on a heal) fast-paths the
        prefix and walks only the tail."""
        alice = Document("alice")
        alice.insert(0, "base ")
        bob = Document("bob")
        bob.merge(alice)
        bob.insert(5, "next ")       # sequential after alice's run
        alice.insert(0, "X")          # concurrent with bob's event
        batch = alice.oplog.export_events() + bob.oplog.export_events()[1:]
        carol = Document("carol")
        carol.apply_remote_events(batch)
        alice.merge(bob)
        assert carol.text == alice.text
        stats = carol.merge_stats
        assert stats.merges == 1
        # The first event (everyone's common ancestor) applied verbatim; the
        # two mutually concurrent events went through the walker.
        assert stats.fast_path_events == 1
        assert stats.replayed_new_events == 2
        assert stats.fast_path_merges == 0  # the merge was not *entirely* fast
        assert (
            stats.fast_path_events + stats.replayed_new_events
            == stats.events_integrated
        )

    def test_critical_run_end(self):
        doc = Document("alice", coalesce_local_runs=False)
        for i in range(4):
            doc.insert(0, "x")  # linear: every position is a cut
        tracker = doc.engine.tracker
        assert tracker.critical_run_end(0) == 3
        assert tracker.critical_run_end(2) == 3
        assert tracker.critical_run_end(4) == 3  # position 4 doesn't exist yet


class TestResidentState:
    def test_concurrent_episode_resumes_instead_of_replaying(self):
        """During a ping-pong concurrent episode with no critical versions,
        the second and later merges replay only their own new events."""
        alice = Document("alice")
        bob = Document("bob")
        alice.insert(0, "base ")
        bob.merge(alice)

        # Create sustained concurrency: both sides keep typing and merging
        # one-way (alice never sends her new edits back immediately), so no
        # new critical version forms on bob's side.
        alice.insert(5, "a1 ")
        bob.insert(0, "b1 ")
        bob.merge(alice)
        assert bob.engine.has_resident_state
        first = bob.merge_stats.snapshot()
        assert first["fresh_replays"] == 1

        alice.insert(0, "a2 ")
        bob.insert(0, "b2 ")
        bob.merge(alice)
        stats = bob.merge_stats
        assert stats.resumed_merges == first["resumed_merges"] + 1
        assert stats.fresh_replays == first["fresh_replays"]  # no re-replay
        # Work = the local gap event + the one new remote event.
        assert stats.last_merge_events_touched <= 3

    def test_checkpoint_dropped_when_critical_version_survives(self):
        alice = Document("alice")
        bob = Document("bob")
        alice.insert(0, "base ")
        bob.merge(alice)
        alice.insert(5, "a1 ")
        bob.insert(0, "b1 ")
        bob.merge(alice)
        assert bob.engine.has_resident_state
        # The two-head frontier {a1, b1} that merge left is a critical
        # version, but a transient one: the next concurrent delivery could
        # reach behind it, so the state stays.  Alice sees everything of
        # bob, then types: her event names both heads, the version has
        # survived, and the event rides the fast path across it — returning
        # bob to text-only memory (§3.5).
        alice.merge(bob)
        alice.insert(0, "sync ")
        bob.merge(alice)
        assert not bob.engine.has_resident_state
        assert bob.engine.resident_record_count() == 0
        assert bob.merge_stats.fast_path_merges == 2
        alice.insert(0, "more ")
        bob.merge(alice)
        bob.merge(alice)  # idempotent no-op merge stays clean
        assert bob.text.startswith("more sync ")
        assert alice.merge(bob) == [] and alice.text == bob.text

    def test_resumed_merges_converge_with_legacy_and_oracle(self):
        for seed in range(8):
            rng = random.Random(0xE61 + seed)
            docs = {
                True: Document("inc", incremental=True),
                False: Document("leg", incremental=False),
            }
            peers = {
                True: Document("peer-inc", incremental=True),
                False: Document("peer-leg", incremental=False),
            }
            for mode in (True, False):
                doc, peer = docs[mode], peers[mode]
                rng_local = random.Random(rng.randint(0, 1 << 30))
                doc.insert(0, "seed ")
                peer.merge(doc)
                for _ in range(30):
                    roll = rng_local.random()
                    target = doc if rng_local.random() < 0.5 else peer
                    if roll < 0.6 or not target.text:
                        pos = rng_local.randint(0, len(target.text))
                        target.insert(pos, rng_local.choice(["ab ", "c", "defg "]))
                    elif roll < 0.8 and target.text:
                        pos = rng_local.randrange(len(target.text))
                        target.delete(pos, min(2, len(target.text) - pos))
                    else:
                        doc.merge(peer) if rng_local.random() < 0.5 else peer.merge(doc)
                doc.merge(peer)
                peer.merge(doc)
                assert doc.text == peer.text == oracle_text(doc)

    def test_live_session_mostly_fast_paths(self):
        """The steady-state claim on a realistic live session: the engine
        takes the fast path for the bulk of deliveries, never rebuilds, and
        ends with no resident state once the session quiesces."""
        sim = live_session(["a", "b", "c"], rounds=50, seed=7)
        texts = {r.text for r in sim.replicas.values()}
        assert len(texts) == 1
        for replica in sim.replicas.values():
            stats = replica.document.merge_stats
            assert stats.walkers_rebuilt == 0
            assert stats.cut_scan_events == 0
            assert stats.merges > 0
            # A large share of deliveries are sequential fast paths.  (With
            # per-tick delivery batching a batch holding two mutually
            # concurrent events cannot be fast — their versions are not
            # critical once both are in the graph — and consecutive
            # sequential events collapse into one fast merge, so the ratio
            # sits lower than per-event delivery used to report.)
            assert stats.fast_path_merges >= stats.merges * 0.4
            assert stats.fast_path_events > 0
            # Nothing was integrated twice or dropped.
            assert (
                stats.fast_path_events + stats.replayed_new_events
                == stats.events_integrated
            )
            assert oracle_text(replica.document) == replica.text


class TestTwoAuthorLiveSession:
    """Two authors typing at once (the paper's C1/C2 shape), one event per
    delivery: each exchange ends in a two-head critical version, so a merge
    replays at most its own exchange — never the history before it."""

    def deliver_one_by_one(self, target_chars: int) -> Document:
        trace = generate_concurrent("two-author-live", target_events=target_chars, seed=21)
        receiver = Document("receiver")
        for event in graph_to_remote_events(trace.graph):
            receiver.apply_remote_events([event])
        assert receiver.text == oracle_text(receiver)
        assert receiver.text == EgWalker(trace.graph).replay_text()
        return receiver

    def test_window_replay_grows_linearly_with_the_history(self):
        small = self.deliver_one_by_one(1200).merge_stats
        large = self.deliver_one_by_one(2400).merge_stats
        growth = large.events_integrated / small.events_integrated
        assert growth >= 1.8
        # Linear: the window work grows with the history, not its square.
        # (With single-event critical versions only, every exchange's first
        # concurrent event replayed the whole history and this quadrupled.)
        assert large.replayed_window_events <= 1.25 * growth * small.replayed_window_events
        assert large.replayed_window_events <= large.events_integrated

    def test_state_is_released_once_an_exchange_has_survived(self):
        receiver = self.deliver_one_by_one(1200)
        stats = receiver.merge_stats
        # One small replay per exchange, each dropping the previous state.
        assert stats.checkpoints_dropped >= stats.fresh_replays - 1 > 3
        # The last exchange's two-head frontier is critical but unconfirmed;
        # the first event naming both heads releases the state.
        graph = receiver.oplog.graph
        assert len(graph.frontier) == 2 and receiver.engine.has_resident_state
        closing = RemoteEvent(
            id=EventId("carol", 0),
            parents=graph.ids_from_version(graph.frontier),
            op=insert_op(0, "!"),
        )
        receiver.apply_remote_events([closing])
        assert not receiver.engine.has_resident_state
        assert receiver.text == oracle_text(receiver)


# ----------------------------------------------------------------------
# Sender-side run coalescing (oplog-level)
# ----------------------------------------------------------------------
class TestSenderSideCoalescing:
    def test_keystrokes_extend_the_frontier_run(self):
        doc = Document("alice")
        for ch in "hello":
            doc.insert(len(doc.text), ch)
        assert len(doc.oplog) == 1
        assert doc.oplog.graph[0].op.content == "hello"
        # Holding Delete: same-index deletes extend the delete run.
        for _ in range(3):
            doc.delete(0, 1)
        assert len(doc.oplog) == 2
        assert doc.oplog.graph[1].op.length == 3
        assert doc.text == "lo"

    def test_non_continuing_edits_break_the_run(self):
        doc = Document("alice")
        doc.insert(0, "ab")
        doc.insert(1, "x")  # mid-run insert: not a continuation
        assert len(doc.oplog) == 2
        doc.insert(2, "y")  # continues the *new* frontier run
        assert len(doc.oplog) == 2

    def test_remote_event_breaks_the_run(self):
        alice, bob = Document("alice"), Document("bob")
        alice.insert(0, "ab")
        bob.merge(alice)
        bob.insert(2, "cd")
        alice.insert(2, "ef")  # concurrent with bob's edit
        alice.merge(bob)
        # Frontier is no longer alice's own run: next edit is a new event.
        before = len(alice.oplog)
        alice.insert(0, "z")
        assert len(alice.oplog) == before + 1
        bob.merge(alice)
        assert alice.text == bob.text == oracle_text(alice)

    def test_export_since_seq_ships_only_the_extension_suffix(self):
        alice = Document("alice")
        alice.insert(0, "abc")
        bob = Document("bob")
        bob.apply_remote_events(alice.oplog.export_events())
        assert bob.text == "abc"
        mark = alice.oplog.graph.next_seq_for("alice")
        alice.insert(3, "def")  # extends the run in place
        delta = alice.oplog.export_since_seq("alice", mark)
        assert len(delta) == 1
        assert delta[0].id == EventId("alice", 3)
        assert delta[0].parents == (EventId("alice", 2),)
        assert delta[0].op.content == "def"
        bob.apply_remote_events(delta)
        assert bob.text == "abcdef"
        # And the classic full-sync path agrees with the carved copy.
        carol = Document("carol")
        carol.merge(alice)
        assert carol.text == "abcdef"

    def test_peer_with_prefix_gets_suffix_via_events_since(self):
        alice = Document("alice")
        alice.insert(0, "abc")
        bob = Document("bob")
        bob.merge(alice)
        remote = bob.version()
        alice.insert(3, "defg")  # in-place extension
        missing = alice.events_since(remote)
        assert sum(e.op.length for e in missing) == 4
        bob.apply_remote_events(missing)
        assert bob.text == alice.text == "abcdefg"
