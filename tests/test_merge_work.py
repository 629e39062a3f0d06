"""Work gates for the merge engine: counters, never a timing.

Three shapes, each asserted on the engine's own counters so that a
regression fails on any machine, however fast:

* **one big merge** — the history the paper calls asynchronous (six
  long-lived branches, no critical version after the first fork), merged
  into a fresh replica in one ``apply_remote_events`` call; the index
  lookups are counted by wrapping them from here, per event the walker
  replayed or the graph ingested.  The bounds sit between what the code does
  now and what it did when every flipped record was re-resolved by id and
  every appended run was walked for overlap (in comments, measured on this
  history).
* **a live stream** — one event per delivery while the history grows about
  eightfold (§3.5–3.6): a sequential delivery touches only the new event, a
  concurrent one a window set by the concurrency, not by the history; two
  authors typing at once replay at most their own exchange per event.
* **a whole trace in small batches** — the live-session shape on the S3 and
  C2 trace-suite sessions: a sequential trace never builds walker state, and
  a concurrent one releases it at the critical version each exchange ends in
  without paying for it in re-replayed history.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.core.document import Document
from repro.core.event_graph import EventGraph
from repro.core.ids import EventId, insert_op
from repro.core.oplog import RemoteEvent, graph_to_remote_events
from repro.core.order_statistic_tree import TreeSequence
from repro.core.sequence import RecordIndex
from repro.core.walker import EgWalker
from repro.network.replica import Replica
from repro.traces.datasets import get_trace
from repro.traces.generator import generate_async, generate_concurrent

EVENTS = 900


@pytest.fixture(scope="module")
def history():
    graph = generate_async(
        "work", target_events=18000, seed=1, concurrent_branches=6, authors=48,
        events_per_branch=1125,
    ).graph
    events = graph_to_remote_events(graph)[:EVENTS]
    assert len(events) == EVENTS
    return events


def _counting(monkeypatch, calls: Counter, owner: type, name: str) -> None:
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_lookups_per_event(history, monkeypatch):
    calls: Counter = Counter()
    _counting(monkeypatch, calls, RecordIndex, "record_at_seq")
    _counting(monkeypatch, calls, TreeSequence, "neighbours")
    _counting(monkeypatch, calls, EventGraph, "_locate_handle")
    document = Document("work")
    document.apply_remote_events(history)
    stats = document.engine.walker.last_stats
    walked = stats.events_processed
    assert walked > 0.9 * EVENTS and stats.retreats > walked / 2, "not the branchy shape"
    assert calls["record_at_seq"] / walked <= 3  # 2.7; was 7.1
    assert calls["neighbours"] / walked <= 3  # 2.8; was 5.6 (next and previous, a search each)
    assert calls["_locate_handle"] / EVENTS <= 1.5  # 1.0 (a parent); was 2.0 with the added-span lookup


def test_a_fresh_replay_gives_the_merged_text(history):
    document = Document("work")
    document.apply_remote_events(history)
    assert EgWalker(document.oplog.graph).replay_text() == document.text


# ----------------------------------------------------------------------
# A live stream: one event per delivery while the history grows
# ----------------------------------------------------------------------
MAX_EVENTS = 1600
CHECKPOINTS = (MAX_EVENTS // 8, MAX_EVENTS // 4, MAX_EVENTS // 2, MAX_EVENTS)
#: Slack, in events, between the per-merge work at the smallest and at the
#: largest checkpoint: the live stream is the same shape at every length.
FLAT_SLACK = 2


@pytest.fixture(scope="module")
def live_stream():
    """A watcher receives an editor's keystrokes one delta at a time.  At each
    checkpoint it takes one sequential delivery (the fast path) and one
    concurrent delivery (the walker against the resident state); returns the
    history length at each checkpoint, the events each of those merges
    touched, and the watcher's stats."""
    editor = Replica(Document("editor"))
    watcher = Document("watcher")
    sizes = []
    work = {"sequential": [], "concurrent": []}

    def keystroke(content="x"):
        # With run coalescing a keystroke usually extends an event in place,
        # so only the one-character suffix travels: the live-wire shape.
        watcher.apply_remote_events(editor.local_insert(len(editor.text), content))

    for n, checkpoint in enumerate(CHECKPOINTS):
        while len(watcher.oplog.graph) < checkpoint - 1:
            keystroke()
        graph = watcher.oplog.graph
        sizes.append(len(graph))
        keystroke()
        work["sequential"].append(watcher.merge_stats.last_merge_events_touched)
        # An event forking from two events back takes the walker path.
        fork = graph.dependency_id(len(graph) - 2)
        watcher.apply_remote_events([RemoteEvent(EventId("intruder", n), (fork,), insert_op(0, "Z"))])
        work["concurrent"].append(watcher.merge_stats.last_merge_events_touched)
        # Re-quiesce: the editor pulls everything and types once; that event
        # dominates every head, so the next checkpoint starts from a critical
        # version.
        editor.receive(watcher.events_since(editor.document.version()))
        keystroke(". ")
    assert watcher.text == editor.text
    return sizes, work, watcher.merge_stats


def test_sequential_deliveries_touch_only_the_new_event(live_stream):
    _, work, _ = live_stream
    assert work["sequential"] == [1] * len(CHECKPOINTS)


def test_concurrent_deliveries_replay_a_window_set_by_the_concurrency(live_stream):
    """The resident window is O(1) here, whatever the history length."""
    _, work, _ = live_stream
    assert max(work["concurrent"]) <= 8, work
    assert work["concurrent"][0] == work["concurrent"][-1], work


def test_merge_work_does_not_grow_with_history(live_stream):
    """The history grows about eightfold between the first and the last
    checkpoint, the per-merge work by at most a constant."""
    sizes, work, _ = live_stream
    assert sizes[-1] >= 4 * sizes[0], sizes
    for delivery, series in work.items():
        assert series[-1] <= series[0] + FLAT_SLACK, (delivery, series)


def test_the_live_stream_takes_the_fast_path(live_stream):
    _, _, stats = live_stream
    assert stats.fast_path_merges >= stats.merges * 0.9, stats


def test_two_author_session_replays_only_its_own_exchange():
    """Two authors typing at once, one event per delta: every exchange ends
    in a (two-head) critical version, so the window replayed per event is
    bounded by an exchange, not by the history.  An engine that misses those
    versions replays from the root once per exchange, and the ratio grows
    with the history (47 at 640 events)."""
    graph = generate_concurrent("two-author-live", target_events=4 * MAX_EVENTS, seed=21).graph
    watcher = Document("watcher")
    for event in graph_to_remote_events(graph):
        watcher.apply_remote_events([event])
    assert watcher.text == EgWalker(graph).replay_text()
    stats = watcher.merge_stats
    assert stats.events_integrated == len(watcher.oplog.graph) >= MAX_EVENTS // 4
    assert stats.replayed_window_events / stats.events_integrated <= 2, stats


# ----------------------------------------------------------------------
# A whole trace, consumed in small batches by a fresh replica
# ----------------------------------------------------------------------
BATCH_SIZE = 8


@pytest.fixture(scope="module")
def consumed():
    """Trace name -> (the receiver's stats once the trace is in, whether it
    still holds walker state after the session closes)."""
    outcomes = {}
    for name in ("S3", "C2"):
        trace = get_trace(name)
        events = graph_to_remote_events(trace.graph)
        receiver = Document("receiver")
        for start in range(0, len(events), BATCH_SIZE):
            receiver.apply_remote_events(events[start : start + BATCH_SIZE])
        assert receiver.text == trace.final_text
        assert len(receiver.oplog.graph) == len(trace.graph)
        stats = replace(receiver.merge_stats)
        # The session closes: someone who has seen everything types once
        # more.  The event names every head of the last exchange, which
        # confirms that critical version and returns the replica to
        # text-only memory (§3.5).
        received = receiver.oplog.graph
        closer = RemoteEvent(
            EventId("closer", 0), received.ids_from_version(received.frontier), insert_op(0, ".")
        )
        receiver.apply_remote_events([closer])
        outcomes[name] = stats, receiver.engine.has_resident_state
    return outcomes


def test_sequential_trace_never_touches_the_walker(consumed):
    """S3 is purely sequential: every event takes the fast path, with no
    window replay and no walker state ever built."""
    stats, _ = consumed["S3"]
    assert stats.fast_path_events == stats.events_integrated == len(get_trace("S3").graph)
    assert stats.replayed_window_events == 0
    assert stats.checkpoints_kept == 0


def test_concurrent_trace_releases_its_state_between_exchanges(consumed):
    """Every C2 exchange ends in a (two-head) critical version: the engine
    drops the resident state there and starts the next exchange with a small
    fresh replay, so a closed session holds no walker state at all (§3.5's
    "memory is just the text").  That the drops are never paid for with
    re-replayed history is the window bound below; that a split or extension
    inside an exchange drops the state too, and the next merge replays
    afresh, is pinned in ``tests/test_event_handles.py``."""
    stats, resident_after_close = consumed["C2"]
    assert resident_after_close is False
    assert stats.checkpoints_dropped >= stats.fresh_replays - 1 > 0, stats


def test_window_replay_stays_proportional_to_new_events(consumed):
    """The redundant-work bound: the window events replayed across the whole
    C2 session stay below the new events integrated."""
    stats, _ = consumed["C2"]
    assert stats.replayed_window_events <= stats.replayed_new_events, stats
