"""Work gates for one big merge: how often the hot path consults its indices.

No timing.  The history is the shape the paper calls asynchronous (six
long-lived branches, no critical version after the first fork), merged into a
fresh replica in one ``apply_remote_events`` call; the counts are taken by
wrapping the lookups from here, per event the walker replayed or the graph
ingested.  The bounds sit between what the code does now and what it did when
every flipped record was re-resolved by id and every appended run was walked
for overlap (in comments, measured on this history).
"""

from collections import Counter

import pytest

from repro.core.document import Document
from repro.core.event_graph import EventGraph
from repro.core.oplog import graph_to_remote_events
from repro.core.order_statistic_tree import TreeSequence
from repro.core.sequence import RecordIndex
from repro.core.walker import EgWalker
from repro.traces.generator import generate_async

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
    assert calls["_locate_handle"] / EVENTS <= 2.5  # 2.0 (a parent, the added span); was 4.0


def test_a_fresh_replay_gives_the_merged_text(history):
    document = Document("work")
    document.apply_remote_events(history)
    assert EgWalker(document.oplog.graph).replay_text() == document.text
