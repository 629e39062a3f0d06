"""Memory gates for the event graph's resident layout.  No timing.

A replica at rest should hold roughly its text plus a compact event graph
(the paper's "Smaller"): only the columns it cannot derive — 32-bit handle
columns, no order column before the first split, the critical cuts as runs —
the caller's ``EventId``/``Operation`` objects referenced rather than
copied, and no per-event Python objects of the graph's own.  The inputs are built outside
``tracemalloc``; what is counted is every allocation made under an
``EventGraph`` frame (its columns, side maps and range maps, plus what its
listeners keep per event) that is still alive after a collection.

The bound sits between what the layout costs now and what the earlier
layouts cost (in comments, measured on these histories with CPython 3.11;
CPython 3.12's object sizes differ by a few bytes, well inside the
headroom).  :func:`test_the_layout_keeps_only_what_it_cannot_derive` pins
the layout itself.
"""

import gc
import tracemalloc
from array import array

import pytest

from repro.core import critical_versions
from repro.core.document import Document
from repro.core.event_graph import Event, EventGraph
from repro.core.ids import EventId, delete_op, insert_op
from repro.core.oplog import graph_to_remote_events
from repro.storage.container import ContainerOptions, encode_event_graph_v3
from repro.traces.generator import generate_async, generate_sequential

N = 500

#: Graph-resident bytes per run event: ≈ 47–64 now; ≈ 75–93 with 64-bit
#: handle columns, an identity order column, a cumulative-insert column and
#: one tracker entry per critical cut; ≈ 480–515 (merged) and ≈ 400–450
#: (``from_columns``) with per-event views, children lists, parent tuples and
#: boxed-int columns.
BYTES_PER_RUN_EVENT = 80

_UNDER_GRAPH = tracemalloc.Filter(True, "*repro/core/event_graph.py", all_frames=True)


def _graph_resident_bytes(build):
    """``build()`` under tracemalloc: the result and its graph-resident bytes."""
    gc.collect()
    tracemalloc.start(8)
    try:
        built = build()
        gc.collect()
        snapshot = tracemalloc.take_snapshot().filter_traces([_UNDER_GRAPH])
    finally:
        tracemalloc.stop()
    return built, sum(stat.size for stat in snapshot.statistics("filename"))


def _merged(events):
    document = Document("footprint")
    document.apply_remote_events(events)
    return document


@pytest.fixture(scope="module", params=["sequential", "async"])
def history(request):
    """A seeded history of at least ``2 N`` run events (its prefixes are
    causally closed, so any prefix is a valid history)."""
    if request.param == "sequential":
        graph = generate_sequential("footprint-seq", target_events=17000, authors=3, seed=11).graph
    else:
        graph = generate_async(
            "footprint-async", target_events=18000, seed=12, concurrent_branches=6,
            events_per_branch=300,
        ).graph
    assert len(graph) >= 2 * N
    return graph


def test_merged_graph_bytes_per_run_event_and_linear_growth(history):
    resident = {}
    for n in (N, 2 * N):
        events = graph_to_remote_events(history, range(n))
        document, resident[n] = _graph_resident_bytes(lambda: _merged(events))
        assert len(document.oplog.graph) == n
        assert resident[n] / n < BYTES_PER_RUN_EVENT
    assert 1.8 <= resident[2 * N] / resident[N] <= 2.2


def test_bulk_built_graph_bytes_per_run_event(history):
    for n in (N, 2 * N):
        columns = history.to_columns(range(n))
        graph, resident = _graph_resident_bytes(lambda: EventGraph.from_columns(*columns))
        assert len(graph) == n
        assert resident / n < BYTES_PER_RUN_EVENT


def test_no_event_view_outlives_a_merge(history):
    events = graph_to_remote_events(history, range(N))

    def views() -> int:
        gc.collect()
        return sum(isinstance(obj, Event) for obj in gc.get_objects())

    before = views()
    document = _merged(events)
    assert views() == before
    assert len(document.oplog.graph) == N


def test_views_are_values_that_read_live():
    graph = EventGraph()
    graph.add_event(EventId("a", 0), (), insert_op(0, "abcdef"))
    graph.add_event(EventId("b", 0), [EventId("a", 5)], delete_op(0, 2))
    first, again = graph[0], graph.events()[0]
    assert first is not again and first == again and hash(first) == hash(again)
    assert first != graph[1] and len({first, again, graph[1]}) == 2
    assert first != EventGraph.from_columns(*graph.to_columns())[0]  # another graph

    right = graph.split_event(0, 4)
    assert graph[0] == first and first.op.content == "abcd" and first.num_chars == 4
    assert right == graph[1] and right.index == 1 and right.parents == (0,)
    assert graph[2].parents == (1,) and first.end_seq == 4

    extended = graph.extend_event(2, delete_op(0, 1))
    assert extended == graph[2] and hash(extended) == hash(graph[2])
    assert extended.op.length == 3 and extended.end_seq == 3


def test_the_layout_keeps_only_what_it_cannot_derive(history):
    """Handle columns are 32-bit and run lengths and labels 64-bit; the
    order columns stay empty until the first split; a linear history's
    critical cuts are one run, on a merge, after a split, and on an open."""
    document = _merged(graph_to_remote_events(history, range(N)))
    graph, tracker = document.oplog.graph, document.engine.tracker
    columns = {name: col for name, col in vars(graph).items() if isinstance(col, array)}
    assert {name: col.typecode for name, col in columns.items()} == {
        "_h_len": "q", "_h_parent": "i", "_h_child": "i",
        "_order": "i", "_h_label": "q", "_labels": "q",
    }
    assert {name for name, col in columns.items() if not col} == {"_order", "_h_label", "_labels"}
    for index in vars(graph)["_agent_index"].values():
        assert index._values.typecode == "i"
    linear = graph.is_linear()
    assert linear == history.is_linear()
    if linear:
        assert tracker.runs() == [(0, N - 1)]
    else:
        assert 1 < len(tracker.runs()) < N

    split_at = next(i for i in range(N) if graph.op_of(i).length > 1)
    graph.split_event(split_at, 1)
    assert list(map(len, (columns["_h_len"], vars(graph)["_order"]))) == [N + 1] * 2
    if linear:
        assert tracker.runs() == [(0, N)]
    assert tracker.cuts() == list(critical_versions.critical_cut_positions(graph, range(N + 1)))


def test_opening_a_linear_history_makes_one_run_without_a_cut_pass(monkeypatch):
    graph = generate_sequential("footprint-open", target_events=600, authors=3, seed=13).graph
    assert graph.is_linear()
    saved = _merged(graph_to_remote_events(graph))
    data = encode_event_graph_v3(
        saved.oplog.graph, ContainerOptions(include_snapshot=True, final_text=saved.text)
    )

    def no_pass(*args):
        raise AssertionError("a linear history needs no critical-cut pass")

    monkeypatch.setattr(critical_versions, "critical_cut_positions", no_pass)
    opened = Document.from_bytes(data, "footprint-open")
    assert opened.engine.tracker.runs() == [(0, len(graph) - 1)]
