"""The one full replay: every way of turning a whole graph into text is the
merge engine's history replay from the root (paper §3.5–3.6).

``Document(graph=…, text=None)``, :attr:`LazyDecodedFile.text` on a file
without a snapshot column and the benchmarks' Eg-walker adapter all call
:meth:`MergeEngine.history_ops` from the root: it reads the §3.5 critical
run verbatim and replays the rest through the walker with clearing.
``Trace.final_text`` stays the walker's own reference replay, so the text
checks below compare the engine with an independent replay.  These are
structural gates on counters and listener lists, never timings.
"""

from __future__ import annotations

import pytest

from repro.bench.adapters import EgWalkerAdapter
from repro.core.document import Document
from repro.core.merge_engine import MergeEngine
from repro.core.walker import EgWalker
from repro.storage import LazyDecodedFile, decode_file, encode_event_graph_v3
from repro.traces.datasets import TRACE_NAMES, get_trace


@pytest.mark.parametrize("name", TRACE_NAMES)
def test_one_text_for_a_snapshot_less_file(name):
    """Adoption, a snapshot-less file read, the bench adapter and the
    reference replay agree on every trace, and none of them keeps state —
    in particular, a graph the replay does not own (``trace.graph``) keeps
    its listener list."""
    trace = get_trace(name)
    data = encode_event_graph_v3(trace.graph)  # no snapshot column
    listeners = list(trace.graph._listeners)

    document = Document("reader", graph=decode_file(data).graph, text=None)
    reader = LazyDecodedFile(data)
    assert not reader.has_snapshot
    outcome = EgWalkerAdapter().merge(trace)

    assert document.text == reader.text == outcome.text == trace.final_text
    assert not document.engine.has_resident_state
    assert document.merge_stats.merges == 0
    # The reader replayed its own graph without attaching an engine to it
    # or building a history.
    assert reader.graph._listeners == [] and reader._history is None
    assert outcome.retained == outcome.text
    assert trace.graph._listeners == listeners


@pytest.mark.parametrize("name", ["S1", "S2", "S3"])
def test_a_sequential_full_replay_reads_every_event_verbatim(name, monkeypatch):
    """On a sequential trace the full replay is one §3.5 critical run: every
    event applies verbatim and the walker is never called."""
    trace = get_trace(name)
    expected = trace.final_text

    def transform(*args, **kwargs):
        raise AssertionError("the full replay of a sequential trace called the walker")

    monkeypatch.setattr(EgWalker, "transform", transform)
    engine = MergeEngine.replay(trace.graph)
    assert engine.stats.history_fast_path_events == len(trace.graph)
    assert engine.stats.history_replays == 0
    assert engine.walker.last_stats is None
    assert str(engine.rope) == expected
