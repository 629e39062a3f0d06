"""Invariant tests derived from the strong list specification (Appendix C).

The paper proves Eg-walker correct against Attiya et al.'s *strong list
specification*.  These tests check the checkable consequences of that
specification on concrete replays:

1. the document contains exactly the characters that were inserted and never
   deleted (Definition C.2, requirement 1a);
2. a character inserted by an event appears at the event's index in the
   document obtained by replaying exactly that event's causal history
   (requirement 1c);
3. the relative order of any two surviving characters is the same in every
   replica / replay configuration (the list order ``lo`` is total and
   consistent — requirements 1b and 2).
"""

from __future__ import annotations

import pytest

from repro.core.causal_graph import CausalGraph
from repro.core.topo_sort import sort_branch_aware
from repro.core.walker import EgWalker
from repro.crdt import CrdtDeleteOp, CrdtInsertOp, event_graph_to_crdt_ops


def surviving_characters(graph):
    """Multiset of characters inserted but never deleted, from the event graph."""
    ops = event_graph_to_crdt_ops(graph)
    deleted = {op.target for op in ops if isinstance(op, CrdtDeleteOp)}
    return sorted(
        op.content for op in ops if isinstance(op, CrdtInsertOp) and op.id not in deleted
    )


TRACE_FIXTURES = ["small_sequential_trace", "small_concurrent_trace", "small_async_trace"]


def _replay_char_ids(graph, transformed):
    """Apply transformed ops to a buffer of per-character ids."""
    buffer: list[object] = []
    for entry in transformed:
        event = graph[entry.event_index]
        for op in entry.ops:
            if op.is_insert:
                # The inserted run's characters carry consecutive ids from
                # the run's start (transformed inserts are never split).
                buffer[op.pos : op.pos] = [event.id_at(k) for k in range(op.length)]
            else:
                del buffer[op.pos : op.pos + op.length]
    return buffer


class TestRequirement1a:
    """The document contains exactly the inserted-but-not-deleted characters."""

    @pytest.mark.parametrize("trace_fixture", TRACE_FIXTURES)
    def test_document_characters_match_event_graph(self, trace_fixture, request):
        trace = request.getfixturevalue(trace_fixture)
        text = EgWalker(trace.graph).replay_text()
        assert sorted(text) == surviving_characters(trace.graph)

    def test_figure4_document_characters(self, figure4_graph):
        assert sorted(EgWalker(figure4_graph).replay_text()) == surviving_characters(
            figure4_graph
        )


class TestRequirement1c:
    """An insertion appears at its index in the document of its own context."""

    @pytest.mark.parametrize("trace_fixture", TRACE_FIXTURES)
    def test_insertions_land_at_their_index(self, trace_fixture, request):
        trace = request.getfixturevalue(trace_fixture)
        graph = trace.graph
        walker = EgWalker(graph)
        causal = CausalGraph(graph)
        step = max(1, len(graph) // 25)
        for idx in range(0, len(graph), step):
            event = graph[idx]
            if not event.op.is_insert:
                continue
            subset = causal.ancestors((idx,))
            doc_at_event = walker.replay_text(subset)
            end = event.op.pos + event.op.length
            assert doc_at_event[event.op.pos : end] == event.op.content

    def test_figure2_insertions(self, figure2_graph):
        walker = EgWalker(figure2_graph)
        causal = CausalGraph(figure2_graph)
        for idx in range(len(figure2_graph)):
            event = figure2_graph[idx]
            doc_at_event = walker.replay_text(causal.ancestors((idx,)))
            assert doc_at_event[event.op.pos] == event.op.content


class TestListOrderConsistency:
    """Requirement 1b/2: pairs of surviving characters keep one global order."""

    def _character_order(self, graph, clearing):
        """Map each surviving character's id to its document index."""
        order = sort_branch_aware(graph, range(len(graph)))
        result = EgWalker(graph).transform(order, clearing=clearing)
        # Replay the transformed ops over a buffer of character ids to learn
        # where each inserted character ended up (and which ones survived).
        return _replay_char_ids(graph, result.transformed)

    @pytest.mark.parametrize("trace_fixture", TRACE_FIXTURES)
    def test_all_configurations_produce_the_same_list_order(self, trace_fixture, request):
        trace = request.getfixturevalue(trace_fixture)
        orders = {
            tuple(self._character_order(trace.graph, clearing))
            for clearing in (True, False)
        }
        assert len(orders) == 1

    @pytest.mark.parametrize("trace_fixture", TRACE_FIXTURES)
    def test_list_order_matches_version_documents(self, trace_fixture, request):
        """The final order restricted to an old version's characters matches
        the order seen at that version (prefix-consistency of the list order)."""
        trace = request.getfixturevalue(trace_fixture)
        graph = trace.graph
        final_order = self._character_order(graph, True)
        final_positions = {event_id: i for i, event_id in enumerate(final_order)}
        walker = EgWalker(graph)
        causal = CausalGraph(graph)
        # Pick a few historical versions and check the relative order of the
        # characters that survive to the end.
        for idx in range(0, len(graph), max(1, len(graph) // 10)):
            subset = causal.ancestors((idx,))
            partial = EgWalker(graph).transform(
                sort_branch_aware(graph, subset), clearing=False
            )
            buffer = _replay_char_ids(graph, partial.transformed)
            survivors = [event_id for event_id in buffer if event_id in final_positions]
            positions = [final_positions[event_id] for event_id in survivors]
            assert positions == sorted(positions)
