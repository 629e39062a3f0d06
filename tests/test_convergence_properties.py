"""Property-based tests: convergence of random collaborative editing sessions.

These are the randomised tests the paper mentions in §4 ("We also performed
randomised property testing on the implementations, including checking that
our implementations converge to the same result"): hypothesis generates random
multi-replica editing sessions (edits interleaved with merges), and every
algorithm configuration must agree on the final document.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from repro.core.document import Document
from repro.core.topo_sort import sort_branch_aware
from repro.core.walker import EgWalker
from repro.crdt import SimpleListCRDT, event_graph_to_crdt_ops
from repro.ot import replay_ot

ALPHABET = "abcdefgh "


@dataclass(frozen=True)
class Edit:
    """One scripted action in a random session."""

    replica: int
    kind: str  # "insert", "delete" or "merge"
    position_seed: int
    char: str
    other: int


edit_strategy = st.builds(
    Edit,
    replica=st.integers(min_value=0, max_value=2),
    kind=st.sampled_from(["insert", "insert", "insert", "delete", "merge"]),
    position_seed=st.integers(min_value=0, max_value=10_000),
    char=st.sampled_from(ALPHABET),
    other=st.integers(min_value=0, max_value=2),
)


def run_session(script: list[Edit], num_replicas: int = 3) -> list[Document]:
    docs = [Document(f"user{i}") for i in range(num_replicas)]
    for step in script:
        doc = docs[step.replica % num_replicas]
        if step.kind == "insert":
            pos = step.position_seed % (len(doc.text) + 1)
            doc.insert(pos, step.char)
        elif step.kind == "delete":
            if len(doc.text) == 0:
                continue
            pos = step.position_seed % len(doc.text)
            doc.delete(pos)
        else:
            other = docs[step.other % num_replicas]
            if other is not doc:
                doc.merge(other)
    return docs


@given(st.lists(edit_strategy, min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_replicas_converge_after_full_exchange(script):
    """Strong eventual consistency: replicas with the same events agree (§2.1)."""
    docs = run_session(script)
    # Exchange everything, twice, so every replica has every event.
    for _ in range(2):
        for doc in docs:
            for other in docs:
                if doc is not other:
                    doc.merge(other)
    texts = {doc.text for doc in docs}
    assert len(texts) == 1


@given(st.lists(edit_strategy, min_size=1, max_size=50))
@settings(max_examples=40, deadline=None)
def test_every_walker_configuration_agrees(script):
    """The optimisations (§3.4–3.6) never change the result, only the cost."""
    docs = run_session(script)
    for doc in docs:
        for other in docs:
            if doc is not other:
                doc.merge(other)
    graph = docs[0].oplog.graph
    order = sort_branch_aware(graph, range(len(graph)))
    texts = {
        EgWalker(graph).transform(order, clearing=clearing).text()
        for clearing in (True, False)
    }
    assert len(texts) == 1
    assert texts.pop() == docs[0].text


@given(st.lists(edit_strategy, min_size=1, max_size=40))
@settings(max_examples=30, deadline=None)
def test_walker_agrees_with_independent_crdt(script):
    """Differential test against the independent list CRDT (§2.5 construction)."""
    docs = run_session(script)
    for doc in docs:
        for other in docs:
            if doc is not other:
                doc.merge(other)
    graph = docs[0].oplog.graph
    ops = event_graph_to_crdt_ops(graph)
    replica = SimpleListCRDT("oracle")
    replica.apply_all(ops)
    assert replica.text() == docs[0].text


@given(st.lists(edit_strategy, min_size=1, max_size=40))
@settings(max_examples=30, deadline=None)
def test_ot_produces_a_document_of_the_same_shape(script):
    """OT interprets the same event graph into a document of the same length.

    OT may order concurrent insertion runs differently from Eg-walker, and a
    deletion whose index falls inside such a run can then target a different
    character, so character-for-character equality is not required — but no
    characters may be lost or duplicated overall.
    """
    docs = run_session(script)
    for doc in docs:
        for other in docs:
            if doc is not other:
                doc.merge(other)
    graph = docs[0].oplog.graph
    ot_text = replay_ot(graph).text
    assert len(ot_text) == len(docs[0].text)


@given(st.lists(edit_strategy, min_size=1, max_size=40), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_merge_is_idempotent_and_commutative(script, extra_seed):
    """Merging the same events repeatedly, or in a different order, changes nothing."""
    docs_a = run_session(script)
    docs_b = run_session(script)
    # docs_a merges in one order, docs_b in the reverse order.
    for doc in docs_a:
        for other in docs_a:
            if doc is not other:
                doc.merge(other)
                doc.merge(other)  # idempotent
    for doc in reversed(docs_b):
        for other in reversed(docs_b):
            if doc is not other:
                doc.merge(other)
    final_a = {doc.text for doc in docs_a}
    final_b = {doc.text for doc in docs_b}
    assert final_a == final_b
    assert len(final_a) == 1
