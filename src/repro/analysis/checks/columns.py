"""Rule: ``EventGraph``'s private columns are touched only by ``event_graph.py``.

The graph stores events as handle-indexed parallel columns (``_h_id``,
``_h_op``, ``_h_parent``, ``_order``, ``_labels``, ...) plus the side maps
of multi-parent / multi-child events.  The whole point of the handle
refactor (PR 6) is that *every* consumer goes through the handle APIs
(``handle_at`` / ``index_of_handle`` / ``order_key`` / the ``Event`` views),
so splits can re-label and re-spread without breaking anyone.  A module that
reaches into a column directly re-creates exactly the stale-index bugs the
refactor removed — and does so silently, because the columns are plain
lists, arrays and dicts.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..findings import Finding
from ..rules import ModuleContext, Rule, register

#: The ``_h_*`` column family (one entry per handle).
_HANDLE_COLUMN = re.compile(r"^_h_[a-z]+$")

#: Order/aggregate columns: flagged only on a graph-like receiver, because
#: names like ``_order`` are plausible private state in unrelated classes.
_ORDER_COLUMNS = {
    "_order",
    "_labels",
    "_frontier",
    "_cum_inserts",
    "_agent_index",
    "_more_parents",
    "_more_children",
    "_next_seq",
}


def _is_graph_receiver(node: ast.expr) -> bool:
    """Does the receiver expression look like it names an event graph?"""
    if isinstance(node, ast.Name):
        return "graph" in node.id.lower()
    if isinstance(node, ast.Attribute):
        return "graph" in node.attr.lower()
    return False


@register
class ColumnEncapsulationRule(Rule):
    name = "column-encapsulation"
    description = (
        "EventGraph's private column arrays may only be touched through the "
        "handle APIs; direct access outside event_graph.py re-creates "
        "stale-index bugs"
    )
    exclude = ("repro/core/event_graph.py",)

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            receiver = node.value
            is_self = isinstance(receiver, ast.Name) and receiver.id == "self"
            if _HANDLE_COLUMN.match(node.attr):
                # The _h_ prefix is unique to the graph's columns; any
                # non-self receiver is a violation (self covers unrelated
                # classes that happen to reuse the prefix for their own state).
                if not is_self:
                    yield self.finding(
                        module,
                        node,
                        f"direct access to EventGraph column {node.attr!r}; go "
                        "through Event views / handle_at / index_of_handle",
                    )
            elif node.attr in _ORDER_COLUMNS and _is_graph_receiver(receiver):
                yield self.finding(
                    module,
                    node,
                    f"direct access to EventGraph private state {node.attr!r}; "
                    "use the public accessors (events(), frontier, locate(), "
                    "next_seq_for(), inserted_chars_through())",
                )
