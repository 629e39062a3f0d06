"""Plain-text rendering of benchmark results.

The artifact renders SVG charts; here the same data is printed as aligned
text tables (one per table/figure) so the reproduction can run anywhere and
its output can be diffed, archived (``python -m repro.bench --json``), and
eyeballed next to the paper's reported numbers.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Sequence

__all__ = ["format_table", "format_results", "results_to_json"]


def format_table(rows: Sequence[Mapping[str, object]], title: str = "") -> str:
    """Render a list of row dicts as an aligned text table."""
    if not rows:
        return f"{title}\n  (no data)\n" if title else "  (no data)\n"
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    widths = {col: len(col) for col in columns}
    rendered_rows: list[list[str]] = []
    for row in rows:
        rendered = [_render_cell(row.get(col, "")) for col in columns]
        rendered_rows.append(rendered)
        for col, cell in zip(columns, rendered):
            widths[col] = max(widths[col], len(cell))
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("  ".join("-" * widths[col] for col in columns))
    for rendered in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[col]) for col, cell in zip(columns, rendered)))
    return "\n".join(lines) + "\n"


def _render_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_results(results: Mapping[str, Sequence[Mapping[str, object]]]) -> str:
    """Render the full result dictionary produced by ``run_all``."""
    titles = {
        "table1_trace_stats": "Table 1 — editing trace statistics (measured vs paper)",
        "fig8_merge_and_load_time": "Figure 8 — time to merge a remote trace / reload from disk",
        "fig9_clearing_optimisation": "Figure 9 — Eg-walker with and without the §3.5 optimisations",
        "fig10_memory": "Figure 10 — RAM while merging (peak) and afterwards (steady state)",
        "fig11_file_size_full": "Figure 11 — file size, full editing history retained",
        "fig12_file_size_pruned": "Figure 12 — file size, deleted content omitted",
        "x1_sort_order": "Ablation X1 — sensitivity to the topological-sort order (§4.3)",
        "x2_scaling": "Ablation X2 — two-branch merge scaling (§3.7 complexity claim)",
    }
    sections = []
    for key, rows in results.items():
        title = titles.get(key, key)
        sections.append(format_table(rows, title=f"== {title} =="))
    return "\n".join(sections)


def results_to_json(results: Mapping[str, Sequence[Mapping[str, object]]]) -> str:
    """JSON dump of the results (the analogue of the artifact's results/*.json)."""
    return json.dumps(results, indent=2, sort_keys=True)
