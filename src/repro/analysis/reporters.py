"""Text and JSON rendering of an :class:`~repro.analysis.driver.AnalysisResult`."""

from __future__ import annotations

import json

from .driver import AnalysisResult

__all__ = ["render_text", "render_json"]


def render_text(result: AnalysisResult, verbose: bool = False) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines: list[str] = []
    for finding in sorted(result.findings, key=lambda f: (f.path, f.line, f.rule)):
        lines.append(finding.render())
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    if verbose:
        for finding in sorted(result.suppressed, key=lambda f: (f.path, f.line)):
            lines.append(f"[suppressed] {finding.render()}")
    lines.append(
        f"{result.files_checked} files checked: {len(result.findings)} finding(s), "
        f"{len(result.suppressed)} suppressed"
    )
    return "\n".join(lines)


def render_json(result: AnalysisResult) -> str:
    """Machine-readable report (stable keys; consumed by tooling/CI)."""
    payload = {
        "ok": result.ok,
        "files_checked": result.files_checked,
        "findings": [f.as_dict() for f in result.findings],
        "suppressed": [f.as_dict() for f in result.suppressed],
    }
    return json.dumps(payload, indent=2)
