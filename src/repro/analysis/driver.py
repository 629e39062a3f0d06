"""The analysis driver: walk files, run rules, apply suppressions.

The driver is the one place that knows about the two filtering layers:

1. rule path scoping (``Rule.applies_to``),
2. per-line suppression comments (``# lint: disable=rule -- why``).

``analyze_source`` is the unit-test entry point (lint a string under an
arbitrary virtual path, so fixture snippets can exercise path-scoped rules);
``run_analysis`` is what the CLI and the meta-test use.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .findings import Finding
from .rules import ModuleContext, Rule, all_rules
from .suppressions import collect_suppressions

__all__ = ["AnalysisResult", "analyze_source", "iter_python_files", "run_analysis"]

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", ".benchmarks"}


@dataclass(slots=True)
class AnalysisResult:
    """Outcome of one analysis run."""

    findings: list[Finding] = field(default_factory=list)  # actionable
    suppressed: list[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def extend(self, other: "AnalysisResult") -> None:
        self.findings.extend(other.findings)
        self.suppressed.extend(other.suppressed)
        self.files_checked += other.files_checked


def _posix(path: Path | str) -> str:
    return str(path).replace("\\", "/")


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into the ordered list of ``.py`` files."""
    for path in paths:
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in sub.parts):
                    yield sub
        elif path.suffix == ".py":
            yield path


def analyze_source(
    source: str,
    path: str,
    rules: Iterable[Rule] | None = None,
) -> AnalysisResult:
    """Lint one source string as if it lived at ``path``.

    Raises:
        SyntaxError: if ``source`` does not parse; the caller decides how a
            broken file is reported (the CLI turns it into an error exit).
    """
    result = AnalysisResult(files_checked=1)
    tree = ast.parse(source, filename=path)
    module = ModuleContext(
        path=_posix(path),
        source=source,
        tree=tree,
        lines=source.splitlines(),
    )
    suppressions = collect_suppressions(source)
    for rule in rules if rules is not None else all_rules():
        if not rule.applies_to(module.path):
            continue
        for finding in rule.check(module):
            if suppressions.covers(finding.line, finding.rule):
                result.suppressed.append(finding)
            else:
                result.findings.append(finding)
    return result


def run_analysis(
    paths: Sequence[Path],
    rules: Iterable[Rule] | None = None,
) -> AnalysisResult:
    """Lint every python file under ``paths``; see :class:`AnalysisResult`.

    Files that fail to parse surface as a ``parse-error`` finding (never
    suppressed — a broken file must fail the gate loudly).
    """
    rule_list = list(rules) if rules is not None else all_rules()
    total = AnalysisResult()
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        try:
            result = analyze_source(source, _posix(file_path), rule_list)
        except SyntaxError as exc:
            total.findings.append(
                Finding(
                    rule="parse-error",
                    path=_posix(file_path),
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            total.files_checked += 1
            continue
        total.extend(result)
    return total
