"""Rule base class, the rule registry, and the per-module context.

A rule is an AST-level check with a registry name, a one-line description,
and an optional *path scope*: ``include`` fragments restrict the rule to
files whose posix path contains one of them (empty means every file), and
``exclude`` fragments carve out files where the pattern is the implementation
itself (e.g. the event graph's private columns are defined — and therefore
touched — in ``core/event_graph.py``).  Scoping by path *fragment* keeps the match working
whether the tree is scanned as ``src/``, ``./src`` or an absolute path.

Rules yield :class:`~repro.analysis.findings.Finding` objects from
:meth:`Rule.check`; the driver applies suppression comments afterwards, so
rules themselves stay oblivious to them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from .findings import Finding

__all__ = ["ModuleContext", "Rule", "register", "all_rules", "get_rule"]


@dataclass(slots=True)
class ModuleContext:
    """Everything a rule may look at for one file."""

    path: str  # posix-style, as reported in findings
    source: str
    tree: ast.Module
    lines: list[str]  # source split into lines (1-based access via line_at)

    def line_at(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


class Rule:
    """Base class for all checks.  Subclasses are registered by decorator."""

    name: str = ""
    description: str = ""
    #: Path fragments this rule is restricted to (empty: every file).
    include: tuple[str, ...] = ()
    #: Path fragments where this rule never fires (the rule's own home).
    exclude: tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        if any(fragment in path for fragment in self.exclude):
            return False
        if not self.include:
            return True
        return any(fragment in path for fragment in self.include)

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def finding(self, module: ModuleContext, node: ast.AST, message: str) -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=self.name,
            path=module.path,
            line=lineno,
            col=col,
            message=message,
            snippet=module.line_at(lineno),
        )


_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding one instance of the rule to the registry."""
    if not cls.name:
        raise ValueError(f"rule {cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate rule name {cls.name!r}")
    _REGISTRY[cls.name] = cls()
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by name (imports the rule modules)."""
    from . import checks  # noqa: F401  (registration side effect)

    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get_rule(name: str) -> Rule:
    from . import checks  # noqa: F401

    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown rule {name!r}; known: {', '.join(sorted(_REGISTRY))}"
        ) from None
