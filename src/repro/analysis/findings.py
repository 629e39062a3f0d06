"""Finding: one rule violation at one source location."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Finding"]


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation.

    Attributes:
        rule: registry name of the rule that fired (kebab-case).
        path: posix-style path of the file, as given to the driver.
        line: 1-based line number of the violation.
        col: 0-based column offset.
        message: human-readable explanation, including the invariant guarded.
        snippet: the offending source line, stripped.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = field(default="", compare=False)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }
