"""Rule modules; importing this package registers every rule.

Each module guards one (or a family of) load-bearing invariant(s) of the
codebase — see ``docs/architecture.md`` ("Invariants & static analysis") for
the rule-by-rule rationale.
"""

from . import async_races, columns, hot_path, hygiene

__all__ = ["async_races", "columns", "hot_path", "hygiene"]
