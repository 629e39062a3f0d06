"""Invariant-aware static analysis for this repository.

The replay pipeline carries a stack of invariants that exist nowhere in the
type system: id-based ``Version`` handles are the one snapshot currency,
``EventGraph``'s columns are private to ``event_graph.py``, run-native
modules never loop per character, and ``repro.server`` coroutines must not
read-``await``-write shared state.  Each was violated at least once by an
earlier PR and caught late; this package machine-checks them on every push.

The pieces:

* :mod:`repro.analysis.rules` — rule base class + registry, path scoping;
* :mod:`repro.analysis.checks` — the rule battery (see each module);
* :mod:`repro.analysis.suppressions` — ``# lint: disable=rule -- why``
  comments, each carrying its justification on the offending line;
* :mod:`repro.analysis.driver` / :mod:`~repro.analysis.reporters` /
  :mod:`~repro.analysis.cli` — file walking, filtering, text/JSON output.

Run it as ``python -m repro.analysis src tests`` (exit 1 on any finding that
is not suppressed); ``--list-rules`` documents the battery.
"""

from .driver import AnalysisResult, analyze_source, run_analysis
from .findings import Finding
from .rules import ModuleContext, Rule, all_rules, get_rule, register

__all__ = [
    "AnalysisResult",
    "Finding",
    "ModuleContext",
    "Rule",
    "all_rules",
    "analyze_source",
    "get_rule",
    "register",
    "run_analysis",
]
