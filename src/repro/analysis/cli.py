"""Command-line interface: ``python -m repro.analysis [paths ...]``.

Exit status is 0 when every finding is suppressed, 1 when actionable
findings remain (or a file failed to parse), 2 on usage errors —
so the CI job gates directly on the exit code.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .driver import run_analysis
from .reporters import render_json, render_text
from .rules import all_rules

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Run the repo's invariant-aware lint rules.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule names to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule names to skip",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also list suppressed findings (text format)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule battery and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    rules = all_rules()
    if args.list_rules:
        for rule in rules:
            scope = ", ".join(rule.include) if rule.include else "all files"
            print(f"{rule.name}  [{scope}]")
            print(f"    {rule.description}")
        return 0

    if args.select:
        wanted = {name.strip() for name in args.select.split(",") if name.strip()}
        unknown = wanted - {rule.name for rule in rules}
        if unknown:
            print(f"unknown rule(s): {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
        rules = [rule for rule in rules if rule.name in wanted]
    if args.ignore:
        dropped = {name.strip() for name in args.ignore.split(",") if name.strip()}
        rules = [rule for rule in rules if rule.name not in dropped]

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"no such path(s): {', '.join(str(p) for p in missing)}", file=sys.stderr
        )
        return 2

    result = run_analysis(paths, rules=rules)

    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return 0 if result.ok else 1
