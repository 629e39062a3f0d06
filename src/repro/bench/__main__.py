"""Run the full evaluation and print every table / figure.

Usage::

    python -m repro.bench                  # run everything at the default scale
    REPRO_TRACE_SCALE=0.2 python -m repro.bench   # quicker, smaller traces
    python -m repro.bench --json results.json     # also dump machine-readable results
    python -m repro.bench --experiments fig8,fig10

This is the reproduction's equivalent of the artifact's benchmark scripts plus
``collect.js``: it regenerates the data behind Table 1 and Figures 8–12, the
sort-order remark of §4.3 and the complexity claim of §3.7.
"""

from __future__ import annotations

import argparse
import sys

from ..traces.datasets import default_scale, load_all_traces
from .harness import EXPERIMENTS
from .report import format_results, results_to_json


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench", description=__doc__)
    parser.add_argument(
        "--experiments",
        default="all",
        help="comma-separated subset of: " + ", ".join(EXPERIMENTS) + " (default: all)",
    )
    parser.add_argument("--json", metavar="PATH", help="also write results as JSON")
    args = parser.parse_args(argv)

    if args.experiments == "all":
        selected = list(EXPERIMENTS)
    else:
        selected = [name.strip() for name in args.experiments.split(",") if name.strip()]
        unknown = [name for name in selected if name not in EXPERIMENTS]
        if unknown:
            parser.error(f"unknown experiments: {', '.join(unknown)}")

    print(f"Generating benchmark traces (scale factor {default_scale()}) ...", flush=True)
    traces = load_all_traces()
    for trace in traces.values():
        print("  " + trace.summary_line(), flush=True)

    results = {}
    for name in selected:
        key, runner = EXPERIMENTS[name]
        print(f"Running {name} ...", flush=True)
        results[key] = runner(traces)

    print()
    print(format_results(results))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(results_to_json(results))
        print(f"JSON results written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
