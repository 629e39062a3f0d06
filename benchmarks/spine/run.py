#!/usr/bin/env python3
"""The measurement spine: one command, two workloads, every metric by name.

    python3 benchmarks/spine/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/spine/run.py [--workload all] [--trace] [--runs N] [--out FILE]
    python3 benchmarks/spine/run.py compare A.json B.json

With one workload the last line of standard output is the result object the
driver reads: ``correct``, ``attempted``, ``failed`` and ``metrics`` — every
end-to-end metric of ``BENCHMARK.json`` for ``--trace 0``, every per-layer
metric for ``--trace 1``.  ``--workload all`` runs both in turn and prints
one table; ``--out`` keeps every run's values, which is what ``compare`` reads.
The exit code is non-zero when any operation failed.

``run.py serve`` is the benchmark's own server launcher (used by the live
stage, never by hand).
"""

from __future__ import annotations

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_CHECKOUT = os.path.abspath(os.path.join(_HERE, os.pardir, os.pardir))
_SRC = os.path.join(_CHECKOUT, "src")
if not os.path.isdir(os.path.join(_SRC, "repro")):
    sys.exit(f"spine: no program to measure: {_SRC}/repro is missing")
# The checkout's own sources first (never an installed copy), then the
# directory that makes ``spine`` importable as a package.
sys.path[:0] = [_SRC, os.path.dirname(_HERE)]

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402

from spine import metrics as spine_metrics  # noqa: E402
from spine import stages  # noqa: E402
from spine.report import (  # noqa: E402
    compare_files,
    environment,
    load_manifest,
    print_table,
    summarise,
)
from spine.trace import tracing  # noqa: E402
from spine.workloads import LIVE_RATE, WORKLOADS, Inputs, Workload, build_inputs  # noqa: E402

#: Set-up is repeated so that ``setup_s`` is a median, not a single sample.
SETUPS = 3
#: The smallest time budget the closed loops get, whatever ``--seconds`` says.
MIN_LOOPS_S = 0.3


def measure(workload: Workload, size: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload: set-up, the four stages, the metrics.

    Returns ``{"metrics": {name: summary}, "attempted", "failed", "sha256",
    "sizes"}``.  An untraced run yields the end-to-end metrics; a traced run
    yields the per-layer metrics, each stage measured once without and once
    with the wrappers so that the tracing overhead is itself a number.
    """
    setup_s = []
    for _ in range(SETUPS):
        started = time.perf_counter()
        inputs = build_inputs(workload, size, seed)
        setup_s.append(time.perf_counter() - started)
    if inputs.source.text != inputs.oracle_text:
        raise AssertionError(f"{workload.name}: run-native merge disagrees with the oracle")
    # Set-up leaves a large heap behind (graphs, oracles).  Freezing it keeps
    # the collector's passes over *those* objects out of the timed stages; the
    # system's own allocations are collected as usual.
    gc.collect()
    gc.freeze()
    try:
        # The live stage sends its history at a fixed rate, so its length is
        # the workload's; the closed loops get what is left of ``--seconds``.
        loops_s = max(MIN_LOOPS_S, seconds - len(inputs.frames) / LIVE_RATE)
        run = _run_traced(inputs, loops_s) if trace else _run_untraced(inputs, setup_s, loops_s)
    finally:
        gc.unfreeze()
    every = run.pop("results")
    run.update(
        attempted=sum(r.attempted for r in every),
        failed=sum(r.failed for r in every),
        sha256=inputs.sha256,
        sizes=inputs.sizes(),
    )
    return run


#: The in-process closed loops.
LOOPS = (
    ("room", stages.room_stage),
    ("merge", stages.merge_stage),
    ("open", stages.open_stage),
)


def _run_untraced(inputs: Inputs, setup_s: list[float], loops_s: float) -> dict:
    """The live stage, then all four closed loops interleaved (the recoveries
    of what the killed server left are the fourth)."""
    with stages.live_stage(inputs) as live:
        loops = {name: make(inputs) for name, make in LOOPS}
        stages.run_rounds([live.operation] + [s.operation for s in loops.values()], loops_s)
        for stage in loops.values():
            stage.finish()
    results = {"live": live.result, **{name: s.result for name, s in loops.items()}}
    return {"metrics": spine_metrics.end_to_end(results, setup_s), "results": list(results.values())}


def _run_traced(inputs: Inputs, loops_s: float) -> dict:
    """Every stage once without and once with the wrappers, a third and two
    thirds of its share of the time; the stages run one after the other so
    that each has a span table of its own."""
    share = loops_s / 4
    plain: dict[str, stages.StageResult] = {}
    traced: dict[str, stages.StageResult] = {}
    summaries: dict[str, dict] = {}
    for results, wrapped, part in ((plain, False, share / 3), (traced, True, share * 2 / 3)):
        with stages.live_stage(inputs, traced=wrapped) as live:
            stages.run_rounds([live.operation], part)
        results["live"] = live.result
    summaries["live"] = traced["live"].stats["server"]
    for name, make in LOOPS:
        stage = make(inputs)
        stages.run_rounds([stage.operation], share / 3)
        stage.finish()
        plain[name] = stage.result
        with tracing() as rec:
            stage = make(inputs, rec)
            stages.run_rounds([stage.operation], share * 2 / 3)
        traced[name] = stage.result
        summaries[name] = rec.summary()
    return {
        "metrics": spine_metrics.per_layer(inputs, plain, traced, summaries),
        "results": [*plain.values(), *traced.values()],
    }


def _contract_line(run: dict, units: dict[str, str]) -> str:
    return json.dumps(
        {
            "correct": run["failed"] == 0,
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": {
                name: {"value": summary["value"], "unit": units[name]}
                for name, summary in run["metrics"].items()
            },
        }
    )


def main(argv: list[str]) -> int:
    if argv and argv[0] == "serve":
        from spine.server_launcher import main as serve

        serve(argv[1:])
        return 0
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            sys.exit("usage: run.py compare A.json B.json")
        return compare_files(argv[1], argv[2], load_manifest(_CHECKOUT))

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    names = [w.name for w in WORKLOADS]
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="run length (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--runs", type=int, default=1, help="repeat the whole measurement this often")
    parser.add_argument("--out", default=None, help="write every run's values as JSON")
    args = parser.parse_args(argv)

    manifest = load_manifest(_CHECKOUT)
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    spine_metrics.check_declared(manifest)
    seconds = args.seconds if args.seconds is not None else float(manifest["run_seconds"])
    chosen = [w for w in WORKLOADS if args.workload in ("all", w.name)]
    kinds = [False] if not args.trace else ([True] if args.workload != "all" else [False, True])

    report: dict = {"env": environment(_CHECKOUT, args.seed, args.size, seconds), "workloads": {}}
    attempted = failed = 0
    last_run: dict = {}
    for run_index in range(max(1, args.runs)):
        for workload in chosen:
            entry = report["workloads"].setdefault(workload.name, {"runs": []})
            for trace in kinds:
                run = measure(workload, args.size, args.seed, seconds, trace)
                attempted += run["attempted"]
                failed += run["failed"]
                entry["workload_sha256"] = run["sha256"]
                entry["sizes"] = run["sizes"]
                entry["runs"].append(
                    {"trace": int(trace), "attempted": run["attempted"], "failed": run["failed"], "metrics": run["metrics"]}
                )
                print_table(workload.name, run, units, trace, run_index)
                last_run = run
    summarise(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
    if args.workload != "all":
        print(_contract_line(last_run, units))
    else:
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
