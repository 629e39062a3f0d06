"""Output: the environment block, the metric table, and the comparator.

``compare`` is noise-aware: a difference only counts when it exceeds the bound
``BENCHMARK.json`` fixes for the metric, and a metric whose run-to-run spread is
wider than its bound is reported as *unresolved* rather than as unchanged.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Any

__all__ = ["environment", "load_manifest", "print_table", "summarise", "compare_files"]


def load_manifest(checkout: str) -> dict[str, Any]:
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _commit(checkout: str) -> str:
    if not os.path.exists(os.path.join(checkout, ".git")):
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", checkout, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment(checkout: str, seed: int, size: str, seconds: float) -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": _commit(checkout),
        "seed": seed,
        "size": size,
        "seconds": seconds,
    }


def print_table(workload: str, run: dict, units: dict[str, str], trace: bool, run_index: int) -> None:
    kind = "traced, per layer" if trace else "untraced, end to end"
    sizes = " ".join(f"{k}={v}" for k, v in run["sizes"].items())
    print(f"== {workload} (run {run_index + 1}; {kind}) {sizes} sha256={run['sha256'][:12]}")
    for name, s in run["metrics"].items():
        spread = f"  n={s['n']} q1={s['q1']:.6g} q3={s['q3']:.6g}" if s["n"] > 1 else ""
        print(f"  {name:<46} {s['value']:>14.6g} {units[name]:<9}{spread}")
    failed_frac = run["failed"] / run["attempted"]
    print(f"  {'failed_frac':<46} {failed_frac:>14.6g} {'':<9}  ({run['failed']} of {run['attempted']} operations)")
    lag = run["metrics"].get("loadgen.live.lag_p99_ms")
    if lag is not None and lag["value"] > 5.0:
        print("  WARNING: generator-bound — the load generator sent more than 5 ms late (p99); "
              "the live numbers describe the generator, not the server", file=sys.stderr)
    sys.stdout.flush()


def _across_runs(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "runs": 1}
    # Inclusive quartiles: with the handful of runs a person makes, the default
    # (exclusive) method puts q1 and q3 next to the extremes, and one run that
    # caught a slow phase of the machine would make every metric "unresolved".
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}


def summarise(report: dict) -> None:
    """Add, per workload and metric, the median and quartiles across runs."""
    for entry in report["workloads"].values():
        per_metric: dict[str, list[float]] = {}
        for run in entry["runs"]:
            for name, s in run["metrics"].items():
                per_metric.setdefault(name, []).append(s["value"])
        entry["across_runs"] = {name: _across_runs(v) for name, v in per_metric.items()}


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _spread(entry: dict, name: str) -> float:
    """Run-to-run spread as a share of the median; with a single run, the
    spread of that run's own samples."""
    across = entry["across_runs"][name]
    if across["runs"] == 1:
        within = next(r["metrics"][name] for r in entry["runs"] if name in r["metrics"])
        across = {"median": within["value"], "q1": within["q1"], "q3": within["q3"]}
    return (across["q3"] - across["q1"]) / across["median"] if across["median"] else 0.0


def compare_files(path_a: str, path_b: str, manifest: dict[str, Any]) -> int:
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    shared = [w for w in a["workloads"] if w in b["workloads"]]
    for workload in shared:
        sha_a = a["workloads"][workload]["workload_sha256"]
        sha_b = b["workloads"][workload]["workload_sha256"]
        if sha_a != sha_b:
            print(f"refusing to compare: {workload} ran on different inputs "
                  f"({sha_a[:12]} vs {sha_b[:12]}); use the same --seed and --size")
            return 2
    declared = {m["name"]: m for m in manifest["end_to_end"]}
    declared.update({m["name"]: m for m in manifest["per_layer"]})
    print(f"A = {path_a} (commit {a['env']['commit'][:12]})   B = {path_b} (commit {b['env']['commit'][:12]})")
    print(f"{'workload':<14} {'metric':<42} {'A (base)':>13} {'B':>13} {'B/A':>7} {'spread':>7} {'bound':>6}  verdict")
    worse = 0
    for workload in shared:
        entry_a, entry_b = a["workloads"][workload], b["workloads"][workload]
        for name, meta in declared.items():
            if name not in entry_a["across_runs"] or name not in entry_b["across_runs"]:
                continue
            base = entry_a["across_runs"][name]["median"]
            new = entry_b["across_runs"][name]["median"]
            ratio = new / base if base else float("nan")
            spread = max(_spread(entry_a, name), _spread(entry_b, name))
            bound = meta.get("bound")
            if bound is None:
                verdict = "(per layer: no bound)"
            else:
                worse_by = (ratio - 1.0) if meta["better"] == "lower" else (1.0 - ratio)
                if spread > bound:
                    verdict = "unresolved"
                elif worse_by > bound:
                    verdict = "worse"
                    worse += 1
                elif worse_by < -bound:
                    verdict = "better"
                else:
                    verdict = "within bound"
            bound_text = f"{bound:.2f}" if bound is not None else "-"
            print(f"{workload:<14} {name:<42} {base:>13.6g} {new:>13.6g} {ratio:>7.3f} {spread:>7.3f} {bound_text:>6}  {verdict}")
    return 1 if worse else 0
