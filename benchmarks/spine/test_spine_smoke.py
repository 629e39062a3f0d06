"""Drift-proof smoke test for the measurement spine (collected by tier-1).

Runs both workloads at the ``tiny`` size, traced and untraced, and checks
that what the benchmark emits is exactly what ``BENCHMARK.json`` declares, that
nothing failed, that the span recorder's bookkeeping is consistent and that the
tracer removes every wrapper it installed.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

_HERE = os.path.dirname(os.path.abspath(__file__))
_CHECKOUT = os.path.abspath(os.path.join(_HERE, os.pardir, os.pardir))
RUN_PY = os.path.join(_HERE, "run.py")

from spine import run as spine_run  # noqa: E402  (bootstraps sys.path for repro)
from spine import stages, trace  # noqa: E402
from spine.report import compare_files, load_manifest  # noqa: E402
from spine.workloads import WORKLOADS, build_inputs  # noqa: E402

MANIFEST = load_manifest(_CHECKOUT)


@pytest.fixture(scope="module")
def tiny_report(tmp_path_factory):
    """One ``--workload all --trace`` pass at the tiny size, in-process."""
    out = tmp_path_factory.mktemp("spine") / "tiny.json"
    code = spine_run.main(
        ["--workload", "all", "--size", "tiny", "--seconds", "0.5", "--seed", "7", "--trace", "--out", str(out)]
    )
    with open(out, encoding="utf-8") as handle:
        return code, json.load(handle), str(out)


def test_manifest_is_within_the_contract():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["benchmarks/spine"]
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"] + MANIFEST["workloads"]]
    assert len(names) == len(set(names)), "a name is used once"
    for metric in MANIFEST["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s"
    ).items()
    for metric in MANIFEST["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for workload in MANIFEST["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200


def test_emitted_names_equal_declared_names(tiny_report):
    code, report, _ = tiny_report
    assert code == 0
    assert set(report["workloads"]) == {w["name"] for w in MANIFEST["workloads"]}
    assert set(report["workloads"]) == {w.name for w in WORKLOADS}
    declared = {
        0: {m["name"] for m in MANIFEST["end_to_end"]},
        1: {m["name"] for m in MANIFEST["per_layer"]},
    }
    for name, entry in report["workloads"].items():
        assert len(entry["workload_sha256"]) == 64
        assert {run["trace"] for run in entry["runs"]} == {0, 1}
        for run in entry["runs"]:
            assert set(run["metrics"]) == declared[run["trace"]], name
            assert run["failed"] == 0 and run["attempted"] >= 1, name
            for metric, summary in run["metrics"].items():
                assert math.isfinite(summary["value"]), (name, metric)
            if run["trace"] == 0:
                for metric, summary in run["metrics"].items():
                    assert summary["value"] > 0, f"{name}: end-to-end {metric} must never be 0"
    env = report["env"]
    assert {"python", "platform", "nproc", "commit", "seed", "size", "seconds"} <= set(env)


def test_mechanisms_are_where_the_workloads_say(tiny_report):
    """Each workload exercises its mechanism and another one bypasses it."""
    _, report, _ = tiny_report

    def layer(workload: str, metric: str) -> float:
        traced = next(r for r in report["workloads"][workload]["runs"] if r["trace"] == 1)
        return traced["metrics"][metric]["value"]

    # 16 sessions: one delta is encoded for each of the 15 receivers.
    assert layer("sequential", "protocol.room.encodes_per_delta") == 15
    assert layer("concurrent", "protocol.room.encodes_per_delta") == 1
    # Sequential histories never touch the walker; concurrent ones live in it.
    for stage in ("room", "merge"):
        assert layer("sequential", f"walker.{stage}.self_ms") == 0
        assert layer("concurrent", f"walker.{stage}.self_ms") > 0
    assert layer("sequential", "merge_engine.room.window_events_per_new_event") == 0
    assert layer("sequential", "merge_engine.merge.fast_path_merges") == 1
    assert layer("concurrent", "merge_engine.merge.fresh_replays") == 1
    # A text-only open reads part of the file and materialises no event.
    assert 0 < layer("sequential", "storage.open.read_fraction") < 1


def test_spans_nest_and_wrappers_are_removed():
    from repro.server import protocol

    workload = next(w for w in WORKLOADS if w.name == "sequential")
    inputs = build_inputs(workload, "tiny", 7)
    original = protocol.decode_frame
    with trace.tracing() as rec:
        assert trace.installed_wrappers() > 0
        assert protocol.decode_frame is not original
        stage = stages.room_stage(inputs, rec)
        stages.run_rounds([stage.operation], 0.05)
    result = stage.result
    assert trace.installed_wrappers() == 0
    assert protocol.decode_frame is original
    for module_name, attr_path, _, _ in trace.ENTRY_POINTS:
        owner = sys.modules[module_name]
        for part in attr_path.split("."):
            owner = owner.__dict__[part] if isinstance(owner, type) else getattr(owner, part)
        target = owner.fget if isinstance(owner, property) else getattr(owner, "__func__", owner)
        assert not hasattr(target, "__wrapped__"), f"{attr_path} is still wrapped"

    assert result.failed == 0
    summary = rec.summary()
    assert summary["child_overrun"] == 0
    rows = list(rec.rows())
    assert rows and not rec.stack
    for name, start, end, parent, _op in rows:
        assert end >= start
        if parent >= 0:
            _, parent_start, parent_end, _, _ = rows[parent]
            assert parent_start <= start and end <= parent_end, name
    for row in summary["spans"].values():
        assert 0 <= row["self_ms"] <= row["total_ms"] + 1e-9
    assert sum(summary["layers"].values()) == pytest.approx(summary["root_ms"])


def test_compare_is_noise_aware_and_checks_inputs(tiny_report, tmp_path, capsys):
    _, report, path = tiny_report

    def variant(name: str, scale: float, spread: float) -> str:
        """The report with sequential's save_ms scaled and given a spread."""
        changed = copy.deepcopy(report)
        entry = changed["workloads"]["sequential"]
        value = entry["across_runs"]["save_ms"]["median"] * scale
        entry["across_runs"]["save_ms"] = {
            "median": value, "q1": value * (1 - spread / 2), "q3": value * (1 + spread / 2), "runs": 5,
        }
        target = tmp_path / f"{name}.json"
        target.write_text(json.dumps(changed))
        return str(target)

    def save_ms_verdict(a: str, b: str) -> tuple[int, str]:
        code = compare_files(a, b, MANIFEST)
        rows = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("sequential") and " save_ms " in line
        ]
        assert len(rows) == 1
        return code, rows[0]

    bound = next(m["bound"] for m in MANIFEST["end_to_end"] if m["name"] == "save_ms")
    steady = variant("steady", 1.0, 0.01)
    code, row = save_ms_verdict(steady, variant("same", 1.0 + bound / 2, 0.01))
    assert row.endswith("within bound")
    code, row = save_ms_verdict(steady, variant("slower", 1.0 + 2 * bound, 0.01))
    assert code == 1 and row.endswith("worse")
    code, row = save_ms_verdict(steady, variant("faster", 1.0 - 2 * bound, 0.01))
    assert row.endswith("better")
    # A spread wider than the bound resolves nothing, whatever the medians say.
    code, row = save_ms_verdict(steady, variant("noisy", 1.0 + 2 * bound, 2 * bound))
    assert row.endswith("unresolved")

    other = copy.deepcopy(report)
    other["workloads"]["concurrent"]["workload_sha256"] = "0" * 64
    other_path = tmp_path / "other.json"
    other_path.write_text(json.dumps(other))
    assert compare_files(path, str(other_path), MANIFEST) == 2
    assert "refusing to compare" in capsys.readouterr().out


def test_driver_contract_on_the_command_line(tmp_path):
    """The exact invocation the driver uses, and the bare directory it also
    tries: only ``BENCHMARK.json`` and the benchmark's own files."""
    done = subprocess.run(
        [sys.executable, RUN_PY, "--workload", "concurrent", "--seed", "5",
         "--seconds", "1", "--trace", "0", "--size", "tiny"],
        capture_output=True, text=True, timeout=120, cwd=str(tmp_path),
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in MANIFEST["end_to_end"]}
    units = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"} and metric["unit"] == units[name]
    assert not os.path.exists(stages.SCRATCH_ROOT), "the live stage left its scratch behind"

    bare = tmp_path / "bare"
    shutil.copytree(_HERE, bare / "benchmarks" / "spine", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(_CHECKOUT, "BENCHMARK.json"), bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "benchmarks/spine/run.py", "--workload", "concurrent",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=str(bare),
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
