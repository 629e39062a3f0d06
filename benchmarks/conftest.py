"""Shared fixtures for the figure tests.

Each ``test_*`` module here checks the claims of one table or figure of the
paper over the rows that :mod:`repro.bench.harness`'s runner for it returns —
the same rows ``python -m repro.bench`` prints (the harness docstring indexes
the experiments).  The traces are the synthetic S/C/A suite of
:mod:`repro.traces.datasets`; their size can be scaled with the
``REPRO_TRACE_SCALE`` environment variable (default 1.0).  Each runner runs
once per (experiment, trace) per session, however many cells read its rows.
"""

from __future__ import annotations

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, os.path.abspath(_SRC))

from repro.bench.harness import EXPERIMENTS  # noqa: E402
from repro.traces.datasets import TRACE_NAMES, get_trace  # noqa: E402


def pytest_report_header(config):
    scale = os.environ.get("REPRO_TRACE_SCALE", "1.0")
    return f"repro benchmark traces: {', '.join(TRACE_NAMES)} (REPRO_TRACE_SCALE={scale})"


@pytest.fixture(scope="session", params=TRACE_NAMES)
def trace(request):
    """One benchmark trace per parametrised run (S1..A2)."""
    return get_trace(request.param)


@pytest.fixture(scope="session")
def bench_row():
    """``bench_row(experiment, trace_name, **match)``: the one row of
    ``EXPERIMENTS[experiment]``'s runner on that trace whose fields equal
    ``match``, failing on a row that holds the error its measurement raised.
    ``trace_name=None`` runs an experiment that makes its own inputs (X2)."""
    memo: dict[tuple[str, str | None], list[dict[str, object]]] = {}

    def row(experiment: str, trace_name: str | None, **match: object) -> dict[str, object]:
        key = (experiment, trace_name)
        if key not in memo:
            traces = {trace_name: get_trace(trace_name)} if trace_name else {}
            memo[key] = EXPERIMENTS[experiment][1](traces)
        found = [r for r in memo[key] if all(r.get(k) == v for k, v in match.items())]
        assert len(found) == 1, f"{experiment} {trace_name} {match}: {len(found)} rows"
        assert "error" not in found[0], found[0]["error"]
        return found[0]

    return row
