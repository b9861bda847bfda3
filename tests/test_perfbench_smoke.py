"""Smoke test of the pipeline benchmark, so that it cannot rot unnoticed.

Runs each workload shape traced at the self-check's 50-patient size: that
exercises the benchmark's call-site and span-nesting checks and its
comparison with the committed 50-patient reference outputs. score-pool-500
is the one shape on the logged-policy path (an identity probability table
built from the dataset); ope-series-500 is the one with checkpoint tables.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _run_traced(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # run.py switches off bytecode writing for the process; keep that local.
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")

    result = run.run_workload(workload, 0, 0.0, True, workloads.TINY_PATIENTS)

    assert result["failed"] == 0, result["problems"]
    assert result["problems"] == []
    assert result["record"]["reference_checked"]
    # A resume with every stage fresh reads no dataset.
    assert result["metrics"]["resume.model.load_s"][0] == 0
    return result


def test_traced_ope_series_runs_clean(monkeypatch):
    _run_traced(monkeypatch, "ope-series-500")


def test_traced_score_pool_runs_clean(monkeypatch):
    result = _run_traced(monkeypatch, "score-pool-500")
    # The benchmark's reward layer spans the per-trajectory trace calls: one
    # per patient for each of the 20 default candidates (fitness) and for
    # the champion (OPE).
    assert result["metrics"]["rewards.trace_calls"][0] == 50 * (20 + 1)
