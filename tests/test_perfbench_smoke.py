"""Smoke test of the pipeline benchmark, so that it cannot rot unnoticed.

Runs the multi-table workload traced at the self-check's 50-patient size:
that exercises the benchmark's call-site and span-nesting checks and its
comparison with the committed 50-patient reference outputs.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_ope_series_runs_clean(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # run.py switches off bytecode writing for the process; keep that local.
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")

    result = run.run_workload("ope-series-500", 0, 0.0, True, workloads.TINY_PATIENTS)

    assert result["failed"] == 0, result["problems"]
    assert result["problems"] == []
    assert result["record"]["reference_checked"]
    # A resume with every stage fresh reads no dataset.
    assert result["metrics"]["resume.model.load_s"][0] == 0
