"""Record reference outputs for the benchmark's output checks.

    python3 perfbench/make_reference.py

Runs every workload once per seed of FULL_SEEDS at full size and of
TINY_SEEDS at the self-check's tiny size, and writes checks.snapshot() of
each run to perfbench/reference.json, replacing the whole file. Record only
at a commit whose outputs are meant to be the reference: the benchmark fails
any later run whose outputs depart from these.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.dont_write_bytecode = True

import checks  # noqa: E402
import workloads  # noqa: E402

FULL_SEEDS = range(11)
TINY_SEEDS = (0,)


def record(name: str, seed: int, n_patients: int, work: Path) -> dict:
    from tridrive.pipeline import PipelineRun

    shutil.rmtree(work, ignore_errors=True)
    workloads.build_inputs(name, seed, n_patients, work / "inputs")
    config = workloads.pipeline_config(name, seed, work / "inputs")
    PipelineRun(config, work / "run").execute()
    snap = checks.snapshot(work / "run")
    shutil.rmtree(work)
    return snap


def main() -> int:
    workloads.import_tridrive()
    snapshots = {}
    work = workloads.ROOT / ".perfbench-work" / "reference"
    for name, workload in workloads.WORKLOADS.items():
        for n_patients, seeds in ((workloads.TINY_PATIENTS, TINY_SEEDS),
                                  (workload.n_patients, FULL_SEEDS)):
            for seed in seeds:
                key = checks.reference_key(name, n_patients, seed)
                snapshots[key] = record(name, seed, n_patients, work)
                print(f"recorded {key}", flush=True)
    doc = {"snapshots": dict(sorted(snapshots.items()))}
    checks.REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(work.parent, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
