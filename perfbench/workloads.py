"""Benchmark workloads and the generation of their inputs.

Each workload is one synthetic cohort plus one pipeline configuration. All
inputs derive from the seed passed on the command line, so the same seed
always gives the same files. Why each workload exists, and which layer it
is meant to expose, is recorded in BENCHMARK.json and perfbench/README.md.

Run as a script, this module builds one workload's inputs SETUP_REPS times
over in its own process, and prints their median timings and their sizes as
one JSON line:

    python3 perfbench/workloads.py WORKLOAD SEED N_PATIENTS OUT_DIR

The benchmark builds inputs this way so that set-up memory does not count
toward the measured process's peak RSS.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Cohort size of the self-check, which runs every workload shape small.
TINY_PATIENTS = 50

# Builds of the inputs per run; setup_s and its parts are their medians.
SETUP_REPS = 3

# Stream tags of the probability-table generators.
_BEHAVIOR, _EVAL = 101, 102


@dataclass(frozen=True)
class Workload:
    n_patients: int
    # Pipeline config keys besides dataset, seed and probs.
    pipeline: dict = field(default_factory=dict)
    # Policy-checkpoint probability tables fed to the OPE stage.
    n_tables: int = 0


# No large-cohort workload: its executions are too long for enough samples
# in one run (see README.md, "Workloads").
WORKLOADS = {
    "score-pool-500": Workload(n_patients=500),
    "ope-series-500": Workload(
        n_patients=500, pipeline={"candidates": 2, "bootstrap": 5000}, n_tables=16
    ),
}


def import_tridrive() -> None:
    """Put the checkout's src/ on the import path, or exit 2 if it is absent."""
    if not (SRC / "tridrive" / "__init__.py").is_file():
        print(f"perfbench: no tridrive sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def checkpoint_table(dataset, seed: int, checkpoint: int):
    """Probability table of one policy checkpoint over every logged transition.

    The behaviour probability of each transition is the same for every
    checkpoint and lies in [0.2, 1.0); the evaluation probability is the
    behaviour one scaled by a log-normal ratio whose spread grows with the
    checkpoint index, clipped into (0, 1].
    """
    from tridrive.ope import PolicyProbTable

    keys = [
        (traj.patient_id, step.t) for traj in dataset.trajectories for step in traj.steps[:-1]
    ]
    behavior_rng = np.random.default_rng(np.random.SeedSequence([seed, _BEHAVIOR]))
    eval_rng = np.random.default_rng(np.random.SeedSequence([seed, _EVAL, checkpoint]))
    p_behavior = behavior_rng.uniform(0.2, 1.0, size=len(keys))
    ratio = np.exp(eval_rng.normal(0.0, 0.05 + 0.01 * checkpoint, size=len(keys)))
    p_eval = np.clip(p_behavior * ratio, 1e-6, 1.0)
    return PolicyProbTable(
        {key: (float(pe), float(pb)) for key, pe, pb in zip(keys, p_eval, p_behavior)}
    )


def input_paths(name: str, out_dir: Path) -> tuple[Path, list[Path]]:
    """Where build_inputs writes the dataset and the probability tables."""
    tables = [out_dir / f"policy_{c:02d}.json" for c in range(WORKLOADS[name].n_tables)]
    return out_dir / "cohort.json", tables


def build_inputs(name: str, seed: int, n_patients: int, out_dir: Path) -> dict:
    """Generate and save one workload's inputs, timing each program call.

    The harness's own work (drawing the table probabilities) is not timed;
    setup_s covers synth.generate, save_dataset and save_prob_table only.
    """
    from tridrive.model import save_dataset
    from tridrive.ope import save_prob_table
    from tridrive.synth import CohortConfig, generate

    out_dir.mkdir(parents=True, exist_ok=True)
    dataset_path, table_paths = input_paths(name, out_dir)
    clock = time.perf_counter
    start = clock()
    dataset = generate(CohortConfig(n_patients=n_patients, seed=seed))
    generate_s = clock() - start
    start = clock()
    save_dataset(dataset, dataset_path)
    save_s = clock() - start
    table_save_s = 0.0
    table_rows = 0
    for checkpoint, path in enumerate(table_paths):
        table = checkpoint_table(dataset, seed, checkpoint)
        start = clock()
        save_prob_table(table, path)
        table_save_s += clock() - start
        table_rows += len(table.probs)
    return {
        "generate_s": generate_s,
        "save_s": save_s,
        "table_save_s": table_save_s,
        "setup_s": generate_s + save_s + table_save_s,
        "patients": len(dataset.trajectories),
        "steps": sum(len(t.steps) for t in dataset.trajectories),
        "dataset_mb": dataset_path.stat().st_size / 2**20,
        "table_rows": table_rows,
    }


def pipeline_config(name: str, seed: int, out_dir: Path):
    """The PipelineConfig a workload runs, over inputs built in out_dir."""
    from tridrive.pipeline import pipeline_config_from_json

    dataset_path, table_paths = input_paths(name, out_dir)
    doc = {
        "dataset": str(dataset_path),
        "client": "stub",
        "seed": seed,
        "probs": [str(p) for p in table_paths],
        **WORKLOADS[name].pipeline,
    }
    return pipeline_config_from_json(doc)


def build_medians(name: str, seed: int, n_patients: int, out_dir: Path) -> dict:
    """build_inputs SETUP_REPS times into out_dir; the median of each timing.

    Every build writes the same files, so the last one leaves the inputs.
    """
    builds = [build_inputs(name, seed, n_patients, out_dir) for _ in range(SETUP_REPS)]
    result = dict(builds[-1])
    for key in ("generate_s", "save_s", "table_save_s", "setup_s"):
        result[key] = statistics.median(b[key] for b in builds)
    result["setup_samples"] = [b["setup_s"] for b in builds]
    return result


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    import_tridrive()
    workload, seed, patients, out = sys.argv[1:5]
    print(json.dumps(build_medians(workload, int(seed), int(patients), Path(out))))
