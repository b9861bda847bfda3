"""Self-check of the benchmark at tiny size; fast enough for every change.

    python3 perfbench/selfcheck.py

Runs every workload shape on a 50-patient cohort, untraced and traced,
through the same set-up, loop and output checks as a full run, against the
tiny-size reference outputs. It also checks that each run reports exactly
the metrics BENCHMARK.json declares, and that the benchmark exits nonzero
without a result when the tridrive sources are missing. Exits 1 on any
failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True

import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0,)


def declared() -> tuple[list[str], dict]:
    """Workload names, and metric units by trace mode, from BENCHMARK.json."""
    doc = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    units = {
        trace: {m["name"]: m["unit"] for m in doc[key]}
        for trace, key in ((False, "end_to_end"), (True, "per_layer"))
    }
    return [w["name"] for w in doc["workloads"]], units


def check_shape(name: str, seed: int, trace: bool, expected: dict) -> list[str]:
    result = run.run_workload(name, seed, 0.0, trace, workloads.TINY_PATIENTS)
    problems = list(result["problems"])
    if result["failed"]:
        problems.append(f"{result['failed']} of {result['attempted']} executions failed")
    if not result["record"]["reference_checked"]:
        problems.append("no reference outputs for this shape and seed")
    units = {key: unit for key, (_, unit, _) in result["metrics"].items()}
    if units != expected:
        missing = sorted(set(expected) - set(units))
        extra = sorted(set(units) - set(expected))
        wrong = sorted(k for k in set(units) & set(expected) if units[k] != expected[k])
        problems.append(f"metrics differ from BENCHMARK.json: missing {missing}, "
                        f"undeclared {extra}, wrong unit {wrong}")
    return problems


def check_without_sources() -> list[str]:
    """The benchmark alone, without src/, must fail fast and print no result."""
    bare = run.WORK_ROOT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(workloads.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "score-pool-500",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60, check=False,
        )
    finally:
        shutil.rmtree(run.WORK_ROOT, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    workloads.import_tridrive()
    names, units = declared()
    problems = []
    if names != list(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {list(workloads.WORKLOADS)}")
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for trace in (False, True):
                found = check_shape(name, seed, trace, units[trace])
                status = "ok" if not found else "FAILED"
                print(f"selfcheck {name} seed {seed} trace {int(trace)}: {status}", flush=True)
                problems += [f"{name} seed {seed} trace {int(trace)}: {p}" for p in found]
    problems += check_without_sources()
    for p in problems:
        print(f"selfcheck FAILED {p}")
    print("selfcheck ok" if not problems else f"selfcheck: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
