"""Output checks of one pipeline execution.

snapshot() reads the results a user looks at from a run directory. They are
checked for internal consistency at any seed, and compared with reference
values recorded by make_reference.py (perfbench/reference.json) where the
workload, cohort size and seed have one.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Absolute tolerance of reference comparisons, scaled up for values above 1.
TOLERANCE = 1e-9

# wis.json keys compared with references; "policy" names a file path.
_WIS_KEYS = (
    "champion", "value", "ci_low", "ci_high", "level", "resamples", "n_effective",
    "skipped_resamples",
)


def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _csv_rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def snapshot(run_dir: Path) -> dict:
    """The checked results of one completed run directory."""
    series_path = run_dir / "ope/wis_series.csv"
    series = _csv_rows(series_path) if series_path.exists() else []
    wis = _json(run_dir / "ope/wis.json")
    return {
        "selected_features": _json(run_dir / "features/report.json")["selected_features"],
        "champion": _json(run_dir / "manifest.json")["champion"],
        "fitness": _json(run_dir / "fitness/report.json"),
        "wis": {key: wis[key] for key in _WIS_KEYS},
        "mortality_curve": [
            [int(r["bin"]), float(r["reward_low"]), float(r["reward_high"]),
             float(r["mortality"]), int(r["count"])]
            for r in _csv_rows(run_dir / "ope/mortality_curve.csv")
        ],
        # The policy column is left out: it holds the table's file path.
        "wis_series": [
            [int(r["checkpoint"]), float(r["value"]), float(r["ci_low"]), float(r["ci_high"])]
            for r in series
        ],
    }


def consistency_problems(snap: dict, manifest: dict, config, n_patients: int) -> list[str]:
    """Checks that hold at every seed."""
    problems = []
    stages = manifest["stages"]
    incomplete = [name for name, rec in stages.items() if rec.get("status") != "complete"]
    if incomplete:
        problems.append(f"stages not complete: {incomplete}")
    if not snap["selected_features"]:
        problems.append("no features selected")
    rows = snap["fitness"]
    valid = [row for row in rows if "error" not in row]
    if not rows or len(rows) > config.candidates:
        problems.append(f"{len(rows)} fitness rows for {config.candidates} candidates")
    for row in valid:
        for axis in ("j_surv", "j_conf", "j_comp"):
            if not (math.isfinite(row[axis]) and -1.0 <= row[axis] <= 1.0):
                problems.append(f"{row['spec_id']}: {axis} = {row[axis]} outside [-1, 1]")
    if snap["champion"] not in {row["spec_id"] for row in valid}:
        problems.append(f"champion {snap['champion']!r} is not a scored candidate")
    wis = snap["wis"]
    if wis["champion"] != snap["champion"]:
        problems.append("wis.json names another champion than the manifest")
    finite = all(math.isfinite(wis[k]) for k in ("value", "ci_low", "ci_high"))
    if not (finite and wis["ci_low"] <= wis["ci_high"]):
        problems.append(f"WIS interval [{wis['ci_low']}, {wis['ci_high']}] is not ordered")
    if not (0.0 < wis["n_effective"] <= n_patients + 1e-9):
        problems.append(f"n_effective {wis['n_effective']} outside (0, {n_patients}]")
    if wis["resamples"] != config.bootstrap:
        problems.append(f"wis.json has {wis['resamples']} resamples, not {config.bootstrap}")
    curve = snap["mortality_curve"]
    covered = sum(row[4] for row in curve)
    if len(curve) != config.bins or covered != n_patients:
        problems.append(f"mortality curve has {len(curve)} bins over {covered} patients")
    if any(not (0.0 <= row[3] <= 1.0) for row in curve):
        problems.append("mortality outside [0, 1]")
    expected_series = len(config.probs) if len(config.probs) > 1 else 0
    if len(snap["wis_series"]) != expected_series:
        problems.append(f"wis_series has {len(snap['wis_series'])} rows, not {expected_series}")
    return problems


def differences(actual, expected, where: str = "") -> list[str]:
    """Where actual departs from expected: numbers beyond TOLERANCE, anything
    else not equal."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(actual) != set(expected):
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        return [d for key in expected
                for d in differences(actual[key], expected[key], f"{where}.{key}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{where}: {len(actual)} items != {len(expected)}"]
        return [d for i, (a, e) in enumerate(zip(actual, expected))
                for d in differences(a, e, f"{where}[{i}]")]
    number = isinstance(actual, (int, float)) and not isinstance(actual, bool)
    if isinstance(expected, float) and number:
        if abs(actual - expected) <= TOLERANCE * max(1.0, abs(expected)):
            return []
        return [f"{where}: {actual!r} != {expected!r}"]
    if actual != expected or type(actual) is not type(expected):
        return [f"{where}: {actual!r} != {expected!r}"]
    return []


def reference_key(workload: str, n_patients: int, seed: int) -> str:
    return f"{workload}/n{n_patients}/seed{seed}"


def load_references() -> dict:
    return _json(REFERENCE_PATH)["snapshots"] if REFERENCE_PATH.exists() else {}
