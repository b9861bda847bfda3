"""Weighted importance sampling over logged trajectories.

Policies enter as probability tables over the logged transitions (one
evaluation-policy and one behavior-policy probability per logged action),
the minimal interface off-policy evaluation needs; no policy models are
fitted here. Weights are whole-trajectory likelihood-ratio products, the
estimate is self-normalized (biased for finite samples but consistent),
and confidence intervals come from trajectory-level percentile bootstrap.
Every bootstrap resample draws from its own generator keyed on (seed, b),
so results do not depend on evaluation order. The draws depend only on
(seed, n, resamples), so they are made once and shared, read-only, by every
table of a checkpoint series; each table's resample estimates are then
computed in fixed-size blocks of resamples. The OPE stage
(tridrive.pipeline.ope_stage) evaluates the tables of a series one at a
time, so memory does not grow with the table count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Sequence

import numpy as np

from . import defaults
from .errors import DegenerateStatisticError, FormatError, SchemaError, ValidationError
from .jsonio import read_json, write_compact_json
from .model import FORMAT, RaggedColumns, Trajectory, TrajectoryDataset
from .rewards import RewardTrace


@dataclass
class PolicyProbTable:
    """Per logged transition, the probability of the logged action under the
    evaluation and behavior policies. Keyed on (patient_id, t) where t is
    the absolute time index of the step whose action was taken."""

    probs: dict[tuple[str, int], tuple[float, float]]

    def validate(self) -> None:
        for (pid, t), (p_eval, p_behavior) in self.probs.items():
            if not (0.0 <= p_eval <= 1.0):
                raise ValidationError(f"({pid!r}, t={t}): p_eval {p_eval} out of [0,1]")
            if not (0.0 < p_behavior <= 1.0):
                raise ValidationError(
                    f"({pid!r}, t={t}): p_behavior {p_behavior} must lie in (0,1] "
                    "(logged actions need behavior-policy support)"
                )

    def lookup(self, patient_id: str, t: int) -> tuple[float, float]:
        try:
            return self.probs[(patient_id, t)]
        except KeyError:
            raise SchemaError(
                f"no policy probabilities for patient {patient_id!r} at t={t}"
            ) from None


@dataclass
class WisEstimate:
    value: float
    ci_low: float
    ci_high: float
    n_effective: float
    skipped_resamples: int = 0


def identity_prob_table(dataset: TrajectoryDataset) -> PolicyProbTable:
    """Table with p_eval == p_behavior == 1 everywhere: evaluates the logged
    (clinician) policy itself, reducing the estimator to the mean return."""
    probs = {}
    for traj in dataset.trajectories:
        for t in traj.columns.t[:-1].tolist():
            probs[(traj.patient_id, t)] = (1.0, 1.0)
    return PolicyProbTable(probs)


def trajectory_weight(
    trajectory: Trajectory, probs: PolicyProbTable, max_ratio: float | None = None
) -> float:
    """Product of per-transition likelihood ratios p_eval / p_behavior.

    max_ratio optionally caps each per-step ratio; disabled (None) gives the
    textbook estimator.
    """
    weight = 1.0
    pid, table = trajectory.patient_id, probs.probs
    for t in trajectory.columns.t[:-1].tolist():
        # lookup() only for the SchemaError of a missing entry.
        p_eval, p_behavior = table.get((pid, t)) or probs.lookup(pid, t)
        if p_behavior <= 0.0:
            raise ValidationError(
                f"patient {trajectory.patient_id!r} t={t}: behavior probability is 0 "
                "(support violation)"
            )
        ratio = p_eval / p_behavior
        if max_ratio is not None:
            ratio = min(ratio, max_ratio)
        weight *= ratio
    return weight


def _weights_and_returns(
    dataset: TrajectoryDataset,
    traces: Sequence[RewardTrace],
    probs: PolicyProbTable,
    max_ratio: float | None,
) -> tuple[np.ndarray, np.ndarray]:
    if len(traces) != len(dataset.trajectories):
        raise ValidationError("one trace per trajectory is required")
    weights = np.array(
        [trajectory_weight(traj, probs, max_ratio) for traj in dataset.trajectories]
    )
    returns = np.array([t.cumulative for t in traces])
    return weights, returns


def wis(
    dataset: TrajectoryDataset,
    traces: Sequence[RewardTrace],
    probs: PolicyProbTable,
    max_ratio: float | None = None,
) -> float:
    """Self-normalized importance-sampling estimate of the evaluation
    policy's expected return: sum(w_i * R_i) / sum(w_i)."""
    weights, returns = _weights_and_returns(dataset, traces, probs, max_ratio)
    total = weights.sum()
    if total <= 0.0:
        raise DegenerateStatisticError(
            "all trajectory weights are zero; the estimate is undefined"
        )
    return float(np.dot(weights, returns) / total)


# Resamples per vectorized block; bounds each [_BLOCK, n] gather (1 MB at n = 500).
_BLOCK = 256


@functools.lru_cache(maxsize=1)
def resample_indices(seed: int, n: int, resamples: int) -> np.ndarray:
    """Read-only [resamples, n] trajectory indices of the bootstrap, in the
    smallest unsigned dtype that holds n - 1. Row b is drawn by its own
    generator keyed on (seed, b). The draws of the last key are kept, so
    the tables of a series, which share (seed, n, resamples), share them."""
    out = np.empty((resamples, n), dtype=np.min_scalar_type(n - 1))
    for b in range(resamples):
        rng = np.random.default_rng(np.random.SeedSequence([seed, b]))
        out[b] = rng.integers(0, n, size=n)
    out.flags.writeable = False
    return out


def bootstrap_ci(
    dataset: TrajectoryDataset,
    traces: Sequence[RewardTrace],
    probs: PolicyProbTable,
    level: float = defaults.BOOTSTRAP_LEVEL,
    resamples: int = defaults.BOOTSTRAP_RESAMPLES,
    seed: int = 0,
    max_ratio: float | None = None,
) -> WisEstimate:
    """Percentile bootstrap over trajectory-level resamples.

    Deterministic for a fixed seed: resample b draws from a generator keyed
    on (seed, b). Resamples whose weights all vanish are skipped and counted.
    """
    if not (0.0 < level < 1.0):
        raise ValidationError("level must lie in (0,1)")
    if resamples < 1:
        raise ValidationError("resamples must be positive")
    if len(dataset.trajectories) < 2:
        raise ValidationError("bootstrap_ci needs at least 2 trajectories")
    weights, returns = _weights_and_returns(dataset, traces, probs, max_ratio)
    total = weights.sum()
    if total <= 0.0:
        raise DegenerateStatisticError("all trajectory weights are zero")
    value = float(np.dot(weights, returns) / total)
    n = len(weights)

    weighted_returns = weights * returns
    kept = []
    skipped = 0
    indices = resample_indices(seed, n, resamples)
    for start in range(0, resamples, _BLOCK):
        idx = indices[start : start + _BLOCK].astype(np.intp)
        sw = weights[idx].sum(axis=1)
        numerator = weighted_returns[idx].sum(axis=1)
        keep = ~(sw <= 0.0)
        skipped += len(sw) - int(keep.sum())
        kept.append(numerator[keep] / sw[keep])
    estimates = np.concatenate(kept)
    if not estimates.size:
        raise DegenerateStatisticError("every bootstrap resample was degenerate")
    alpha = (1.0 - level) / 2.0
    ci_low, ci_high = np.quantile(estimates, [alpha, 1.0 - alpha])
    return WisEstimate(
        value=value,
        ci_low=float(ci_low),
        ci_high=float(ci_high),
        n_effective=float(total**2 / np.dot(weights, weights)),
        skipped_resamples=skipped,
    )


@dataclass(frozen=True)
class MortalityBin:
    bin_index: int
    reward_low: float
    reward_high: float
    mortality: float
    count: int


def mortality_curve(
    dataset: TrajectoryDataset,
    traces: Sequence[RewardTrace],
    n_bins: int = defaults.MORTALITY_BINS,
) -> list[MortalityBin]:
    """Bucket trajectories into cumulative-reward quantile bins and report
    the observed death fraction per bin (plot-ready rows, low reward first)."""
    if n_bins < 1:
        raise ValidationError("n_bins must be positive")
    if len(dataset.trajectories) < n_bins:
        raise ValidationError("need at least one trajectory per bin")
    if len(traces) != len(dataset.trajectories):
        raise ValidationError("one trace per trajectory is required")
    returns = np.array([t.cumulative for t in traces])
    order = np.argsort(returns, kind="stable")
    rows = []
    for b, chunk in enumerate(np.array_split(order, n_bins)):
        sub_returns = returns[chunk]
        deaths = sum(1 for i in chunk if not dataset.trajectories[int(i)].survived)
        rows.append(
            MortalityBin(
                bin_index=b,
                reward_low=float(sub_returns.min()),
                reward_high=float(sub_returns.max()),
                mortality=deaths / len(chunk),
                count=len(chunk),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Probability-table file format: format 2, the patient frame of the dataset
# format (patient_id, offsets) over row columns t, p_eval and p_behavior,
# written with patients sorted by id; t strictly increases within each.
# ---------------------------------------------------------------------------


def _check_increasing(frame: RaggedColumns, t: list[int]) -> None:
    """t strictly increases within each patient, so (patient, t) is unique."""
    starts = set(frame.offsets)
    for i, (before, after) in enumerate(zip(t, t[1:]), 1):
        if after <= before and i not in starts:
            problem = "repeated entry for" if after == before else f"after t={before}, decreasing"
            raise FormatError(f"{frame.row(i)}: {problem} t={after}")


def prob_table_from_json(doc) -> PolicyProbTable:
    frame = RaggedColumns(doc, "probability table")
    t = frame.times(integral_floats=True)
    _check_increasing(frame, t)
    message = "p_eval and p_behavior must be numbers"
    p_eval = frame.numbers(frame.rows("p_eval"), frame.row, message)[0].tolist()
    p_behavior = frame.numbers(frame.rows("p_behavior"), frame.row, message)[0].tolist()
    keys = [
        (pid, step)
        for pid, lo, hi in zip(frame.patient_ids, frame.offsets, frame.offsets[1:])
        for step in t[lo:hi]
    ]
    table = PolicyProbTable(dict(zip(keys, zip(p_eval, p_behavior))))
    table.validate()
    return table


def prob_table_to_json(table: PolicyProbTable) -> dict:
    rows = sorted(table.probs.items())
    patient_id, offsets = [], [0]
    for pid, group in groupby(pid for (pid, _), _ in rows):
        patient_id.append(pid)
        offsets.append(offsets[-1] + sum(1 for _ in group))
    return {
        "format": FORMAT,
        "patient_id": patient_id,
        "offsets": offsets,
        "t": [t for (_, t), _ in rows],
        "p_eval": [p_eval for _, (p_eval, _) in rows],
        "p_behavior": [p_behavior for _, (_, p_behavior) in rows],
    }


def load_prob_table(path: str | Path) -> PolicyProbTable:
    return prob_table_from_json(read_json(path, "probability table"))


def save_prob_table(table: PolicyProbTable, path: str | Path) -> None:
    write_compact_json(path, prob_table_to_json(table))
