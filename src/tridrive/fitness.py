"""Offline fitness metrics for candidate reward functions.

A candidate is scored on three axes, each a Pearson correlation between
per-trajectory cumulative reward and an independent trajectory statistic:

* survival fitness: correlation with a ground-truth score combining the
  terminal outcome and severity stability around its admission baseline;
* confidence fitness: negative correlation with the trajectory's mean
  measurement staleness (rewards earned on stale data are penalized);
* competence fitness: correlation with treatment efficiency, the
  homeostasis gain per step minus a dose penalty.

Degenerate correlations (either side constant) raise instead of returning
a value, so constant-reward candidates are rejected explicitly. All
reductions run in trajectory file order for bit-reproducible results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import defaults
from .errors import ConfigError, DegenerateStatisticError, SchemaError, ValidationError
from .model import CohortColumns, FeatureType, TrajectoryDataset
from .rewards import RewardSpec, RewardTrace, trace, trace_returns


@dataclass(frozen=True)
class FitnessVector:
    """(survival, confidence, competence) fitness of one candidate."""

    j_surv: float
    j_conf: float
    j_comp: float

    def __post_init__(self):
        for name in ("j_surv", "j_conf", "j_comp"):
            v = getattr(self, name)
            if not math.isfinite(v) or not (-1.0 <= v <= 1.0):
                raise ValidationError(f"{name} must be a finite value in [-1,1], got {v}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.j_surv, self.j_conf, self.j_comp)


@dataclass(frozen=True)
class CompMetricConfig:
    """Tunables of the fitness metrics; prepare() binds them to a dataset."""

    epsilon: float = defaults.STABILITY_EPSILON
    k: float = defaults.HOMEOSTASIS_K
    alpha: float = defaults.DOSE_ALPHA
    aggregation: str = "mean"

    def __post_init__(self):
        if not (0.0 < self.epsilon < math.inf):
            raise ConfigError("epsilon must be a finite positive number")
        if not (0.0 < self.k < math.inf):
            raise ConfigError("k must be a finite positive number")
        if not (0.0 <= self.alpha < math.inf):
            raise ConfigError("alpha must be a finite nonnegative number")
        if self.aggregation not in ("mean", "sum"):
            raise ConfigError("aggregation must be 'mean' or 'sum'")

    def prepare(self, dataset: TrajectoryDataset) -> "FitnessTargets":
        """The fitness targets of the dataset under these settings."""
        return FitnessTargets(dataset, self)


def _feature_iqr(cols: CohortColumns, fid: str) -> float:
    """Interquartile range of the fresh (staleness 0) values of one feature.

    Falls back to all values if nothing is fresh, and to 1.0 (the full
    normalized scale) if the spread is degenerate.
    """
    _, values = cols.fresh(fid, or_present=True)
    if not values.size:
        return 1.0
    q25, q75 = _quantiles(values, [0.25, 0.75])
    spread = q75 - q25
    return spread if spread > 0.0 else 1.0


def _quantiles(values: np.ndarray, qs: Sequence[float]) -> list[float]:
    """np.quantile(values, qs) of nonempty 1-D values, to the last bit: numpy's
    default "linear" method, with its index rule and its two-sided lerp.
    np.quantile itself calls np.unique, which imports numpy.ma, a cost every
    fresh process would pay."""
    x = np.asarray(values, dtype=float)
    n = len(x)
    virtual = (n - 1) * np.asarray(qs, dtype=float)
    below = np.floor(virtual)
    above = below + 1
    last = virtual >= n - 1
    below[last] = above[last] = -1  # the largest value
    gamma = virtual - below
    below, above = below.astype(np.intp), above.astype(np.intp)
    x = np.partition(x, sorted({0, n - 1, *(below % n).tolist(), *(above % n).tolist()}))
    if np.isnan(x[-1]):
        return [math.nan] * len(virtual)
    lo, hi = x[below], x[above]
    diff = hi - lo
    return np.where(gamma >= 0.5, hi - diff * (1 - gamma), lo + diff * gamma).tolist()


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation; raises on degenerate (zero-variance) input."""
    return _pearson_named(xs, ys, "x", "y")


def _pearson_named(xs, ys, xname: str, yname: str) -> float:
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.size < 2:
        raise ValidationError("pearson needs two equal-length sequences of size >= 2")
    for name, values in ((xname, x), (yname, y)):
        if not np.isfinite(values).all():
            raise ValidationError(f"{name} has a non-finite value; correlation undefined")
    # Tested exactly: the float mean of a constant array need not equal its
    # entries, so a constant side can leave a spread just above 0.
    for name, values in ((xname, x), (yname, y)):
        if values.min() == values.max():
            raise DegenerateStatisticError(f"{name} is constant; correlation undefined")
    dx = x - x.mean()
    dy = y - y.mean()
    # Not np.dot: OpenBLAS hands dots past 10,000 elements to a worker thread, a slow hand-off.
    sx = math.sqrt(float((dx * dx).sum()))
    sy = math.sqrt(float((dy * dy).sum()))
    if sx == 0.0:
        raise DegenerateStatisticError(f"{xname} is constant; correlation undefined")
    if sy == 0.0:
        raise DegenerateStatisticError(f"{yname} is constant; correlation undefined")
    r = float((dx * dy).sum()) / (sx * sy)
    return min(1.0, max(-1.0, r))


# ---------------------------------------------------------------------------
# Survival fitness
# ---------------------------------------------------------------------------


def j_surv(
    dataset: TrajectoryDataset,
    traces: Sequence[RewardTrace],
    epsilon: float = defaults.STABILITY_EPSILON,
    *,
    truth: Sequence[float] | None = None,
) -> float:
    """truth: FitnessTargets.truth of the dataset and epsilon, if already known."""
    if truth is None:
        truth = CompMetricConfig(epsilon=epsilon).prepare(dataset).truth
    returns = trace_returns(dataset, traces)
    return _pearson_named(returns, truth, "cumulative reward", "ground-truth score")


# ---------------------------------------------------------------------------
# Confidence fitness
# ---------------------------------------------------------------------------


def j_conf(
    dataset: TrajectoryDataset,
    traces: Sequence[RewardTrace],
    feature_ids: Sequence[str],
    *,
    staleness: Sequence[float] | None = None,
) -> float:
    """staleness: FitnessTargets.staleness of the dataset, if already known."""
    if staleness is None:
        staleness = CompMetricConfig().prepare(dataset).staleness(feature_ids)
    returns = trace_returns(dataset, traces)
    return -_pearson_named(returns, staleness, "cumulative reward", "uncertainty score")


# ---------------------------------------------------------------------------
# Competence fitness
# ---------------------------------------------------------------------------


def _logistic(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _homeostasis(
    values: np.ndarray,
    ftype: FeatureType,
    interval: tuple[float, float] | None,
    iqr: float,
    k: float,
) -> np.ndarray:
    if ftype is FeatureType.NORMAL_RANGE:
        if interval is None:
            raise ConfigError("NormalRange homeostasis needs a healthy interval")
        lo, hi = interval
        outside = np.maximum(lo - values, values - hi)
        inside = (lo <= values) & (values <= hi)
        return np.where(inside, 1.0, _logistic(k * (0.5 - outside / iqr)))
    if ftype is FeatureType.DIRECTIONAL_LOW:
        return _logistic(k * (0.5 - values))
    return _logistic(-k * (0.5 - values))


def homeostasis_feature(
    value: float,
    ftype: FeatureType,
    interval: tuple[float, float] | None,
    iqr: float,
    k: float = defaults.HOMEOSTASIS_K,
) -> float:
    """Unified homeostasis score in [0,1] for one normalized value.

    NormalRange features score 1 inside the healthy interval and a logistic
    of the IQR-normalized distance outside it; directional features score a
    logistic of the value itself (lower-better decreasing, higher-better
    increasing).
    """
    return float(_homeostasis(np.float64(value), ftype, interval, iqr, k))


def j_comp(
    dataset: TrajectoryDataset,
    traces: Sequence[RewardTrace],
    feature_ids: Sequence[str],
    cfg: CompMetricConfig,
    *,
    efficiency: Sequence[float] | None = None,
) -> float:
    """efficiency: FitnessTargets.efficiency under cfg, if already known."""
    if efficiency is None:
        efficiency = cfg.prepare(dataset).efficiency(feature_ids)
    returns = trace_returns(dataset, traces)
    return _pearson_named(returns, efficiency, "cumulative reward", "efficiency score")


class FitnessTargets:
    """The spec-independent side of each fitness axis, per trajectory, under
    the settings cfg.

    Each is computed from the dataset's column block in one pass: a value
    per row, summed per trajectory over the block's offsets. The feature
    IQRs and dose maxima come from the dataset too. Each is computed on
    first use and kept, so every spec scored against one dataset and one
    metric config shares them.
    """

    def __init__(self, dataset: TrajectoryDataset, cfg: CompMetricConfig):
        self._dataset = dataset
        self.cfg = cfg
        self._cols = dataset.columns
        self._lengths = np.diff(self._cols.offsets)
        if not self._lengths.all():
            pid = dataset.trajectories[int(np.argmin(self._lengths))].patient_id
            raise ValidationError(f"patient {pid!r}: trajectory has no steps")
        self._staleness: dict[tuple[str, ...], np.ndarray] = {}
        self._efficiency: dict[tuple[str, ...], np.ndarray] = {}

    def _sums(self, rows: np.ndarray) -> np.ndarray:
        """Per trajectory, the sum of its rows' entries, in row order."""
        return np.add.reduceat(rows, self._cols.offsets[:-1])

    def _columns(self, feature_ids: Sequence[str]) -> list[int]:
        """The block column of each feature; SchemaError names the first
        absent one in row order, with its patient and t."""
        if not feature_ids:
            raise ValidationError("fitness targets need a nonempty feature set")
        cols, ids = self._cols, self._cols.feature_ids
        # A feature the block has no column for reads a column of False.
        idx = [ids.index(fid) if fid in ids else -1 for fid in feature_ids]
        present = np.hstack([cols.mask, np.zeros((len(cols.t), 1), dtype=bool)])[:, idx]
        if not present.all():
            row, k = divmod(int(np.argmin(present)), len(idx))
            traj = self._dataset.trajectories[np.searchsorted(cols.offsets, row, "right") - 1]
            raise SchemaError(
                f"patient {traj.patient_id!r}: feature {feature_ids[k]!r} absent "
                f"at t={cols.t[row].item()}"
            )
        return idx

    @cached_property
    def truth(self) -> np.ndarray:
        """Outcome plus stability: 1(survived) + the fraction of steps whose
        severity score stayed within epsilon of the admission baseline.
        Range [0, 2]."""
        trajs = self._dataset.trajectories
        baselines = np.repeat([traj.sofa_baseline for traj in trajs], self._lengths)
        stable = np.abs(self._cols.sofa - baselines) < self.cfg.epsilon
        survived = np.array([traj.survived for traj in trajs], dtype=float)
        return survived + self._sums(stable.astype(np.int64)) / self._lengths

    def staleness(self, feature_ids: Sequence[str]) -> np.ndarray:
        """Mean staleness over all steps and the given features."""
        key = tuple(feature_ids)
        if key not in self._staleness:
            per_row = self._cols.staleness[:, self._columns(key)].sum(axis=1)
            self._staleness[key] = self._sums(per_row) / (self._lengths * len(key))
        return self._staleness[key]

    def homeostasis(self, feature_ids: Sequence[str]) -> np.ndarray:
        """Per row, the unweighted mean homeostasis over the given features."""
        cols, schema = self._cols, self._dataset.feature_schema
        total = 0.0
        for fid, j in zip(feature_ids, self._columns(feature_ids)):
            spec = schema[fid]
            total = total + _homeostasis(
                cols.values[:, j], spec.feature_type, spec.healthy_interval,
                _feature_iqr(cols, fid), self.cfg.k,
            )
        return total / len(feature_ids)

    def efficiency(self, feature_ids: Sequence[str]) -> np.ndarray:
        """Mean (or sum, per cfg.aggregation) over transitions of the
        homeostasis gain minus alpha times the mean normalized dose of the
        earlier step, each dose over its action's schema maximum."""
        key = tuple(feature_ids)
        if key not in self._efficiency:
            cfg, cols, schema = self.cfg, self._cols, self._dataset.action_schema
            states = self.homeostasis(key)
            dose = np.zeros(len(cols.t))
            for aid, spec in schema.items():
                if aid in cols.action_ids:
                    dose = dose + cols.actions[:, cols.action_ids.index(aid)] / spec.max_value
            if schema:
                dose = dose / len(schema)
            gain = np.zeros(len(cols.t))
            gain[:-1] = states[1:] - states[:-1] - cfg.alpha * dose[:-1]
            gain[cols.offsets[1:] - 1] = 0.0  # a trajectory's last row starts no transition
            total = self._sums(gain)
            mean = cfg.aggregation == "mean"
            self._efficiency[key] = total / (self._lengths - 1) if mean else total
        return self._efficiency[key]


# ---------------------------------------------------------------------------
# Combined scoring
# ---------------------------------------------------------------------------


def fitness(
    dataset: TrajectoryDataset,
    spec: RewardSpec,
    feature_ids: Sequence[str] | None = None,
    targets: FitnessTargets | None = None,
) -> FitnessVector:
    """Score one reward spec on the dataset; all three axes share one set of
    traces. Defaults the feature set to the spec's own survival features.
    targets, cfg.prepare(dataset), is shared across specs and carries the
    metric settings; without it the default settings apply."""
    if len(dataset.trajectories) < 2:
        raise ValidationError("fitness needs at least 2 trajectories")
    if targets is None:
        targets = CompMetricConfig().prepare(dataset)
    fids = list(feature_ids) if feature_ids is not None else sorted(spec.survival)
    traces = [trace(traj, spec) for traj in dataset.trajectories]
    # Each target is read only after the axes before it were scored, so a
    # failure surfaces in the same order as the axes.
    return FitnessVector(
        j_surv=j_surv(dataset, traces, targets.cfg.epsilon, truth=targets.truth),
        j_conf=j_conf(dataset, traces, fids, staleness=targets.staleness(fids)),
        j_comp=j_comp(dataset, traces, fids, targets.cfg, efficiency=targets.efficiency(fids)),
    )
