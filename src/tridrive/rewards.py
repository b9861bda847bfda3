"""Declarative potential-based reward specifications and their evaluation.

A RewardSpec describes one candidate reward function: per-feature survival
curves, per-feature confidence decay for stale measurements, a strategic
time decay, and an action cost. The step reward is the discounted potential
difference minus the weighted action cost,

    r = gamma * phi(next) - phi(prev) - lambda * cost(prev.action)

so that the shaping part telescopes over a trajectory while the cost part
stays path-dependent. Three reference reward models (outcome-only, process,
and their sum) are provided for comparison. All operations are pure
functions of immutable inputs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import defaults
from .errors import SchemaError, ValidationError
from .jsonio import from_json, read_json, to_json, write_json
from .model import CohortColumns, Trajectory, TrajectoryDataset


class SurvivalForm(str, Enum):
    BELL = "bell"
    DECAY_LOW = "decay_low"
    DECAY_HIGH = "decay_high"
    ASYMMETRIC_ABOVE = "asymmetric_above"


# Parameters each survival form requires (weight is always required).
_FORM_PARAMS = {
    SurvivalForm.BELL: ("mu", "sigma"),
    SurvivalForm.DECAY_LOW: ("tau",),
    SurvivalForm.DECAY_HIGH: ("tau",),
    SurvivalForm.ASYMMETRIC_ABOVE: ("mu", "sigma"),
}


def _positive(x: float) -> bool:
    """True for a finite x > 0; False for NaN, which fails every comparison."""
    return 0.0 < x < math.inf


@dataclass(frozen=True)
class SurvivalConfig:
    """Survival curve for one feature.

    Exactly the parameters the chosen form needs may be set: bell and
    asymmetric_above use (mu, sigma); decay_low and decay_high use tau.
    """

    form: SurvivalForm
    mu: float | None = None
    sigma: float | None = None
    tau: float | None = None
    weight: float = 1.0

    def __post_init__(self):
        needed = _FORM_PARAMS[self.form]
        for name in ("mu", "sigma", "tau"):
            have = getattr(self, name) is not None
            if have and name not in needed:
                raise ValidationError(f"survival form {self.form.value}: unexpected parameter {name!r}")
            if not have and name in needed:
                raise ValidationError(f"survival form {self.form.value}: missing parameter {name!r}")
        if self.sigma is not None and not _positive(self.sigma):
            raise ValidationError("sigma must be a finite positive number")
        if self.tau is not None and not _positive(self.tau):
            raise ValidationError("tau must be a finite positive number")
        if self.mu is not None and not (0.0 <= self.mu <= 1.0):
            raise ValidationError("mu must lie in [0,1]")
        if not _positive(self.weight):
            raise ValidationError("weight must be a finite positive number")

    @property
    def coefficients(self) -> tuple[float, float, float]:
        """(c, b, m) of this curve in the survival kernel's form."""
        if self.form is SurvivalForm.BELL:
            return 1.0 / self.sigma, 0.0, self.mu
        if self.form is SurvivalForm.DECAY_LOW:
            return 0.0, 1.0 / self.tau, 0.0
        if self.form is SurvivalForm.DECAY_HIGH:
            return 0.0, -1.0 / self.tau, 1.0
        return 0.0, math.log(2.0) / self.sigma, self.mu


@dataclass(frozen=True)
class RewardSpec:
    """One candidate reward function in declarative form: a frozen value,
    varied with dataclasses.replace, that checks itself (validate) when
    made. The three mappings are held as read-only copies of the ones
    given. An infinite confidence_tau turns that feature's decay off."""

    survival: dict[str, SurvivalConfig]
    confidence_tau: dict[str, float]
    action_max: dict[str, float]
    decay_half_life: float = defaults.DECAY_HALF_LIFE
    gamma: float = defaults.GAMMA
    lam: float = field(default=defaults.LAMBDA, metadata={"json": "lambda"})
    action_cost_scale: float = defaults.ACTION_COST_SCALE
    normalize_potential: bool = True

    def __post_init__(self):
        for name in ("survival", "confidence_tau", "action_max"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        self.validate()

    def validate(self) -> None:
        if set(self.survival) != set(self.confidence_tau):
            raise ValidationError("survival and confidence_tau must cover the same features")
        for fid, tau in self.confidence_tau.items():
            if not (0.0 < tau <= math.inf):
                raise ValidationError(f"confidence_tau[{fid!r}] must be a positive number")
        if not _positive(self.decay_half_life):
            raise ValidationError("decay_half_life must be a finite positive number")
        if not (0.0 < self.gamma <= 1.0):
            raise ValidationError("gamma must lie in (0,1]")
        if not (0.0 <= self.lam < math.inf):
            raise ValidationError("lambda must be a finite nonnegative number")
        if not (0.0 <= self.action_cost_scale < math.inf):
            raise ValidationError("action_cost_scale must be a finite nonnegative number")
        for aid, mx in self.action_max.items():
            if not _positive(mx):
                raise ValidationError(f"action_max[{aid!r}] must be a finite positive number")


@dataclass
class RewardTrace:
    """Per-step rewards and potentials of one trajectory, and its return.

    rewards[i] belongs to the transition steps[i] -> steps[i+1];
    potentials[i] belongs to steps[i]. cumulative is the discounted sum of
    rewards where the discount exponent is the transition position (not
    the absolute hour). The reference models hold plain lists. A trace made
    by trace holds its return and computes both lists together from the
    trajectory's columns on the first read of either, as read-only
    sequences that compare equal to the lists they hold.
    """

    __slots__ = ("rewards", "potentials", "cumulative", "_trajectory", "_spec")

    rewards: Sequence[float]
    potentials: Sequence[float]
    cumulative: float

    def __getattr__(self, name: str):
        # Reached only for slots not set, such as the lists of a trace made
        # by trace before either is read. Two threads that both compute
        # them assign equal lists.
        if name not in ("rewards", "potentials"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        rewards, potentials = _step_rewards(self._trajectory.columns, self._spec)
        lists = {"rewards": _Floats(rewards.tolist()), "potentials": _Floats(potentials.tolist())}
        self.rewards, self.potentials = lists.values()
        return lists[name]


class _Floats(Sequence):
    """A read-only list of floats, equal to a list (or another such
    sequence) holding the same floats."""

    __slots__ = ("_list",)

    def __init__(self, values: list[float]):
        self._list = values

    def __getitem__(self, i):
        return self._list[i]

    def __len__(self) -> int:
        return len(self._list)

    def __iter__(self):
        return iter(self._list)

    def __eq__(self, other):
        return self._list == other

    def __repr__(self) -> str:
        return repr(self._list)


def trace_returns(dataset: TrajectoryDataset, traces: Sequence[RewardTrace]) -> np.ndarray:
    """Each trace's cumulative reward, as floats; one trace per trajectory is required."""
    if len(traces) != len(dataset.trajectories):
        raise ValidationError("one trace per trajectory is required")
    return np.array([t.cumulative for t in traces], dtype=float)


def _discounted_sum(rewards: list[float], gamma: float) -> float:
    return sum(r * gamma**i for i, r in enumerate(rewards))


# Array kernels. Each formula is written once, over numpy arrays; the
# per-value helpers below call the same kernels on one value.
#
# Every survival form is exp(-max(0.5*(c*d)**2 + b*d, 0)) with d = value - m:
#
#   form              c        b             m
#   bell              1/sigma  0             mu
#   decay_low         0        1/tau         0
#   decay_high        0        -1/tau        1
#   asymmetric_above  0        ln 2/sigma    mu
#
# The exponent's floor at 0 makes asymmetric_above flat at 1 up to mu and
# caps every score at 1. Trust in a measurement dt hours old is
# exp(-dt/tau). A potential needs only score times trust, so _potentials
# takes one exponential per cell, of the two exponents summed. The
# exponents divide by tau, and costs divide by the action maxima, rather
# than multiplying by reciprocals: a subnormal tau such as 5e-324 passes
# validate, its reciprocal is inf, and 0 * inf would turn the full trust
# of a fresh measurement into NaN.
#
# trace's returns come from the block's _BlockReturns plan, which by the
# shaping identity needs potentials at two rows of each trajectory; the
# plan and the returns of the last spec traced on it are kept in a one-slot
# memo (see trace), the only cache on this path. The per-step lists come
# from _step_rewards over the trajectory's own rows, only when read. A
# plan reads every feature column's finiteness once per block; a spec's
# potentials read only the columns it names, gathered at two rows per
# trajectory.


def _survival_exponents(values: np.ndarray, c, b, m) -> np.ndarray:
    """max(0.5 * z * z + b * d, 0) with d = values - m and z = c * d, built
    in place, so that at most three arrays of values' shape are alive."""
    d = values - m
    z = c * d
    out = np.multiply(0.5, z)
    out *= z
    d *= b
    out += d
    return np.maximum(out, 0.0, out=out)


def _staleness_exponents(staleness: np.ndarray, tau) -> np.ndarray:
    return staleness / tau


def _time_decays(t: np.ndarray, half_life: float) -> np.ndarray:
    return np.power(0.5, t / half_life)


def _competence_costs(levels: np.ndarray, maxima: np.ndarray, scale: float) -> np.ndarray:
    """Per-row dose penalty of a [steps, actions] level matrix."""
    return scale * (levels / maxima).sum(axis=-1)


def _selector(picked: list[int], width: int):
    """Selects the picked columns of a block width columns wide: a slice,
    which reads them in place with no gather, when it picks them all, else
    their indices."""
    return slice(None) if len(picked) == width else np.array(picked, dtype=np.intp)


def _feature_columns(spec: RewardSpec, feature_ids: list[str]):
    """(selector, c, b, m, weight, tau): the block feature columns a spec
    names, and their survival coefficients, weights and confidence taus,
    in block order."""
    picked = [j for j, fid in enumerate(feature_ids) if fid in spec.survival]
    rows = [
        (*spec.survival[fid].coefficients, spec.survival[fid].weight, spec.confidence_tau[fid])
        for fid in map(feature_ids.__getitem__, picked)
    ]
    table = np.array(rows, dtype=float).reshape(len(rows), 5).T.copy()
    return _selector(picked, len(feature_ids)), *table


def _check_declared_actions(action_ids, spec: RewardSpec) -> None:
    unknown = sorted(set(action_ids) - spec.action_max.keys())
    if unknown:
        raise SchemaError(f"action {unknown[0]!r} not declared in the reward spec's action_max")


def survival_score(value: float, cfg: SurvivalConfig) -> float:
    """Score one normalized feature value in [0,1] against its survival curve."""
    exponent = _survival_exponents(np.array([value], dtype=float), *cfg.coefficients)
    return float(np.exp(-exponent)[0])


def confidence_weight(staleness: float, tau: float) -> float:
    """Trust in a measurement that is `staleness` hours old: exp(-dt/tau)."""
    return float(np.exp(-_staleness_exponents(np.float64(staleness), tau)))


def time_decay(t: float, half_life: float) -> float:
    """Strategic decay 0.5 ** (t / half_life); halves every half_life steps."""
    return float(_time_decays(np.float64(t), half_life))


def competence_cost(action: dict[str, float], spec: RewardSpec) -> float:
    """Dose penalty: action_cost_scale times the sum of normalized levels."""
    _check_declared_actions(action, spec)
    levels = np.array([float(level) for level in action.values()])
    maxima = np.array([spec.action_max[aid] for aid in action])
    return float(_competence_costs(levels, maxima, spec.action_cost_scale))


def _potentials(cols: CohortColumns, spec: RewardSpec) -> np.ndarray:
    """Health potential of every step.

    Weighted sum over the spec's features of survival score times
    confidence weight, normalized by the total weight (unless the spec
    disables normalization), then multiplied by the strategic decay.
    A feature missing from a step contributes nothing and is excluded
    from that step's normalizer; if every feature is missing the base
    potential is the neutral 0.5.
    """
    select, c, b, m, weight, tau = _feature_columns(spec, cols.feature_ids)
    exponents = _survival_exponents(cols.values[:, select], c, b, m)
    exponents += _staleness_exponents(cols.staleness[:, select], tau)
    mask = cols.mask[:, select]
    scores = np.exp(np.negative(exponents, out=exponents), out=exponents)
    scores *= mask
    # Summed column by column, so a row's sums do not depend on where it
    # lies in the block, as a matrix-vector product's rounding does.
    num, den = np.zeros(len(cols.t)), np.zeros(len(cols.t))
    for j, w in enumerate(weight):
        num += scores[:, j] * w
        den += mask[:, j] * w
    present = den > 0.0
    base = np.where(present, num, 0.5)
    if spec.normalize_potential:
        base = np.minimum(np.divide(num, den, out=base, where=present), 1.0)
    return _time_decays(cols.t, spec.decay_half_life) * base


def _step_rewards(cols: CohortColumns, spec: RewardSpec):
    """(rewards[len - 1], potentials[len]) of a block of one trajectory:
    rewards[i] belongs to the transition from row i to row i + 1. An action
    the spec does not declare is not read."""
    # Values that overflow or turn NaN show in the lists, as in the returns
    # pass, and raise no warning.
    with np.errstate(all="ignore"):
        potentials = _potentials(cols, spec)
        rewards = spec.gamma * potentials[1:] - potentials[:-1]
        if spec.lam != 0.0:
            ids = cols.action_ids
            declared = [j for j, aid in enumerate(ids) if aid in spec.action_max]
            maxima = np.array([spec.action_max[ids[j]] for j in declared], dtype=float)
            levels = cols.actions[:-1, _selector(declared, len(ids))]
            rewards -= spec.lam * _competence_costs(levels, maxima, spec.action_cost_scale)
    return rewards, potentials


def _transition_rows(offsets: np.ndarray) -> np.ndarray:
    """A flag per row of a block: True for every row but its trajectory's last."""
    transition = np.ones(offsets[-1], dtype=bool)
    transition[offsets[1:][np.diff(offsets) > 0] - 1] = False
    return transition


class _BlockReturns:
    """The returns of every trajectory of one block, spec after spec.

    By the shaping identity, trajectory k's discounted return is
    gamma**(len - 1) * phi[last] - phi[first] - lam * sum_i gamma**i * cost_i
    over its transitions i (every row but its last). What does not depend on
    the spec is built once, with the plan: the moving trajectories (those
    of two rows or more; any other returns 0) and their lengths, one gather
    of their first and last rows, whether t and each feature column are
    finite in all of a trajectory's rows, and which actions its transitions
    set. A cost is linear in the levels, so each action's discounted level
    sum over a trajectory's transitions is costed once; those sums depend
    on gamma alone, and each distinct gamma's are computed once
    (_level_sums) and kept. A spec then costs one _potentials call on the
    gather, and reads its named columns' flags and declared actions' sums.
    """

    __slots__ = ("block", "moving", "lengths", "ends", "finite", "sets", "sums")

    def __init__(self, block: CohortColumns):
        offsets = block.offsets
        lengths = np.diff(offsets)
        nonempty = lengths > 0
        starts = offsets[:-1][nonempty]
        self.block = block
        self.moving = np.flatnonzero(lengths > 1)
        self.lengths = lengths[self.moving]
        self.ends = block.take_rows(
            np.concatenate([offsets[self.moving], offsets[self.moving + 1] - 1])
        )
        self.sums: dict[float, np.ndarray] = {}
        # [n, A]: whether a transition of trajectory k sets action a.
        self.sets = np.zeros((len(lengths), len(block.action_ids)), dtype=bool)
        sets = block.action_mask & _transition_rows(offsets)[:, None]
        self.sets[nonempty] = np.logical_or.reduceat(sets, starts)
        # [moving, 1 + F]: t's flag, then one per feature column. The cell
        # flags are built in place, so at most two [N, F] arrays are alive.
        cells = np.isfinite(block.values)
        cells &= np.isfinite(block.staleness)
        moved = lengths[nonempty] > 1
        self.finite = np.column_stack(
            [
                np.logical_and.reduceat(np.isfinite(block.t), starts)[moved],
                np.logical_and.reduceat(cells, starts)[moved],
            ]
        )

    def _level_sums(self, gamma: float) -> np.ndarray:
        """[A, moving]: each action's levels summed over each moving
        trajectory's transitions, the i-th weighted gamma**i. The levels
        are gathered a column at a time, which is much faster than
        gathering rows of a matrix this narrow."""
        offsets = self.block.offsets
        rows = np.flatnonzero(_transition_rows(offsets))
        moves = np.maximum(np.diff(offsets) - 1, 0)
        discounts = np.power(gamma, rows - np.repeat(offsets[:-1], moves))
        firsts = (np.cumsum(moves) - moves)[self.moving]
        columns = self.block.actions.T
        return np.array(
            [np.add.reduceat(levels[rows] * discounts, firsts) for levels in columns]
        ).reshape(len(columns), len(self.moving))

    def returns(self, spec: RewardSpec):
        """(cumulative[n], sets_undeclared[n]) of every trajectory of the
        block. A full sum of rewards turns non-finite when any row's
        potential does, so the return is NaN for a trajectory with a
        non-finite time, or value or staleness of a feature the spec names,
        in any row; a non-finite action level reaches the cost sum itself.
        sets_undeclared[k] is True when a transition of trajectory k sets
        an action the spec does not declare (flagged only when lam is not 0).
        """
        n = len(self.block.offsets) - 1
        cumulative, sets_undeclared = np.zeros(n), np.zeros(n, dtype=bool)
        if not self.moving.size:
            return cumulative, sets_undeclared
        select = _feature_columns(spec, self.block.feature_ids)[0]
        finite = self.finite[:, 0] & self.finite[:, 1:][:, select].all(axis=1)
        # Values that overflow or turn NaN stay in their own trajectory's return.
        with np.errstate(all="ignore"):
            first, last = np.split(_potentials(self.ends, spec), 2)
            returns = np.power(spec.gamma, self.lengths - 1) * last - first
            if spec.lam != 0.0:
                ids = self.block.action_ids
                declared = [j for j, aid in enumerate(ids) if aid in spec.action_max]
                undeclared = [j for j, aid in enumerate(ids) if aid not in spec.action_max]
                if undeclared:
                    sets_undeclared = self.sets[:, undeclared].any(axis=1)
                sums = self.sums.get(spec.gamma)
                if sums is None:
                    sums = self.sums[spec.gamma] = self._level_sums(spec.gamma)
                maxima = np.array([spec.action_max[ids[j]] for j in declared], dtype=float)
                returns -= spec.lam * _competence_costs(
                    sums[declared].T, maxima, spec.action_cost_scale
                )
        returns[~finite] = np.nan
        cumulative[self.moving] = returns
        return cumulative, sets_undeclared


def _check_undeclared_unset(trajectory: Trajectory, spec: RewardSpec) -> None:
    """Raises SchemaError naming the patient, the first action in block
    order that a transition of the trajectory sets and the spec does not
    declare, and the first t at which it is set."""
    block, k = trajectory.block
    lo, hi = block.offsets[k : k + 2].tolist()
    for j, aid in enumerate(block.action_ids):
        (rows,) = np.nonzero(block.action_mask[lo : hi - 1, j])
        if rows.size and aid not in spec.action_max:
            raise SchemaError(
                f"patient {trajectory.patient_id!r}: action {aid!r} not declared in the reward "
                f"spec's action_max at t={block.t[lo + rows[0]].item()}"
            )


# The last block's plan and the returns of its last spec, keyed on the
# block and the spec themselves: one slot, so memory does not grow with the
# number of blocks or specs (the plan's level sums grow only with the
# distinct gammas traced on its block). Both keys are frozen, so a call
# whose block and spec are the cached objects reads the cached lists, and
# a new spec on the cached block reuses its plan; the slot holds them, so
# neither id can be reused while it is there. It is read and replaced as
# one (block, plan, spec, lists) tuple, so concurrent calls never pair a
# key with another key's plan or lists; at worst they recompute.
_last_block: tuple = (None, None, None, None)


def trace(trajectory: Trajectory, spec: RewardSpec) -> RewardTrace:
    """Evaluate the spec over every consecutive step pair of one trajectory.

    The step reward is gamma * phi(next) - phi(prev) - lambda * cost(prev.action);
    with lambda 0 the actions are not read at all.

    The return is computed for every trajectory of the trajectory's block
    (the cohort's block for a view, its own columns otherwise) from the
    block's _BlockReturns plan, which is built once per block, and kept
    for the next call whose block and spec are the same objects. So
    tracing a cohort costs one plan per block, and per spec one
    potentials pass over two rows per trajectory (plus, once per distinct
    gamma, the discounted action level sums). A spec is frozen, so any
    other spec, equal or not (a dataclasses.replace copy, say), is traced
    afresh on the same plan. The per-step rewards and potentials are
    computed from the trajectory's own columns when first read.
    """
    global _last_block
    block, k = trajectory.__dict__.get("_view") or (trajectory.columns, 0)
    cached_block, plan, cached_spec, lists = _last_block
    if cached_block is not block:
        plan, cached_spec = _BlockReturns(block), None
    if cached_spec is not spec:
        cumulative, sets_undeclared = plan.returns(spec)
        lists = (cumulative.tolist(), sets_undeclared.tolist())
        _last_block = (block, plan, spec, lists)
    cumulative, sets_undeclared = lists
    if sets_undeclared[k]:
        _check_undeclared_unset(trajectory, spec)
    got = RewardTrace.__new__(RewardTrace)
    got.cumulative, got._trajectory, got._spec = cumulative[k], trajectory, spec
    return got


# ---------------------------------------------------------------------------
# Reference reward models. These carry no potential model, so their traces
# hold all-zero potentials.
# ---------------------------------------------------------------------------

TERMINAL_REWARD = 100.0


def baseline_orm(trajectory: Trajectory, gamma: float = defaults.GAMMA) -> RewardTrace:
    """Outcome-only: zero everywhere except +/-100 on the final transition."""
    n = len(trajectory.columns.t)
    rewards = [0.0] * (n - 1)
    rewards[-1] = TERMINAL_REWARD if trajectory.survived else -TERMINAL_REWARD
    return RewardTrace(
        rewards=rewards,
        potentials=[0.0] * n,
        cumulative=_discounted_sum(rewards, gamma),
    )


def baseline_prm(
    trajectory: Trajectory, gamma: float = defaults.GAMMA, scale: float = 1.0
) -> RewardTrace:
    """Process reward: a drop in the severity score is rewarded stepwise."""
    sofa = trajectory.columns.sofa
    rewards = (-scale * np.diff(sofa)).tolist()
    return RewardTrace(
        rewards=rewards,
        potentials=[0.0] * len(sofa),
        cumulative=_discounted_sum(rewards, gamma),
    )


def baseline_oprm(
    trajectory: Trajectory, gamma: float = defaults.GAMMA, scale: float = 1.0
) -> RewardTrace:
    """Outcome + process: elementwise sum of the two reference traces."""
    orm = baseline_orm(trajectory, gamma)
    prm = baseline_prm(trajectory, gamma, scale)
    rewards = [a + b for a, b in zip(orm.rewards, prm.rewards)]
    return RewardTrace(
        rewards=rewards,
        potentials=[0.0] * len(orm.potentials),
        cumulative=_discounted_sum(rewards, gamma),
    )


# ---------------------------------------------------------------------------
# Spec (de)serialization: UTF-8 JSON mirroring the fields exactly, except
# that lam is written "lambda" (its field's JSON key). Unknown keys are
# rejected so machine-produced specs fail loudly. Values are typed on read;
# their ranges are checked by SurvivalConfig and RewardSpec when they are made.
# ---------------------------------------------------------------------------


def _in_file(spec: RewardSpec) -> RewardSpec:
    """The spec, whose confidence taus must be finite in a file, as JSON
    numbers are (every other field's range excludes inf)."""
    for fid, tau in spec.confidence_tau.items():
        if tau == math.inf:
            raise ValidationError(f"confidence_tau[{fid!r}] must be finite in a spec file")
    return spec


def reward_spec_from_json(doc) -> RewardSpec:
    return _in_file(from_json(doc, RewardSpec, "reward spec", finite=False))


def reward_spec_to_json(spec: RewardSpec) -> dict:
    return to_json(_in_file(spec))


def load_reward_spec(path: str | Path) -> RewardSpec:
    return reward_spec_from_json(read_json(path, "reward spec"))


def save_reward_spec(spec: RewardSpec, path: str | Path) -> None:
    write_json(path, reward_spec_to_json(spec))
