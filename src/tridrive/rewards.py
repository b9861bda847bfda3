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
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from . import defaults
from .errors import FormatError, SchemaError, ValidationError
from .jsonio import fields_from_json, read_json, write_json
from .model import CohortColumns, Trajectory


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

    @cached_property
    def coefficients(self) -> tuple[float, float, float]:
        """(c, b, m) of this curve in the survival kernel's form."""
        if self.form is SurvivalForm.BELL:
            return 1.0 / self.sigma, 0.0, self.mu
        if self.form is SurvivalForm.DECAY_LOW:
            return 0.0, 1.0 / self.tau, 0.0
        if self.form is SurvivalForm.DECAY_HIGH:
            return 0.0, -1.0 / self.tau, 1.0
        return 0.0, math.log(2.0) / self.sigma, self.mu


@dataclass
class RewardSpec:
    """One candidate reward function in declarative form."""

    survival: dict[str, SurvivalConfig]
    confidence_tau: dict[str, float]
    action_max: dict[str, float]
    decay_half_life: float = defaults.DECAY_HALF_LIFE
    gamma: float = defaults.GAMMA
    lam: float = defaults.LAMBDA
    action_cost_scale: float = defaults.ACTION_COST_SCALE
    normalize_potential: bool = True

    def validate(self) -> None:
        if set(self.survival) != set(self.confidence_tau):
            raise ValidationError("survival and confidence_tau must cover the same features")
        for fid, tau in self.confidence_tau.items():
            if not _positive(tau):
                raise ValidationError(f"confidence_tau[{fid!r}] must be a finite positive number")
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
    """Per-step rewards and potentials of one trajectory.

    rewards[i] belongs to the transition steps[i] -> steps[i+1];
    potentials[i] belongs to steps[i]. cumulative is the discounted sum of
    rewards where the discount exponent is the transition position (not
    the absolute hour).
    """

    rewards: list[float]
    potentials: list[float]
    cumulative: float


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
# caps every score at 1.


def _survival_scores(values: np.ndarray, c, b, m) -> np.ndarray:
    d = values - m
    z = c * d
    return np.exp(-np.maximum(0.5 * z * z + b * d, 0.0))


def _confidence_weights(staleness: np.ndarray, tau) -> np.ndarray:
    return np.exp(-staleness / tau)


def _time_decays(t: np.ndarray, half_life: float) -> np.ndarray:
    return np.power(0.5, t / half_life)


def _competence_costs(levels: np.ndarray, maxima: np.ndarray, scale: float) -> np.ndarray:
    """Per-row dose penalty of a [steps, actions] level matrix."""
    return scale * (levels / maxima).sum(axis=-1)


def _check_declared_actions(action_ids, spec: RewardSpec) -> None:
    unknown = sorted(set(action_ids) - spec.action_max.keys())
    if unknown:
        raise SchemaError(f"action {unknown[0]!r} not declared in the reward spec's action_max")


def survival_score(value: float, cfg: SurvivalConfig) -> float:
    """Score one normalized feature value in [0,1] against its survival curve."""
    return float(_survival_scores(np.float64(value), *cfg.coefficients))


def confidence_weight(staleness: float, tau: float) -> float:
    """Trust in a measurement that is `staleness` hours old: exp(-dt/tau)."""
    return float(_confidence_weights(np.float64(staleness), tau))


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
    fids = [fid for fid in spec.survival if fid in cols.feature_ids]
    idx = [cols.feature_ids.index(fid) for fid in fids]
    c, b, m, weight, tau = np.array(
        [
            (*spec.survival[fid].coefficients, spec.survival[fid].weight, spec.confidence_tau[fid])
            for fid in fids
        ],
        dtype=float,
    ).reshape(len(fids), 5).T
    weights = cols.mask[:, idx] * weight
    score = _survival_scores(cols.values[:, idx], c, b, m)
    trust = _confidence_weights(cols.staleness[:, idx], tau)
    num = (weights * score * trust).sum(axis=1)
    den = weights.sum(axis=1)
    present = den > 0.0
    if spec.normalize_potential:
        num = np.minimum(num / np.where(present, den, 1.0), 1.0)
    base = np.where(present, num, 0.5)
    return _time_decays(cols.t, spec.decay_half_life) * base


def trace(trajectory: Trajectory, spec: RewardSpec) -> RewardTrace:
    """Evaluate the spec over every consecutive step pair of one trajectory.

    The step reward is gamma * phi(next) - phi(prev) - lambda * cost(prev.action);
    with lambda 0 the actions are not read at all.
    """
    cols = trajectory.columns
    potentials = _potentials(cols, spec)
    rewards = spec.gamma * potentials[1:] - potentials[:-1]
    if spec.lam != 0.0:
        declared = [aid for aid in cols.action_ids if aid in spec.action_max]
        if len(declared) < len(cols.action_ids):
            acting = cols.action_mask[:-1].any(axis=0).tolist()
            _check_declared_actions([aid for aid, a in zip(cols.action_ids, acting) if a], spec)
        costs = _competence_costs(
            cols.actions[:-1, [cols.action_ids.index(aid) for aid in declared]],
            np.array([spec.action_max[aid] for aid in declared]),
            spec.action_cost_scale,
        )
        rewards -= spec.lam * costs
    discounts = np.power(spec.gamma, np.arange(len(rewards)))
    return RewardTrace(
        rewards=rewards.tolist(),
        potentials=potentials.tolist(),
        cumulative=float(rewards @ discounts),
    )


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
# that lam is written "lambda". Unknown keys are rejected so machine-produced
# specs fail loudly. Values are typed on read; their ranges are checked by
# SurvivalConfig and RewardSpec.validate.
# ---------------------------------------------------------------------------


_KEYS = {"lam": "lambda"}


def _survival_from_json(fid: str, doc) -> SurvivalConfig:
    what = f"survival[{fid!r}]"
    kwargs = fields_from_json(SurvivalConfig, doc, what, finite=False)
    try:
        kwargs["form"] = SurvivalForm(kwargs["form"])
    except ValueError as exc:
        raise FormatError(f"{what}: unknown form {kwargs['form']!r}") from exc
    return SurvivalConfig(**kwargs)


def reward_spec_from_json(doc) -> RewardSpec:
    kwargs = fields_from_json(RewardSpec, doc, "reward spec", finite=False, keys=_KEYS)
    kwargs["survival"] = {
        fid: _survival_from_json(fid, entry) for fid, entry in kwargs["survival"].items()
    }
    spec = RewardSpec(**kwargs)
    spec.validate()
    return spec


def reward_spec_to_json(spec: RewardSpec) -> dict:
    survival = {}
    for fid, cfg in sorted(spec.survival.items()):
        entry = {"form": cfg.form.value}
        for name in _FORM_PARAMS[cfg.form]:
            entry[name] = getattr(cfg, name)
        entry["weight"] = cfg.weight
        survival[fid] = entry
    return {
        "survival": survival,
        "confidence_tau": dict(sorted(spec.confidence_tau.items())),
        "action_max": dict(sorted(spec.action_max.items())),
        "decay_half_life": spec.decay_half_life,
        "gamma": spec.gamma,
        "lambda": spec.lam,
        "action_cost_scale": spec.action_cost_scale,
        "normalize_potential": spec.normalize_potential,
    }


def load_reward_spec(path: str | Path) -> RewardSpec:
    return reward_spec_from_json(read_json(path, "reward spec"))


def save_reward_spec(spec: RewardSpec, path: str | Path) -> None:
    spec.validate()
    write_json(path, reward_spec_to_json(spec))
