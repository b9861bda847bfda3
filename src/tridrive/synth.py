"""Seeded generator of synthetic clinical-style cohorts.

Every patient carries a latent severity; a scalar wellness signal starts
low (everyone is admitted sick) and drifts toward (1 - severity), so
low-severity patients recover and high-severity patients deteriorate.
Feature values, the severity score, doses, and mortality all derive from
that wellness path, which makes the couplings the fitness metrics look for
unambiguous and tunable:

* mortality_coupling (0..1) blends outcome-vs-homeostasis coupling with a
  flat base mortality;
* staleness_gradient (>= 0) gives each patient a measurement-frequency
  offset, creating a cohort-level staleness spread uncorrelated with
  severity;
* overtreatment_prob (0..1) sends patients into a redundant-dose arm:
  maximum levels at every step with no effect on the state.

Generation is a pure function of the config: all randomness flows through
generators keyed on (seed, patient index, stream tag), so per-patient
generation could run in parallel without changing the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import defaults
from .errors import ConfigError, FormatError
from .jsonio import fields_from_json, read_json
from .model import ActionSpec, CohortColumns, FeatureSpec, FeatureType, TrajectoryDataset
from .rewards import RewardSpec, SurvivalConfig, SurvivalForm

# Stream tags for the per-patient generators.
_SEVERITY, _HORIZON, _WELLNESS, _DIRECTION, _VALUES, _SOFA, _STALENESS, _ACTIONS, _OUTCOME, _OVERTREAT = range(10)

_BASE_MORTALITY = 0.3
_ADMISSION_WELLNESS = 0.2
_DRIFT_RATE = 0.12
_SOFA_RAMP = 8.0


@dataclass
class CohortConfig:
    n_patients: int = 500
    horizon_min: int = 24
    horizon_max: int = 48
    n_normal: int = 3
    n_low: int = 2
    n_high: int = 1
    healthy_interval: tuple[float, float] = (0.35, 0.65)
    action_levels: dict[str, int] = field(default_factory=lambda: {"drug_a": 4, "drug_b": 4})
    mortality_coupling: float = 1.0
    staleness_gradient: float = 0.0
    overtreatment_prob: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if self.n_patients < 2:
            raise ConfigError("n_patients must be at least 2")
        if self.horizon_min < 2 or self.horizon_max < self.horizon_min:
            raise ConfigError("horizon must satisfy 2 <= min <= max")
        if self.n_normal + self.n_low + self.n_high < 1:
            raise ConfigError("at least one feature is required")
        lo, hi = self.healthy_interval
        if not (0.0 <= lo < hi <= 1.0):
            raise ConfigError("healthy_interval must satisfy 0 <= lo < hi <= 1")
        if not (0.0 <= self.mortality_coupling <= 1.0):
            raise ConfigError("mortality_coupling must lie in [0,1]")
        if self.staleness_gradient < 0:
            raise ConfigError("staleness_gradient must be nonnegative")
        if not (0.0 <= self.overtreatment_prob <= 1.0):
            raise ConfigError("overtreatment_prob must lie in [0,1]")
        for aid, levels in self.action_levels.items():
            if levels < 1:
                raise ConfigError(f"action {aid!r} needs at least 1 level")

    def feature_ids(self) -> tuple[list[str], list[str], list[str]]:
        return (
            [f"nr{j}" for j in range(self.n_normal)],
            [f"lo{j}" for j in range(self.n_low)],
            [f"hi{j}" for j in range(self.n_high)],
        )


def _rng(seed: int, patient: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, patient, tag]))


def generate(config: CohortConfig) -> TrajectoryDataset:
    """Generate a cohort; identical configs produce identical datasets."""
    config.validate()
    normal_ids, low_ids, high_ids = config.feature_ids()
    lo, hi = config.healthy_interval
    center = 0.5 * (lo + hi)

    feature_schema: dict[str, FeatureSpec] = {}
    for fid in normal_ids:
        feature_schema[fid] = FeatureSpec(0.0, 1.0, FeatureType.NORMAL_RANGE, (lo, hi))
    for fid in low_ids:
        feature_schema[fid] = FeatureSpec(0.0, 1.0, FeatureType.DIRECTIONAL_LOW)
    for fid in high_ids:
        feature_schema[fid] = FeatureSpec(0.0, 1.0, FeatureType.DIRECTIONAL_HIGH)
    action_schema = {
        aid: ActionSpec(max_value=float(levels), discrete=True)
        for aid, levels in config.action_levels.items()
    }
    all_ids = normal_ids + low_ids + high_ids
    action_ids = sorted(config.action_levels)

    patients = [
        _generate_patient(config, i, all_ids, normal_ids, center)
        for i in range(config.n_patients)
    ]
    # The block's feature columns are in sorted id order.
    order = sorted(range(len(all_ids)), key=all_ids.__getitem__)
    recorded = np.concatenate([p.recorded for p in patients])[:, order]
    n_rows = len(recorded)
    block = CohortColumns(
        feature_ids=sorted(all_ids),
        action_ids=action_ids,
        t=np.concatenate([np.arange(len(p.sofa)) for p in patients]),
        sofa=np.concatenate([p.sofa for p in patients]),
        values=recorded,
        staleness=np.concatenate([p.staleness for p in patients])[:, order].astype(float),
        mask=np.ones(recorded.shape, dtype=bool),
        actions=np.concatenate([p.doses for p in patients]),
        action_mask=np.ones((n_rows, len(action_ids)), dtype=bool),
        whole=[True] * len(action_ids),
        offsets=np.array([0] + [len(p.sofa) for p in patients]).cumsum(),
    )
    return TrajectoryDataset(
        trajectories=block.views(
            [f"synth_{i:05d}" for i in range(config.n_patients)],
            [p.survived for p in patients],
            [float(p.sofa[0]) for p in patients],
        ),
        feature_schema=feature_schema,
        action_schema=action_schema,
    )


@dataclass
class _Patient:
    """One generated stay, as arrays over its steps (features in all_ids order)."""

    sofa: np.ndarray  # [T]
    recorded: np.ndarray  # [T, F]
    staleness: np.ndarray  # [T, F]
    doses: np.ndarray  # [T, A], actions in sorted id order
    survived: bool


def _generate_patient(
    config: CohortConfig,
    i: int,
    all_ids: list[str],
    normal_ids: list[str],
    center: float,
) -> _Patient:
    seed = config.seed
    severity = float(_rng(seed, i, _SEVERITY).uniform())
    horizon = int(_rng(seed, i, _HORIZON).integers(config.horizon_min, config.horizon_max + 1))
    n_features = len(all_ids)

    # Wellness path: everyone is admitted sick and drifts toward 1 - severity.
    wellness_noise = _rng(seed, i, _WELLNESS).normal(size=horizon)
    wellness = np.empty(horizon)
    wellness[0] = np.clip(_ADMISSION_WELLNESS + 0.05 * wellness_noise[0], 0.02, 0.98)
    target = 1.0 - severity
    for t in range(1, horizon):
        drift = _DRIFT_RATE * (target - wellness[t - 1])
        wellness[t] = np.clip(wellness[t - 1] + drift + 0.02 * wellness_noise[t], 0.02, 0.98)

    # Severity score: survivors hold near their admission baseline while
    # sicker patients deteriorate away from it over the stay.
    sofa_noise = _rng(seed, i, _SOFA).normal(size=horizon)
    ramp = _SOFA_RAMP * severity * (np.arange(horizon) / max(horizon - 1, 1))
    sofa = np.clip(4.0 + 10.0 * severity + ramp + 0.3 * sofa_noise, 0.0, None)

    # Latent (fully fresh) feature values.
    signs = np.where(_rng(seed, i, _DIRECTION).uniform(size=len(normal_ids)) < 0.5, -1.0, 1.0)
    value_noise = _rng(seed, i, _VALUES).normal(size=(horizon, n_features))
    latent = np.empty((horizon, n_features))
    for j, fid in enumerate(all_ids):
        if fid.startswith("nr"):
            sign = signs[normal_ids.index(fid)]
            latent[:, j] = center + (1.0 - wellness) * 0.45 * sign + 0.02 * value_noise[:, j]
        elif fid.startswith("lo"):
            latent[:, j] = (1.0 - wellness) * 0.85 + 0.03 + 0.02 * value_noise[:, j]
        else:
            latent[:, j] = wellness * 0.85 + 0.1 + 0.02 * value_noise[:, j]
    latent = np.clip(latent, 0.0, 1.0)

    # Staleness: a fresh measurement lands with a per-patient probability;
    # stale steps carry the last recorded value forward.
    stale_rng = _rng(seed, i, _STALENESS)
    bias = config.staleness_gradient * float(stale_rng.uniform())
    p_fresh = float(np.clip(0.9 - 0.1 * bias, 0.05, 0.95))
    fresh_draws = stale_rng.uniform(size=(horizon, n_features))
    recorded = latent.copy()
    staleness = np.zeros((horizon, n_features), dtype=int)
    for t in range(1, horizon):
        for j in range(n_features):
            if fresh_draws[t, j] >= p_fresh:
                staleness[t, j] = staleness[t - 1, j] + 1
                recorded[t, j] = recorded[t - 1, j]

    # Doses: severity-proportional, or maxed out in the redundant-dose arm.
    overtreated = bool(
        config.overtreatment_prob > 0.0
        and _rng(seed, i, _OVERTREAT).uniform() < config.overtreatment_prob
    )
    action_noise = _rng(seed, i, _ACTIONS).normal(size=horizon)
    levels = np.array([config.action_levels[aid] for aid in sorted(config.action_levels)])
    if overtreated:
        doses = np.tile(levels, (horizon, 1)).astype(float)
    else:
        frac = np.clip(0.8 * severity + 0.15 * action_noise, 0.0, 1.0)
        doses = np.rint(levels * frac[:, None])

    # Outcome: death probability rises as mean wellness falls.
    mean_wellness = float(wellness.mean())
    coupled = 1.0 / (1.0 + math.exp(12.0 * (mean_wellness - 0.45)))
    p_death = (
        config.mortality_coupling * coupled
        + (1.0 - config.mortality_coupling) * _BASE_MORTALITY
    )
    survived = bool(_rng(seed, i, _OUTCOME).uniform() >= p_death)
    return _Patient(sofa, recorded, staleness, doses, survived)


def reference_spec(config: CohortConfig) -> RewardSpec:
    """Reward spec aligned with the generator's own healthy ranges: bell
    curves centered on the normal interval, directional decays elsewhere."""
    config.validate()
    normal_ids, low_ids, high_ids = config.feature_ids()
    lo, hi = config.healthy_interval
    center, halfwidth = 0.5 * (lo + hi), 0.5 * (hi - lo)
    survival: dict[str, SurvivalConfig] = {}
    for fid in normal_ids:
        survival[fid] = SurvivalConfig(form=SurvivalForm.BELL, mu=center, sigma=halfwidth)
    for fid in low_ids:
        survival[fid] = SurvivalConfig(form=SurvivalForm.DECAY_LOW, tau=defaults.DIRECTIONAL_TAU)
    for fid in high_ids:
        survival[fid] = SurvivalConfig(form=SurvivalForm.DECAY_HIGH, tau=defaults.DIRECTIONAL_TAU)
    all_ids = normal_ids + low_ids + high_ids
    return RewardSpec(
        survival=survival,
        confidence_tau={fid: defaults.CONFIDENCE_TAU_HOURS for fid in all_ids},
        action_max={aid: float(mx) for aid, mx in config.action_levels.items()},
        decay_half_life=defaults.DECAY_HALF_LIFE,
        gamma=defaults.GAMMA,
        lam=defaults.LAMBDA,
        action_cost_scale=defaults.ACTION_COST_SCALE,
    )


# ---------------------------------------------------------------------------
# Config file format
# ---------------------------------------------------------------------------


def cohort_config_from_json(doc: dict) -> CohortConfig:
    """A config object holds CohortConfig's fields, except that the horizon
    bounds are one key, "horizon": [min, max]."""
    what = "cohort config"
    if not isinstance(doc, dict):
        raise FormatError(f"{what} must be a JSON object")
    rest = {k: v for k, v in doc.items() if k != "horizon"}
    kwargs = fields_from_json(CohortConfig, rest, what, exclude=("horizon_min", "horizon_max"))
    if "horizon" in doc:
        h = doc["horizon"]
        if not (isinstance(h, list) and len(h) == 2):
            raise FormatError(f"{what}: horizon must be [min, max]")
        bounds = {"horizon_min": h[0], "horizon_max": h[1]}
        kwargs.update(fields_from_json(CohortConfig, bounds, f"{what}: horizon"))
    config = CohortConfig(**kwargs)
    config.validate()
    return config


def load_cohort_config(path: str | Path) -> CohortConfig:
    return cohort_config_from_json(read_json(path, "cohort config"))
