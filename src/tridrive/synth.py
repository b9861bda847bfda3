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
streams keyed on (seed, patient index, stream tag), each the stream of
`np.random.default_rng(np.random.SeedSequence([seed, patient, tag]))`. The
generator states of every key are computed at once, as arrays
(`streams.seed_states`), and one generator is reseated to a key's state
before its stream is read. Generation runs in two passes. The draw pass
makes each patient's draws from that patient's streams, in a fixed order
and size per stream, into arrays over the whole cohort's rows. The cohort
pass then computes every patient at once: the wellness recursion steps all
patients together, carry-forward of stale values is a running maximum over
fresh row indices, and the rest is elementwise. Each element goes through
the same floating-point operations in the same order as a
patient-at-a-time loop would apply (and each mean wellness is numpy's
pairwise mean over that patient's own steps), so the written dataset does
not depend on how the work is batched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import defaults
from .errors import ConfigError, FormatError
from .jsonio import fields_from_json, read_json
from .model import ActionSpec, CohortColumns, FeatureSpec, FeatureType, TrajectoryDataset
from .rewards import RewardSpec, SurvivalConfig, SurvivalForm
from .streams import reseat, seed_states

# Stream tags for the per-patient generators.
_TAGS = range(10)
_SEVERITY, _HORIZON, _WELLNESS, _DIRECTION, _VALUES, _SOFA, _STALENESS, _ACTIONS, _OUTCOME, _OVERTREAT = _TAGS

_BASE_MORTALITY = 0.3
_ADMISSION_WELLNESS = 0.2
_DRIFT_RATE = 0.12
_SOFA_RAMP = 8.0


@dataclass(frozen=True)
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

    def __post_init__(self):
        # Read-only, so that the levels checked here are the ones generated.
        object.__setattr__(self, "action_levels", MappingProxyType(dict(self.action_levels)))
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
        if not (0.0 <= self.staleness_gradient < math.inf):
            raise ConfigError("staleness_gradient must be a finite nonnegative number")
        if not (0.0 <= self.overtreatment_prob <= 1.0):
            raise ConfigError("overtreatment_prob must lie in [0,1]")
        for aid, levels in self.action_levels.items():
            if levels < 1:
                raise ConfigError(f"action {aid!r} needs at least 1 level")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")

    def feature_ids(self) -> tuple[list[str], list[str], list[str]]:
        return (
            [f"nr{j}" for j in range(self.n_normal)],
            [f"lo{j}" for j in range(self.n_low)],
            [f"hi{j}" for j in range(self.n_high)],
        )


def generate(config: CohortConfig) -> TrajectoryDataset:
    """Generate a cohort; identical configs produce identical datasets."""
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

    draws = _Draws(config, len(normal_ids), len(all_ids))
    offsets, n_rows = draws.offsets, int(draws.offsets[-1])
    horizon = np.diff(offsets)
    patient = np.repeat(np.arange(config.n_patients), horizon)
    t = np.arange(n_rows) - offsets[patient]
    severity = draws.severity[patient]

    # Wellness path: everyone is admitted sick and drifts toward 1 - severity.
    # One step of every patient at a time; rows past a horizon are never read.
    noise, target = draws.wellness_noise, 1.0 - draws.severity
    path = np.empty_like(noise)
    path[0] = np.clip(_ADMISSION_WELLNESS + 0.05 * noise[0], 0.02, 0.98)
    for s in range(1, len(path)):
        drift = _DRIFT_RATE * (target - path[s - 1])
        path[s] = np.clip(path[s - 1] + drift + 0.02 * noise[s], 0.02, 0.98)
    wellness = path[t, patient]

    # Severity score: survivors hold near their admission baseline while
    # sicker patients deteriorate away from it over the stay.
    ramp = _SOFA_RAMP * severity * (t / np.maximum(horizon - 1, 1)[patient])
    sofa = np.clip(4.0 + 10.0 * severity + ramp + 0.3 * draws.sofa_noise, 0.0, None)

    # Latent (fully fresh) feature values, computed in place over their noise.
    latent = draws.value_noise
    signs = np.where(draws.signs < 0.5, -1.0, 1.0)
    for j, fid in enumerate(all_ids):
        jitter = 0.02 * latent[:, j]
        if fid.startswith("nr"):
            sign = signs[patient, normal_ids.index(fid)]
            latent[:, j] = center + (1.0 - wellness) * 0.45 * sign + jitter
        elif fid.startswith("lo"):
            latent[:, j] = (1.0 - wellness) * 0.85 + 0.03 + jitter
        else:
            latent[:, j] = wellness * 0.85 + 0.1 + jitter
    np.clip(latent, 0.0, 1.0, out=latent)

    # Staleness: a stale step carries the last fresh value forward. Every
    # stay starts fresh, so the running maximum of the fresh rows' indices
    # never reaches back into the previous stay. The block's feature
    # columns are in sorted id order.
    order = sorted(range(len(all_ids)), key=all_ids.__getitem__)
    stale = draws.stale[:, order]
    stale[offsets[:-1]] = False
    rows = np.arange(n_rows)[:, None]
    last = np.where(stale, 0, rows)
    np.maximum.accumulate(last, axis=0, out=last)
    recorded = latent[last, order]
    staleness = np.subtract(rows, last, dtype=float)
    del last  # lowers the peak: the remaining columns are allocated after this

    # Doses: severity-proportional, or maxed out in the redundant-dose arm.
    levels = np.array([config.action_levels[aid] for aid in action_ids])
    frac = np.clip(0.8 * severity + 0.15 * draws.action_noise, 0.0, 1.0)
    doses = np.rint(levels * frac[:, None])
    doses[draws.overtreated[patient]] = levels

    # Outcome: death probability rises as mean wellness falls. Each mean is
    # numpy's pairwise sum over the patient's own rows.
    bounds = offsets.tolist()
    survived = []
    for i, u in enumerate(draws.outcome.tolist()):
        mean_wellness = float(wellness[bounds[i] : bounds[i + 1]].mean())
        coupled = 1.0 / (1.0 + math.exp(12.0 * (mean_wellness - 0.45)))
        p_death = (
            config.mortality_coupling * coupled
            + (1.0 - config.mortality_coupling) * _BASE_MORTALITY
        )
        survived.append(u >= p_death)

    block = CohortColumns(
        feature_ids=sorted(all_ids),
        action_ids=action_ids,
        t=t,
        sofa=sofa,
        values=recorded,
        staleness=staleness,
        mask=np.ones(recorded.shape, dtype=bool),
        actions=doses,
        action_mask=np.ones(doses.shape, dtype=bool),
        whole=[True] * len(action_ids),
        offsets=offsets,
    )
    return TrajectoryDataset(
        trajectories=block.views(
            [f"synth_{i:05d}" for i in range(config.n_patients)],
            survived,
            sofa[offsets[:-1]].tolist(),
        ),
        feature_schema=feature_schema,
        action_schema=action_schema,
    )


class _Draws:
    """Every random draw of a cohort, made patient by patient from that
    patient's streams. Row arrays hold the patients' steps one stay after
    another (rows offsets[i] to offsets[i + 1] - 1 are patient i's);
    features are in the config's normal, low, high order.

    One generator reads every stream, reseated to the stream's key first."""

    def __init__(self, config: CohortConfig, n_normal: int, n_features: int):
        n = config.n_patients
        keys = np.arange(n * len(_TAGS))
        states = seed_states(config.seed, keys // len(_TAGS), keys % len(_TAGS))
        states = states.reshape(n, len(_TAGS), 4)
        bits = np.random.PCG64(0)
        generator = np.random.Generator(bits)

        def stream(i: int, tag: int) -> np.random.Generator:
            reseat(bits, states[i, tag])
            return generator

        self.severity = np.array([stream(i, _SEVERITY).uniform() for i in range(n)])
        horizons = [
            int(stream(i, _HORIZON).integers(config.horizon_min, config.horizon_max + 1))
            for i in range(n)
        ]
        self.offsets = np.array([0, *horizons]).cumsum()
        n_rows = int(self.offsets[-1])
        self.wellness_noise = np.zeros((max(horizons), n))  # [step, patient]
        self.sofa_noise = np.empty(n_rows)
        self.signs = np.empty((n, n_normal))  # uniform draws
        self.value_noise = np.empty((n_rows, n_features))
        self.stale = np.empty((n_rows, n_features), dtype=bool)
        self.overtreated = np.zeros(n, dtype=bool)
        self.action_noise = np.empty(n_rows)
        self.outcome = np.empty(n)  # uniform draws
        bounds = self.offsets.tolist()
        for i, h in enumerate(horizons):
            rows = slice(bounds[i], bounds[i + 1])
            self.wellness_noise[:h, i] = stream(i, _WELLNESS).normal(size=h)
            self.sofa_noise[rows] = stream(i, _SOFA).normal(size=h)
            self.signs[i] = stream(i, _DIRECTION).uniform(size=n_normal)
            self.value_noise[rows] = stream(i, _VALUES).normal(size=(h, n_features))
            # A fresh measurement lands with a per-patient probability.
            stale_rng = stream(i, _STALENESS)
            bias = config.staleness_gradient * float(stale_rng.uniform())
            p_fresh = min(max(0.9 - 0.1 * bias, 0.05), 0.95)
            self.stale[rows] = stale_rng.uniform(size=(h, n_features)) >= p_fresh
            if config.overtreatment_prob > 0.0:
                u = stream(i, _OVERTREAT).uniform()
                self.overtreated[i] = u < config.overtreatment_prob
            self.action_noise[rows] = stream(i, _ACTIONS).normal(size=h)
            self.outcome[i] = stream(i, _OUTCOME).uniform()


def reference_spec(config: CohortConfig) -> RewardSpec:
    """Reward spec aligned with the generator's own healthy ranges: bell
    curves centered on the normal interval, directional decays elsewhere."""
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
    return CohortConfig(**kwargs)


def load_cohort_config(path: str | Path) -> CohortConfig:
    return cohort_config_from_json(read_json(path, "cohort config"))
