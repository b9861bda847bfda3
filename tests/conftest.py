"""Shared fixtures and independent oracles used across the suite."""

from __future__ import annotations

import copy
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from tridrive.model import (
    ActionSpec,
    FeatureSpec,
    FeatureType,
    Observation,
    Step,
    Trajectory,
    TrajectoryDataset,
)
from tridrive.errors import ConfigError, LlmClientError, SchemaError, ValidationError
from tridrive.rewards import RewardSpec, SurvivalConfig, SurvivalForm
from tridrive import synth
from tridrive.synth import CohortConfig, generate


class ScriptedLlmClient:
    """Replays a fixed list of responses, cycling when exhausted."""

    def __init__(self, responses: list[str], cycle: bool = True):
        if not responses:
            raise ConfigError("ScriptedLlmClient needs at least one response")
        self.responses = list(responses)
        self.cycle = cycle
        self.calls = 0

    def complete(self, prompt: str) -> str:
        i = self.calls
        self.calls += 1
        if i >= len(self.responses):
            if not self.cycle:
                raise LlmClientError("scripted client ran out of responses")
            i %= len(self.responses)
        return self.responses[i]


def make_step(t, values, staleness=None, action=None, sofa=5.0):
    staleness = staleness or {}
    return Step(
        t=t,
        sofa=sofa,
        observations={
            fid: Observation(value=v, staleness=staleness.get(fid, 0))
            for fid, v in values.items()
        },
        action=action or {},
    )


def make_dataset(trajectories, feature_types=None, action_max=None):
    """Build a dataset whose schema is inferred from the first trajectory."""
    feature_types = feature_types or {}
    fids = sorted(trajectories[0].steps[0].observations)
    schema = {}
    for fid in fids:
        ftype = feature_types.get(fid, FeatureType.NORMAL_RANGE)
        interval = (0.4, 0.6) if ftype is FeatureType.NORMAL_RANGE else None
        schema[fid] = FeatureSpec(0.0, 1.0, ftype, interval)
    actions = {}
    for traj in trajectories:
        for step in traj.steps:
            for aid in step.action:
                actions.setdefault(aid, 4.0)
    if action_max:
        actions.update(action_max)
    return TrajectoryDataset(
        trajectories=trajectories,
        feature_schema=schema,
        action_schema={aid: ActionSpec(max_value=mx) for aid, mx in actions.items()},
    )


def simple_spec(fids=("f1",), gamma=0.99, lam=0.0, half_life=48.0, tau_conf=6.0,
                action_max=None, mu=0.5, sigma=0.1):
    return RewardSpec(
        survival={
            fid: SurvivalConfig(form=SurvivalForm.BELL, mu=mu, sigma=sigma) for fid in fids
        },
        confidence_tau={fid: tau_conf for fid in fids},
        action_max=action_max or {"drug_a": 4.0, "drug_b": 4.0},
        decay_half_life=half_life,
        gamma=gamma,
        lam=lam,
    )


@pytest.fixture
def two_patient_dataset():
    trajs = [
        Trajectory(
            patient_id="p1",
            steps=[
                make_step(0, {"f1": 0.5, "f2": 0.2}, sofa=6.0, action={"drug_a": 1}),
                make_step(1, {"f1": 0.55, "f2": 0.3}, {"f2": 2}, sofa=5.0, action={"drug_a": 2}),
                make_step(2, {"f1": 0.6, "f2": 0.25}, sofa=4.0, action={"drug_a": 0}),
            ],
            survived=True,
            sofa_baseline=6.0,
        ),
        Trajectory(
            patient_id="p2",
            steps=[
                make_step(0, {"f1": 0.3, "f2": 0.8}, sofa=10.0, action={"drug_a": 3}),
                make_step(2, {"f1": 0.2, "f2": 0.9}, {"f1": 1}, sofa=12.0, action={"drug_a": 4}),
            ],
            survived=False,
            sofa_baseline=10.0,
        ),
    ]
    return make_dataset(
        trajs,
        feature_types={"f2": FeatureType.DIRECTIONAL_LOW},
    )


# Session-scoped synthetic cohorts: these back both the unit tests on the
# generator couplings and the acceptance experiments.


@pytest.fixture(scope="session")
def cohort500():
    return generate(CohortConfig(n_patients=500, seed=42))


@pytest.fixture(scope="session")
def cohort_overtreated():
    return generate(CohortConfig(n_patients=500, seed=42, overtreatment_prob=0.5))


@pytest.fixture(scope="session")
def cohort_stale():
    return generate(CohortConfig(n_patients=500, seed=42, staleness_gradient=9.0))


# ---------------------------------------------------------------------------
# Scalar oracle of the cohort generator: one patient at a time, per-step
# loops, assembled from Step objects. It draws from the same keyed streams.
# ---------------------------------------------------------------------------


def oracle_generate(config):
    """The cohort synth.generate makes for config."""
    normal_ids, low_ids, high_ids = config.feature_ids()
    lo, hi = config.healthy_interval
    schema = {fid: FeatureSpec(0.0, 1.0, FeatureType.NORMAL_RANGE, (lo, hi)) for fid in normal_ids}
    schema.update({fid: FeatureSpec(0.0, 1.0, FeatureType.DIRECTIONAL_LOW) for fid in low_ids})
    schema.update({fid: FeatureSpec(0.0, 1.0, FeatureType.DIRECTIONAL_HIGH) for fid in high_ids})
    return TrajectoryDataset(
        trajectories=[_oracle_patient(config, i) for i in range(config.n_patients)],
        feature_schema=schema,
        action_schema={
            aid: ActionSpec(max_value=float(levels), discrete=True)
            for aid, levels in config.action_levels.items()
        },
    )


def _oracle_rng(seed, patient, tag):
    """The generator of stream (seed, patient, tag), built from its key."""
    return np.random.default_rng(np.random.SeedSequence([seed, patient, tag]))


def _oracle_patient(config, i):
    seed, rng = config.seed, _oracle_rng
    normal_ids, low_ids, high_ids = config.feature_ids()
    all_ids = normal_ids + low_ids + high_ids
    center = 0.5 * sum(config.healthy_interval)
    severity = float(rng(seed, i, synth._SEVERITY).uniform())
    horizon = int(rng(seed, i, synth._HORIZON).integers(config.horizon_min, config.horizon_max + 1))
    n_features = len(all_ids)

    wellness_noise = rng(seed, i, synth._WELLNESS).normal(size=horizon)
    wellness = np.empty(horizon)
    wellness[0] = np.clip(0.2 + 0.05 * wellness_noise[0], 0.02, 0.98)
    target = 1.0 - severity
    for t in range(1, horizon):
        drift = 0.12 * (target - wellness[t - 1])
        wellness[t] = np.clip(wellness[t - 1] + drift + 0.02 * wellness_noise[t], 0.02, 0.98)

    sofa_noise = rng(seed, i, synth._SOFA).normal(size=horizon)
    ramp = 8.0 * severity * (np.arange(horizon) / max(horizon - 1, 1))
    sofa = np.clip(4.0 + 10.0 * severity + ramp + 0.3 * sofa_noise, 0.0, None)

    signs = np.where(rng(seed, i, synth._DIRECTION).uniform(size=len(normal_ids)) < 0.5, -1.0, 1.0)
    value_noise = rng(seed, i, synth._VALUES).normal(size=(horizon, n_features))
    latent = np.empty((horizon, n_features))
    for j, fid in enumerate(all_ids):
        if fid in normal_ids:
            sign = signs[normal_ids.index(fid)]
            latent[:, j] = center + (1.0 - wellness) * 0.45 * sign + 0.02 * value_noise[:, j]
        elif fid in low_ids:
            latent[:, j] = (1.0 - wellness) * 0.85 + 0.03 + 0.02 * value_noise[:, j]
        else:
            latent[:, j] = wellness * 0.85 + 0.1 + 0.02 * value_noise[:, j]
    latent = np.clip(latent, 0.0, 1.0)

    stale_rng = rng(seed, i, synth._STALENESS)
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

    overtreated = bool(
        config.overtreatment_prob > 0.0
        and rng(seed, i, synth._OVERTREAT).uniform() < config.overtreatment_prob
    )
    action_noise = rng(seed, i, synth._ACTIONS).normal(size=horizon)
    action_ids = sorted(config.action_levels)
    doses = []
    for t in range(horizon):
        frac = min(max(0.8 * severity + 0.15 * action_noise[t], 0.0), 1.0)
        doses.append({
            aid: float(levels if overtreated else np.rint(levels * frac))
            for aid, levels in ((aid, config.action_levels[aid]) for aid in action_ids)
        })

    coupled = 1.0 / (1.0 + math.exp(12.0 * (float(wellness.mean()) - 0.45)))
    beta = config.mortality_coupling
    p_death = beta * coupled + (1.0 - beta) * 0.3
    survived = bool(rng(seed, i, synth._OUTCOME).uniform() >= p_death)
    steps = [
        Step(
            t=t,
            sofa=float(sofa[t]),
            observations={
                fid: Observation(float(recorded[t, j]), int(staleness[t, j]))
                for j, fid in enumerate(all_ids)
            },
            action=doses[t],
        )
        for t in range(horizon)
    ]
    return Trajectory(f"synth_{i:05d}", steps, survived, float(sofa[0]))


def cohort_digest(dataset):
    """sha256 of a cohort's content, whatever file format carried it: the
    block's ids and arrays (integers as int64, reals as float64, flags as
    bools), the patient ids, survived and the baselines."""
    cols, trajs = dataset.columns, dataset.trajectories
    h = hashlib.sha256()
    h.update(json.dumps([cols.feature_ids, cols.action_ids, cols.whole,
                         [t.patient_id for t in trajs], [t.survived for t in trajs]]).encode())
    h.update(np.array([t.sofa_baseline for t in trajs], dtype="<f8").tobytes())
    for name, dtype in (("offsets", "<i8"), ("t", "<i8"), ("sofa", "<f8"), ("values", "<f8"),
                        ("staleness", "<f8"), ("mask", "?"), ("actions", "<f8"),
                        ("action_mask", "?")):
        h.update(np.ascontiguousarray(getattr(cols, name), dtype=dtype).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Independent oracle: tabular value iteration for policy-invariance checks.
# ---------------------------------------------------------------------------


def value_iteration(transition, reward, gamma=0.99, tol=1e-10, max_iter=200_000):
    """Greedy policy of a tabular MDP.

    transition: (S, A, S) array of probabilities; reward: (S, A) expected
    rewards. Returns (greedy policy array, optimal values).
    """
    n_states = transition.shape[0]
    values = np.zeros(n_states)
    for _ in range(max_iter):
        q = reward + gamma * np.einsum("sat,t->sa", transition, values)
        new_values = q.max(axis=1)
        if np.max(np.abs(new_values - values)) < tol:
            values = new_values
            break
        values = new_values
    q = reward + gamma * np.einsum("sat,t->sa", transition, values)
    return q.argmax(axis=1), values


def random_mdp(rng, n_states=5, n_actions=2):
    """Random dense MDP with uniform-ish transition kernels."""
    transition = rng.random((n_states, n_actions, n_states))
    transition /= transition.sum(axis=2, keepdims=True)
    reward = rng.normal(size=(n_states, n_actions))
    return transition, reward


def shaped_reward(transition, reward, potential, gamma):
    """Expected reward under base + potential-difference shaping."""
    return reward + gamma * np.einsum("sat,t->sa", transition, potential) - potential[:, None]


# ---------------------------------------------------------------------------
# Independent oracle: scalar reward and fitness maths, one step and one
# feature at a time, for comparison with the array kernels in src/.
# ---------------------------------------------------------------------------


def _survival(value, cfg):
    if cfg.form is SurvivalForm.BELL:
        z = (value - cfg.mu) / cfg.sigma
        score = math.exp(-0.5 * z * z)
    elif cfg.form is SurvivalForm.DECAY_LOW:
        score = math.exp(-value / cfg.tau)
    elif cfg.form is SurvivalForm.DECAY_HIGH:
        score = math.exp(-(1.0 - value) / cfg.tau)
    elif value <= cfg.mu:  # ASYMMETRIC_ABOVE: flat at 1 up to mu, half-life sigma above it
        score = 1.0
    else:
        score = math.exp(-(math.log(2.0) / cfg.sigma) * (value - cfg.mu))
    return min(1.0, max(0.0, score))


def potential(step, spec):
    """Health potential of one step: the weighted, confidence-discounted mean
    survival score of the spec's features present at the step (0.5 if none
    is), times the strategic decay 0.5 ** (t / half_life)."""
    num = 0.0
    den = 0.0
    for fid, cfg in spec.survival.items():
        obs = step.observations.get(fid)
        if obs is None:
            continue
        trust = math.exp(-obs.staleness / spec.confidence_tau[fid])
        num += cfg.weight * _survival(obs.value, cfg) * trust
        den += cfg.weight
    if den == 0.0:
        base = 0.5
    elif spec.normalize_potential:
        base = min(1.0, max(0.0, num / den))
    else:
        base = num
    return 0.5 ** (step.t / spec.decay_half_life) * base


def _cost(action, spec):
    total = 0.0
    for aid, level in action.items():
        if aid not in spec.action_max:
            raise SchemaError(f"action {aid!r} not declared in the reward spec's action_max")
        total += level / spec.action_max[aid]
    return spec.action_cost_scale * total


def oracle_trace(trajectory, spec):
    """(rewards, potentials, cumulative) of one trajectory, step by step."""
    potentials = [potential(s, spec) for s in trajectory.steps]
    rewards = []
    for i in range(len(trajectory.steps) - 1):
        shaped = spec.gamma * potentials[i + 1] - potentials[i]
        if spec.lam != 0.0:
            shaped -= spec.lam * _cost(trajectory.steps[i].action, spec)
        rewards.append(shaped)
    cumulative = sum(r * spec.gamma**i for i, r in enumerate(rewards))
    return rewards, potentials, cumulative


def oracle_validate(dataset):
    """The message of the first rule a trajectory of the dataset breaks,
    checked one step at a time (features, then actions, in id order), or
    None when every trajectory is valid. A message shows a level as an int
    only when its action is discrete and each of its levels in the dataset
    is a whole number."""
    whole = {
        aid: spec.discrete and all(
            float(step.action[aid]).is_integer()
            for traj in dataset.trajectories for step in traj.steps if aid in step.action
        )
        for aid, spec in dataset.action_schema.items()
    }
    seen = set()
    for traj in dataset.trajectories:
        pid = traj.patient_id
        if pid in seen:
            return f"patient {pid!r}: appears more than once"
        seen.add(pid)
        if len(traj.steps) < 2:
            return f"patient {pid!r}: needs >= 2 steps (a reward requires a transition)"
        if not (0.0 <= traj.sofa_baseline < math.inf):
            return f"patient {pid!r}: sofa_baseline {traj.sofa_baseline} not finite and >= 0"
        prev_t = None
        feature_set = None
        for step in traj.steps:
            if not (float(step.t).is_integer() and abs(step.t) < 2**31):
                return (f"patient {pid!r}: time index {step.t} not a whole number of magnitude "
                        "below 2**31")
            if prev_t is not None and step.t <= prev_t:
                return f"patient {pid!r}: non-increasing time index at t={step.t}"
            prev_t = step.t
            if not (0.0 <= step.sofa < math.inf):
                return f"patient {pid!r}: sofa {step.sofa} not finite and >= 0 at t={step.t}"
            ids = frozenset(step.observations)
            if feature_set is None:
                feature_set = ids
            elif ids != feature_set:
                return f"patient {pid!r}: feature set changes at t={step.t}"
            for fid, obs in sorted(step.observations.items()):
                if fid not in dataset.feature_schema:
                    return f"patient {pid!r}: feature {fid!r} not in feature_schema"
                if not (0.0 <= obs.value <= 1.0):
                    return f"patient {pid!r}: feature {fid!r} value out of [0,1] at t={step.t}"
                if not (obs.staleness >= 0):
                    return f"patient {pid!r}: feature {fid!r} staleness negative at t={step.t}"
                if not (float(obs.staleness).is_integer() and obs.staleness < 2**31):
                    return (f"patient {pid!r}: feature {fid!r} staleness {float(obs.staleness)} "
                            f"not a whole number below 2**31 at t={step.t}")
            for aid, level in sorted(step.action.items()):
                if aid not in dataset.action_schema:
                    return f"patient {pid!r}: action {aid!r} not in action_schema"
                level = int(level) if whole[aid] else float(level)
                if not (level >= 0):
                    return f"patient {pid!r}: action {aid!r} level {level} not >= 0 at t={step.t}"
                if level > dataset.action_schema[aid].max_value:
                    return (
                        f"patient {pid!r}: action {aid!r} level {level} exceeds max "
                        f"{dataset.action_schema[aid].max_value} at t={step.t}"
                    )
                if dataset.action_schema[aid].discrete and not float(level).is_integer():
                    return (f"patient {pid!r}: discrete action {aid!r} level {level} not a whole "
                            f"number at t={step.t}")
    return None


def oracle_ground_truth(trajectory, epsilon):
    steps = trajectory.steps
    stable = sum(1 for s in steps if abs(s.sofa - trajectory.sofa_baseline) < epsilon)
    return float(trajectory.survived) + stable / len(steps)


def oracle_uncertainty(trajectory, feature_ids):
    total = sum(s.observations[fid].staleness for s in trajectory.steps for fid in feature_ids)
    return total / (len(trajectory.steps) * len(feature_ids))


def _logistic(z):
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _homeostasis(value, spec, iqr, k):
    if spec.feature_type is FeatureType.NORMAL_RANGE:
        lo, hi = spec.healthy_interval
        if lo <= value <= hi:
            return 1.0
        d = (lo - value) if value < lo else (value - hi)
        return _logistic(k * (0.5 - d / iqr))
    if spec.feature_type is FeatureType.DIRECTIONAL_LOW:
        return _logistic(k * (0.5 - value))
    return _logistic(-k * (0.5 - value))


def oracle_efficiency(dataset, feature_ids, cfg):
    """Per trajectory, the mean (or sum) over transitions of the homeostasis
    gain minus alpha times the mean normalized dose of the earlier step: the
    IQRs from oracle_iqr, the dose maxima from the action schema."""
    iqr = {fid: oracle_iqr(dataset, fid) for fid in feature_ids}
    maxima = {aid: spec.max_value for aid, spec in dataset.action_schema.items()}
    result = []
    for trajectory in dataset.trajectories:
        states = [
            sum(
                _homeostasis(s.observations[fid].value, dataset.feature_schema[fid], iqr[fid], cfg.k)
                for fid in feature_ids
            )
            / len(feature_ids)
            for s in trajectory.steps
        ]
        per_step = []
        for i, step in enumerate(trajectory.steps[:-1]):
            dose = 0.0
            if maxima:
                dose = sum(step.action.get(aid, 0.0) / mx for aid, mx in maxima.items()) / len(maxima)
            per_step.append(states[i + 1] - states[i] - cfg.alpha * dose)
        total = sum(per_step)
        result.append(total if cfg.aggregation == "sum" else total / len(per_step))
    return result


def oracle_pearson(xs, ys):
    """Pearson correlation from exactly rounded sums (math.fsum), one scalar
    at a time: the means, the centred cross product and the two squares."""
    n = len(xs)
    mx, my = math.fsum(xs) / n, math.fsum(ys) / n
    dx = [x - mx for x in xs]
    dy = [y - my for y in ys]
    sxy = math.fsum(a * b for a, b in zip(dx, dy))
    sxx = math.fsum(a * a for a in dx)
    syy = math.fsum(b * b for b in dy)
    return sxy / (math.sqrt(sxx) * math.sqrt(syy))


def oracle_iqr(dataset, fid):
    """IQR of the fresh values of one feature (all values if none is fresh;
    1.0 if there are none or the spread is 0)."""
    fresh, everything = [], []
    for traj in dataset.trajectories:
        for step in traj.steps:
            obs = step.observations.get(fid)
            if obs is None:
                continue
            everything.append(obs.value)
            if obs.staleness == 0:
                fresh.append(obs.value)
    values = fresh or everything
    if not values:
        return 1.0
    q25, q75 = np.quantile(values, [0.25, 0.75])
    return float(q75 - q25) or 1.0


def oracle_metadata(dataset):
    """compute_metadata one step and one feature at a time, as a dict per
    feature of FeatureMetadata's fields (iqr left out): moments from
    math.fsum, correlations from oracle_pearson."""
    action_ids = sorted(dataset.action_schema)
    rows = []
    for fid in sorted(dataset.feature_schema):
        values, outcomes = [], []
        levels = {aid: [] for aid in action_ids}
        total = missing = 0
        for traj in dataset.trajectories:
            for step in traj.steps:
                obs = step.observations.get(fid)
                if obs is None:
                    continue
                total += 1
                if obs.staleness > 0:
                    missing += 1
                    continue
                values.append(obs.value)
                outcomes.append(1.0 if traj.survived else 0.0)
                for aid in action_ids:
                    levels[aid].append(float(step.action.get(aid, 0.0)))
        n = len(values)

        def rho(ys):
            if n < 2 or min(values) == max(values) or min(ys) == max(ys):
                return None
            return oracle_pearson(values, ys)

        mean = math.fsum(values) / n if n else 0.0
        q25, median, q75 = np.quantile(values, [0.25, 0.5, 0.75]) if n else (0.0, 0.0, 0.0)
        rows.append(
            {
                "feature_id": fid,
                "count": n,
                "mean": mean,
                "std": math.sqrt(math.fsum((v - mean) ** 2 for v in values) / n) if n else 0.0,
                "missingness": missing / total if total else 1.0,
                "rho_outcome": rho(outcomes),
                "rho_action": {aid: rho(levels[aid]) for aid in action_ids},
                "q25": float(q25),
                "median": float(median),
                "q75": float(q75),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Independent oracles: the trajectory weight, one (patient, t) dict lookup per
# step, and the percentile bootstrap of WIS, one resample at a time with a
# fresh generator per resample, for comparison with the row-span weight and
# the count-matrix bootstrap in src/.
# ---------------------------------------------------------------------------


def oracle_trajectory_weight(trajectory, probs, max_ratio=None):
    """Product over every step but the last of p_eval / p_behavior (each
    capped at max_ratio if given), multiplied in step order; raises at the
    first step with no entry (SchemaError) or a zero p_behavior
    (ValidationError)."""
    weight = 1.0
    pid, table = trajectory.patient_id, probs.probs
    for step in trajectory.steps[:-1]:
        if (pid, step.t) not in table:
            raise SchemaError(f"no policy probabilities for patient {pid!r} at t={step.t}")
        p_eval, p_behavior = table[(pid, step.t)]
        if p_behavior <= 0.0:
            raise ValidationError(
                f"patient {pid!r} t={step.t}: behavior probability is 0 (support violation)"
            )
        ratio = p_eval / p_behavior
        if max_ratio is not None:
            ratio = min(ratio, max_ratio)
        weight *= ratio
    return weight


def oracle_resample_counts(seed, n, resamples):
    """[resamples, n] counts: row b counts the draws of the generator keyed
    on (seed, b), one SeedSequence and generator per resample."""
    out = np.empty((resamples, n), dtype=np.min_scalar_type(n))
    for b in range(resamples):
        rng = np.random.default_rng(np.random.SeedSequence([seed, b]))
        out[b] = np.bincount(rng.integers(0, n, size=n), minlength=n)
    return out


def oracle_bootstrap_ci(dataset, traces, probs, level=0.95, resamples=1000, seed=0,
                        max_ratio=None):
    """(value, ci_low, ci_high, n_effective, skipped_resamples)."""
    weights = np.array(
        [oracle_trajectory_weight(traj, probs, max_ratio) for traj in dataset.trajectories]
    )
    returns = np.array([t.cumulative for t in traces])
    total = weights.sum()
    n = len(weights)
    estimates = []
    skipped = 0
    for b in range(resamples):
        rng = np.random.default_rng(np.random.SeedSequence([seed, b]))
        idx = rng.integers(0, n, size=n)
        w = weights[idx]
        sw = w.sum()
        if sw <= 0.0:
            skipped += 1
            continue
        estimates.append(float(np.dot(w, returns[idx]) / sw))
    alpha = (1.0 - level) / 2.0
    ci_low, ci_high = np.quantile(estimates, [alpha, 1.0 - alpha])
    return (
        float(np.dot(weights, returns) / total),
        float(ci_low),
        float(ci_high),
        float(total**2 / np.dot(weights, weights)),
        skipped,
    )


# ---------------------------------------------------------------------------
# Test-side codec of the format-4 column files, written from the format's
# description: the magic line, a header line of compact JSON padded with
# spaces to a multiple of 8 bytes, then the columns' buffers, each padded
# with zero bytes to a multiple of 8. plain_document turns a file's header
# and buffers into one document of plain lists, so that a test can change
# one entry of a column. In the plain form a dataset has the shape of format
# 2: survived as bools, and null where the mask (or action_mask) marks a slot
# absent, with no mask groups. A plain document may hold what a file cannot:
# binary_document writes a null as an absent slot holding 0, a staleness of
# null as 0, and a column given as bytes as those bytes.
# ---------------------------------------------------------------------------

COLUMN_MAGIC = b"TRIDRIVE COLUMNS 4\n"

# The dtype of each column, in the order the files hold them.
_DTYPES = {
    "survived": "bitmap", "sofa_baseline": "<f8", "offsets": "<i4", "t": "<i4", "sofa": "<f8",
    "values": "<f8", "staleness": "<i4", "mask": "bitmap", "actions": "<f8",
    "action_mask": "bitmap", "p_eval": "<f8", "p_behavior": "<f8",
}
_MASKS = {"values": "mask", "staleness": "mask", "actions": "action_mask"}
_FLAGS_OF = {"mask": "values", "action_mask": "actions"}


def column_file(header, data):
    """The bytes of a column file of header and buffer section data."""
    line = json.dumps(header, separators=(",", ":")).encode("ascii")
    return COLUMN_MAGIC + line + b" " * (-(len(COLUMN_MAGIC) + len(line) + 1) % 8) + b"\n" + data


def split_column_file(raw):
    """(header, buffer section) of the bytes of a column file."""
    magic, line, data = raw.split(b"\n", 2)
    assert magic + b"\n" == COLUMN_MAGIC
    return json.loads(line), data


def _unpack(raw, dtype, count):
    if dtype == "bitmap":
        bits = np.unpackbits(np.frombuffer(raw, np.uint8), count=count, bitorder="little")
        return bits.astype(bool).tolist()
    return np.frombuffer(raw, dtype).tolist()


def _pack(column, dtype):
    if isinstance(column, bytes):
        return column
    if dtype == "bitmap":
        return np.packbits(np.array(column, dtype=bool), bitorder="little").tobytes()
    return np.array(column, dtype=dtype).tobytes()


def plain_document(header, data):
    """A column file's header and buffers as one document of plain lists."""
    buffers = {(e["name"], e.get("id")): data[e["offset"] : e["offset"] + e["length"]]
               for e in header["columns"]}
    plain = {key: value for key, value in header.items() if key != "columns"}
    if "feature_schema" in header:
        plain.update(values={}, staleness={}, actions={})
    rows = len(buffers["t", None]) // 4
    for (name, cid), raw in buffers.items():
        if name == "survived":
            plain[name] = _unpack(raw, "bitmap", len(header["patient_id"]))
        elif name in _MASKS:
            flags = _unpack(buffers[_MASKS[name], cid], "bitmap", rows)
            column = _unpack(raw, _DTYPES[name], None)
            plain[name][cid] = [v if m else None for v, m in zip(column, flags)]
        elif name not in _FLAGS_OF:
            plain[name] = _unpack(raw, _DTYPES[name], None)
    return plain


def binary_document(plain):
    """(header, buffer section) of a plain document; a value that is not a
    plain column (a test's malformed entry) is kept in the header."""
    header, columns = dict(plain), []
    for name, dtype in _DTYPES.items():
        # A mask flags the entries of its group, unless the document has it.
        source = name if name in plain else _FLAGS_OF.get(name, name)
        value = plain.get(source)
        if (name in _MASKS or name in _FLAGS_OF) and isinstance(value, dict):
            for cid, column in value.items():
                if name != source:
                    column = [v is not None for v in column]
                elif not isinstance(column, bytes):
                    column = [0 if v is None else v for v in column]
                columns.append(({"name": name, "id": cid, "dtype": dtype}, _pack(column, dtype)))
            header.pop(source, None)
        elif name not in _MASKS and name not in _FLAGS_OF and isinstance(value, (list, bytes)):
            columns.append(({"name": name, "dtype": dtype}, _pack(value, dtype)))
            header.pop(name)
    table, chunks, end = [], [], 0
    for entry, raw in columns:
        table.append({**entry, "offset": end, "length": len(raw)})
        chunks += [raw, bytes(-len(raw) % 8)]
        end += len(raw) + -len(raw) % 8
    header["columns"] = table
    return header, b"".join(chunks)


def read_plain(path):
    """The plain document of the column file at path."""
    return plain_document(*split_column_file(path.read_bytes()))


def write_plain(path, plain):
    """Write the column file of a plain document to path."""
    path.write_bytes(column_file(*binary_document(plain)))


# Values a fuzzed document may hold in place of any other.
_SUBSTITUTES = st.sampled_from([0, -3, 2**70, "x", [], [1.5], {}, None, True, False, math.nan])


@st.composite
def mutated_documents(draw, document):
    """document after one mutation of one entry, anywhere in it: drop the
    entry, replace its value or truncate its array there."""
    doc = copy.deepcopy(document)
    slots, nodes = [], [doc]
    for node in nodes:
        for key in list(node) if isinstance(node, dict) else range(len(node)):
            slots.append((node, key))
            if isinstance(node[key], (dict, list)):
                nodes.append(node[key])
    node, key = draw(st.sampled_from(slots))
    action = draw(st.sampled_from(["drop", "replace", "truncate"]))
    if action == "drop":
        del node[key]
    elif action == "replace":
        node[key] = draw(_SUBSTITUTES)
    elif action == "truncate" and isinstance(node, list):
        del node[key:]
    return doc


@st.composite
def mutated_column_files(draw, header, data):
    """(header, buffer section) of a column file after one mutation: one of
    mutated_documents in the header; a column's offset or length moved past
    the end, onto another column, off the 8-byte grid or negative; its
    dtype changed; an entry of offsets perturbed; a byte of the buffers
    changed; or the buffers cut short or lengthened."""
    header, data = copy.deepcopy(header), bytearray(data)
    columns = header["columns"]
    entry = draw(st.sampled_from(columns))
    action = draw(st.sampled_from(["header", "offset", "length", "dtype", "offsets", "byte",
                                   "shorten", "lengthen"]))
    if action == "header":
        header = draw(mutated_documents(header))
    elif action in ("offset", "length"):
        other = draw(st.sampled_from(columns))
        entry[action] = draw(st.sampled_from([
            len(data) + draw(st.integers(0, 16)), other["offset"],
            other["offset"] + other["length"],
            entry[action] + draw(st.sampled_from([-8, -3, -1, 1, 4, 7, 8])), -8, 2**40, 2**63,
        ]))
    elif action == "dtype":
        entry["dtype"] = draw(st.sampled_from(["<i4", "<f8", "bitmap", "<i8", ">f8", "|u1", ""]))
    elif action == "offsets":
        column = next(e for e in columns if e["name"] == "offsets")
        lo = column["offset"] + 4 * draw(st.integers(0, column["length"] // 4 - 1))
        value = int.from_bytes(data[lo : lo + 4], "little", signed=True)
        value += draw(st.sampled_from([-2, -1, 1, 2, 2**20]))
        data[lo : lo + 4] = value.to_bytes(4, "little", signed=True)
    elif action == "byte" and data:
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    elif action == "shorten":
        del data[len(data) - draw(st.integers(1, min(9, len(data)) or 1)) :]
    elif action == "lengthen":
        data += bytes(draw(st.integers(1, 9)))
    return header, bytes(data)
