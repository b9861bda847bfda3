import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    make_step,
    mutated_documents,
    oracle_trace,
    potential as oracle_potential,
    random_mdp,
    shaped_reward,
    simple_spec,
    value_iteration,
)
from tridrive.errors import FormatError, SchemaError, TridriveError, ValidationError
from tridrive.fitness import CompMetricConfig, j_comp, j_conf, j_surv
from tridrive.model import Trajectory
from tridrive.ope import bootstrap_ci, identity_prob_table, mortality_curve, wis
from tridrive.rewards import (
    RewardSpec,
    SurvivalConfig,
    SurvivalForm,
    _potentials,
    baseline_oprm,
    baseline_orm,
    baseline_prm,
    competence_cost,
    confidence_weight,
    load_reward_spec,
    reward_spec_from_json,
    reward_spec_to_json,
    save_reward_spec,
    survival_score,
    time_decay,
    trace,
    trace_returns,
)
from tridrive.synth import CohortConfig, generate, reference_spec

BELL = SurvivalConfig(form=SurvivalForm.BELL, mu=0.5, sigma=0.1)
DECAY_LOW = SurvivalConfig(form=SurvivalForm.DECAY_LOW, tau=0.3)
DECAY_HIGH = SurvivalConfig(form=SurvivalForm.DECAY_HIGH, tau=0.3)
ASYM = SurvivalConfig(form=SurvivalForm.ASYMMETRIC_ABOVE, mu=0.4, sigma=0.2)


def potential(step, spec):
    """Potential of one step, through trace."""
    return trace(Trajectory("p", [step], True, 0.0), spec).potentials[0]


def reward(prev, nxt, spec):
    """Reward of one transition, through trace."""
    return trace(Trajectory("p", [prev, nxt], True, 0.0), spec).rewards[0]


class TestSurvivalScore:
    def test_bell_peak(self):
        assert survival_score(0.5, BELL) == 1.0

    def test_bell_one_sigma(self):
        assert survival_score(0.6, BELL) == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_asymmetric_flat_then_half_life(self):
        assert survival_score(0.4, ASYM) == 1.0
        assert survival_score(0.2, ASYM) == 1.0
        assert survival_score(0.6, ASYM) == pytest.approx(math.exp(-math.log(2)), abs=1e-12)

    def test_decay_low_at_zero(self):
        assert survival_score(0.0, DECAY_LOW) == 1.0

    def test_decay_high_at_one(self):
        assert survival_score(1.0, DECAY_HIGH) == 1.0

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_scores_bounded(self, v):
        for cfg in (BELL, DECAY_LOW, DECAY_HIGH, ASYM):
            assert 0.0 <= survival_score(v, cfg) <= 1.0

    def test_form_params_enforced(self):
        with pytest.raises(ValidationError, match="missing parameter"):
            SurvivalConfig(form=SurvivalForm.BELL, mu=0.5)
        with pytest.raises(ValidationError, match="unexpected parameter"):
            SurvivalConfig(form=SurvivalForm.DECAY_LOW, tau=0.3, sigma=0.1)
        with pytest.raises(ValidationError, match="sigma"):
            SurvivalConfig(form=SurvivalForm.BELL, mu=0.5, sigma=0.0)


class TestConfidenceAndDecay:
    def test_confidence_fresh(self):
        assert confidence_weight(0, 6.0) == 1.0

    def test_confidence_at_tau(self):
        assert confidence_weight(6.0, 6.0) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_confidence_at_two_tau(self):
        assert confidence_weight(12.0, 6.0) == pytest.approx(math.exp(-2), abs=1e-12)

    def test_time_decay_values(self):
        assert time_decay(0, 48.0) == 1.0
        assert time_decay(48.0, 48.0) == pytest.approx(0.5, abs=1e-12)
        assert time_decay(96.0, 48.0) == pytest.approx(0.25, abs=1e-12)


class TestCompetenceCost:
    def test_zero_action(self):
        assert competence_cost({"drug_a": 0, "drug_b": 0}, simple_spec()) == 0.0

    def test_two_max_actions(self):
        spec = dataclasses.replace(simple_spec(), action_cost_scale=0.25)
        assert competence_cost({"drug_a": 4, "drug_b": 4}, spec) == pytest.approx(0.5)

    def test_half_max(self):
        spec = dataclasses.replace(simple_spec(), action_cost_scale=0.1)
        assert competence_cost({"drug_a": 2}, spec) == pytest.approx(0.05)

    def test_unknown_action_rejected(self):
        with pytest.raises(
            SchemaError, match=r"^action 'mystery' not declared in the reward spec's action_max$"
        ):
            competence_cost({"mystery": 1}, simple_spec())


class TestPotential:
    def test_fresh_peak_is_one(self):
        spec = simple_spec()
        step = make_step(0, {"f1": 0.5})
        assert potential(step, spec) == pytest.approx(1.0)

    def test_half_life_halves(self):
        spec = simple_spec(half_life=48.0)
        step = make_step(48, {"f1": 0.5})
        assert potential(step, spec) == pytest.approx(0.5)

    def test_two_features_normalized_mean(self):
        spec = RewardSpec(
            survival={"a": BELL, "b": BELL},
            confidence_tau={"a": 6.0, "b": 6.0},
            action_max={},
            lam=0.0,
        )
        step = make_step(0, {"a": 0.5, "b": 1.0})
        score_b = survival_score(1.0, BELL)
        assert potential(step, spec) == pytest.approx((1.0 + score_b) / 2)

    def test_missing_feature_excluded_from_normalizer(self):
        spec = RewardSpec(
            survival={"a": BELL, "b": BELL},
            confidence_tau={"a": 6.0, "b": 6.0},
            action_max={},
            lam=0.0,
        )
        step = make_step(0, {"a": 0.5})
        assert potential(step, spec) == pytest.approx(1.0)

    def test_all_missing_is_neutral(self):
        spec = simple_spec()
        step = make_step(0, {"other": 0.5})
        assert potential(step, spec) == pytest.approx(0.5)

    def test_staleness_monotone(self):
        spec = simple_spec()
        scores = [
            potential(make_step(0, {"f1": 0.5}, {"f1": dt}), spec) for dt in range(0, 30, 3)
        ]
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=72),
    )
    def test_bounded(self, v, t, dt):
        spec = simple_spec()
        assert 0.0 <= potential(make_step(t, {"f1": v}, {"f1": dt}), spec) <= 1.0

    def test_normalization_flag_switches_to_raw_weighted_sum(self):
        spec = RewardSpec(
            survival={
                "a": SurvivalConfig(form=SurvivalForm.BELL, mu=0.5, sigma=0.1, weight=2.0),
                "b": SurvivalConfig(form=SurvivalForm.BELL, mu=0.5, sigma=0.1, weight=1.0),
            },
            confidence_tau={"a": 6.0, "b": 6.0},
            action_max={},
            lam=0.0,
            normalize_potential=False,
        )
        step = make_step(0, {"a": 0.5, "b": 0.5})
        assert potential(step, spec) == pytest.approx(3.0)
        spec = dataclasses.replace(spec, normalize_potential=True)
        assert potential(step, spec) == pytest.approx(1.0)


class TestReward:
    def test_constant_potential_zero_reward(self):
        spec = simple_spec(gamma=1.0, half_life=1e18)  # flat decay so the potential is constant
        prev = make_step(0, {"f1": 0.5}, action={"drug_a": 0, "drug_b": 0})
        nxt = make_step(1, {"f1": 0.5})
        assert reward(prev, nxt, spec) == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed_difference(self):
        # phi(prev)=0.4, phi(next)=0.6 via single bell features
        spec = simple_spec(gamma=0.99, lam=0.0, half_life=1e18)
        v_prev = 0.5 + 0.1 * math.sqrt(-2.0 * math.log(0.4))
        v_next = 0.5 + 0.1 * math.sqrt(-2.0 * math.log(0.6))
        prev, nxt = make_step(0, {"f1": v_prev}), make_step(1, {"f1": v_next})
        assert reward(prev, nxt, spec) == pytest.approx(0.99 * 0.6 - 0.4, abs=1e-9)

    def test_cost_only_term(self):
        spec = dataclasses.replace(
            simple_spec(gamma=0.99, lam=1.0, half_life=1e18), action_cost_scale=0.25
        )
        prev = make_step(0, {"f1": 0.5}, action={"drug_a": 4, "drug_b": 4})
        nxt = make_step(1, {"f1": 0.5})
        phi = potential(prev, spec)
        expected = (0.99 - 1.0) * phi - 0.5
        assert reward(prev, nxt, spec) == pytest.approx(expected, abs=1e-12)


def _random_trajectory(rng, n_steps=None, n_features=3, with_actions=True):
    n_steps = n_steps or int(rng.integers(2, 12))
    fids = [f"f{i}" for i in range(n_features)]
    t = 0
    steps = []
    for _ in range(n_steps):
        values = {fid: float(rng.random()) for fid in fids}
        staleness = {fid: int(rng.integers(0, 10)) for fid in fids}
        action = (
            {"drug_a": int(rng.integers(0, 5)), "drug_b": int(rng.integers(0, 5))}
            if with_actions
            else {}
        )
        steps.append(make_step(t, values, staleness, action=action, sofa=float(rng.random() * 20)))
        t += int(rng.integers(1, 4))
    return Trajectory("r", steps, bool(rng.random() < 0.5), steps[0].sofa)


def _random_spec(rng, fids=("f0", "f1", "f2"), lam=0.0):
    survival = {}
    for fid in fids:
        form = rng.choice(["bell", "decay_low", "decay_high", "asymmetric_above"])
        if form == "bell":
            survival[fid] = SurvivalConfig(
                form=SurvivalForm.BELL,
                mu=float(rng.random()),
                sigma=float(rng.random() * 0.4 + 0.02),
                weight=float(rng.random() + 0.1),
            )
        elif form == "asymmetric_above":
            survival[fid] = SurvivalConfig(
                form=SurvivalForm.ASYMMETRIC_ABOVE,
                mu=float(rng.random()),
                sigma=float(rng.random() * 0.4 + 0.02),
                weight=float(rng.random() + 0.1),
            )
        else:
            survival[fid] = SurvivalConfig(
                form=SurvivalForm(form),
                tau=float(rng.random() * 0.5 + 0.05),
                weight=float(rng.random() + 0.1),
            )
    return RewardSpec(
        survival=survival,
        confidence_tau={fid: float(rng.random() * 20 + 0.5) for fid in fids},
        action_max={"drug_a": 4.0, "drug_b": 4.0},
        decay_half_life=float(rng.random() * 90 + 5),
        gamma=float(rng.random() * 0.2 + 0.8),
        lam=lam,
    )


class TestTrace:
    def test_two_step_trace_is_single_reward(self):
        spec = simple_spec()
        traj = Trajectory(
            "p",
            [make_step(0, {"f1": 0.5}, action={"drug_a": 1}), make_step(1, {"f1": 0.4})],
            True,
            5.0,
        )
        result = trace(traj, spec)
        expected = spec.gamma * oracle_potential(traj.steps[1], spec) - oracle_potential(
            traj.steps[0], spec
        )
        assert result.rewards == pytest.approx([expected], abs=1e-12)
        assert result.cumulative == result.rewards[0]

    def test_telescoping_identity_random(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            traj = _random_trajectory(rng)
            spec = _random_spec(rng, lam=0.0)
            tr = trace(traj, spec)
            n = len(traj.steps) - 1
            telescoped = spec.gamma**n * tr.potentials[-1] - tr.potentials[0]
            assert abs(tr.cumulative - telescoped) < 1e-9

    def test_cost_decomposition_random(self):
        rng = np.random.default_rng(321)
        for _ in range(200):
            traj = _random_trajectory(rng)
            spec = _random_spec(rng, lam=float(rng.random() * 2))
            tr = trace(traj, spec)
            n = len(traj.steps) - 1
            telescoped = spec.gamma**n * tr.potentials[-1] - tr.potentials[0]
            cost = sum(
                spec.gamma**i * competence_cost(traj.steps[i].action, spec) for i in range(n)
            )
            assert abs(tr.cumulative - (telescoped - spec.lam * cost)) < 1e-9

    def test_cumulative_matches_discounted_sum(self):
        rng = np.random.default_rng(5)
        traj = _random_trajectory(rng)
        spec = _random_spec(rng, lam=0.3)
        tr = trace(traj, spec)
        expected = sum(r * spec.gamma**i for i, r in enumerate(tr.rewards))
        assert abs(tr.cumulative - expected) < 1e-12

    def test_path_dependence_is_exactly_cost_difference(self):
        spec = dataclasses.replace(simple_spec(lam=0.5), action_cost_scale=0.25)
        base_steps = [make_step(t, {"f1": 0.4 + 0.02 * t}) for t in range(5)]

        def with_doses(levels):
            steps = []
            for s, lv in zip(base_steps, levels + [0]):
                steps.append(
                    make_step(s.t, {"f1": s.observations["f1"].value}, action={"drug_a": lv})
                )
            return Trajectory("p", steps, True, 5.0)

        lo = trace(with_doses([0, 0, 0, 0]), spec)
        hi = trace(with_doses([4, 2, 4, 0]), spec)
        cost_diff = sum(
            spec.gamma**i * 0.25 * (lv / 4.0) for i, lv in enumerate([4, 2, 4, 0])
        )
        assert hi.cumulative - lo.cumulative == pytest.approx(-spec.lam * cost_diff, abs=1e-12)

    def test_undeclared_action_names_patient_and_first_t(self):
        spec = simple_spec(lam=0.5)
        steps = [
            make_step(0, {"f1": 0.5}, action={"drug_a": 1}),
            make_step(2, {"f1": 0.5}, action={"mystery": 1, "other": 1}),
            make_step(3, {"f1": 0.5}, action={"mystery": 2}),
            make_step(5, {"f1": 0.5}),
        ]
        with pytest.raises(
            SchemaError,
            match=r"^patient 'q': action 'mystery' not declared in the reward spec's action_max "
                  r"at t=2$",
        ):
            trace(Trajectory("q", steps, True, 5.0), spec)

    def test_undeclared_action_of_the_last_step_is_not_read(self):
        spec = simple_spec(lam=0.5)
        steps = [
            make_step(0, {"f1": 0.5}, action={"drug_a": 1}),
            make_step(1, {"f1": 0.4}, action={"mystery": 1}),
        ]
        unset = [steps[0], make_step(1, {"f1": 0.4})]
        got = trace(Trajectory("q", steps, True, 5.0), spec)
        assert got == trace(Trajectory("q", unset, True, 5.0), spec)


def _assert_matches_oracle(traj, spec):
    rewards, potentials, cumulative = oracle_trace(traj, spec)
    got = trace(traj, spec)
    assert got.rewards == pytest.approx(rewards, rel=0, abs=1e-12)
    assert got.potentials == pytest.approx(potentials, rel=0, abs=1e-12)
    assert got.cumulative == pytest.approx(cumulative, rel=0, abs=1e-12)


class TestKernelEdgeCases:
    """Inputs on which a kernel that multiplied by reciprocals, or read a
    block column its spec does not name, would part from the oracle."""

    def test_subnormal_confidence_tau_with_fresh_measurements(self):
        spec = simple_spec(tau_conf=5e-324)
        spec.validate()
        steps = [make_step(t, {"f1": 0.3 + 0.1 * t}) for t in range(4)]
        _assert_matches_oracle(Trajectory("p", steps, True, 5.0), spec)

    def test_subnormal_action_max_with_zero_levels(self):
        spec = simple_spec(lam=0.5, action_max={"drug_a": 5e-324, "drug_b": 4.0})
        spec.validate()
        steps = [make_step(t, {"f1": 0.5}, action={"drug_a": 0, "drug_b": t}) for t in range(4)]
        _assert_matches_oracle(Trajectory("p", steps, True, 5.0), spec)

    def test_nan_in_a_column_the_spec_does_not_name(self):
        spec = simple_spec(fids=("f1", "f3"))
        steps = [make_step(t, {"f1": 0.2 * t, "f2": math.nan, "f3": 0.5}) for t in range(4)]
        _assert_matches_oracle(Trajectory("p", steps, True, 5.0), spec)


@pytest.mark.parametrize("named", ["all", "subset"])
def test_block_potentials_split_at_offsets_match_trace(named):
    config = CohortConfig(n_patients=40, seed=17)
    dataset = generate(config)
    spec = reference_spec(config)
    cols = dataset.columns
    if named == "subset":
        kept = cols.feature_ids[::2]
        spec = dataclasses.replace(
            spec,
            survival={fid: spec.survival[fid] for fid in kept},
            confidence_tau={fid: spec.confidence_tau[fid] for fid in kept},
        )
    assert (len(spec.survival) == len(cols.feature_ids)) == (named == "all")
    parts = np.split(_potentials(cols, spec), cols.offsets[1:-1])
    assert len(parts) == len(dataset.trajectories)
    for traj, part in zip(dataset.trajectories, parts):
        assert np.abs(part - trace(traj, spec).potentials).max() <= 1e-15


class TestPolicyInvariance:
    def test_pure_shaping_preserves_greedy_policy(self):
        rng = np.random.default_rng(2024)
        transition, base = random_mdp(rng)
        base_policy, _ = value_iteration(transition, base, gamma=0.99, tol=1e-10)
        for _ in range(20):
            phi = rng.normal(size=5)
            shaped = shaped_reward(transition, base, phi, gamma=0.99)
            shaped_policy, _ = value_iteration(transition, shaped, gamma=0.99, tol=1e-10)
            assert (shaped_policy == base_policy).all()


class TestBaselines:
    def _traj(self, sofas, survived=True):
        steps = [make_step(t, {"f1": 0.5}, sofa=s) for t, s in enumerate(sofas)]
        return Trajectory("p", steps, survived, sofas[0])

    def test_orm_survivor(self):
        tr = baseline_orm(self._traj([5, 5, 5], survived=True))
        assert tr.rewards == [0.0, 100.0]

    def test_orm_nonsurvivor(self):
        tr = baseline_orm(self._traj([5, 5, 5], survived=False))
        assert tr.rewards == [0.0, -100.0]

    def test_orm_two_step(self):
        assert baseline_orm(self._traj([5, 5])).rewards == [100.0]

    def test_prm_constant_sofa(self):
        assert baseline_prm(self._traj([6, 6, 6])).rewards == [0.0, 0.0]

    def test_prm_signs(self):
        assert baseline_prm(self._traj([8, 6])).rewards == [2.0]
        assert baseline_prm(self._traj([6, 8])).rewards == [-2.0]

    def test_oprm_is_elementwise_sum(self):
        traj = self._traj([8, 6, 7], survived=False)
        orm, prm, oprm = baseline_orm(traj), baseline_prm(traj), baseline_oprm(traj)
        assert oprm.rewards == [a + b for a, b in zip(orm.rewards, prm.rewards)]

    def test_oprm_survivor_constant_sofa(self):
        tr = baseline_oprm(self._traj([5, 5, 5], survived=True))
        assert tr.rewards == [0.0, 100.0]


class TestSpecSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        spec = _random_spec(rng, lam=0.2)
        path = tmp_path / "spec.json"
        save_reward_spec(spec, path)
        assert load_reward_spec(path) == spec

    def test_unknown_top_level_key_rejected(self):
        doc = reward_spec_to_json(simple_spec())
        doc["extra"] = 1
        with pytest.raises(FormatError, match="unknown keys"):
            reward_spec_from_json(doc)

    def test_unknown_survival_key_rejected(self):
        doc = reward_spec_to_json(simple_spec())
        doc["survival"]["f1"]["shape"] = "flat"
        with pytest.raises(FormatError, match="unknown keys"):
            reward_spec_from_json(doc)

    def test_mismatched_tau_keys_rejected(self):
        doc = reward_spec_to_json(simple_spec())
        del doc["confidence_tau"]["f1"]
        doc["confidence_tau"]["f9"] = 6.0
        with pytest.raises(ValidationError, match="same features"):
            reward_spec_from_json(doc)

    def test_gamma_range_enforced(self):
        doc = reward_spec_to_json(simple_spec())
        doc["gamma"] = 0.0
        with pytest.raises(ValidationError, match="gamma"):
            reward_spec_from_json(doc)

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(FormatError):
            load_reward_spec(path)


class TestSpecChecksItself:
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda spec: RewardSpec(spec.survival, spec.confidence_tau, spec.action_max, gamma=2.0),
             r"gamma must lie in \(0,1\]"),
            (lambda spec: dataclasses.replace(spec, lam=-1.0),
             "lambda must be a finite nonnegative number"),
            (lambda spec: dataclasses.replace(spec, confidence_tau={"f1": -1.0}),
             r"confidence_tau\['f1'\] must be a positive number"),
            (lambda spec: dataclasses.replace(spec, confidence_tau={"f1": math.nan}),
             r"confidence_tau\['f1'\] must be a positive number"),
            (lambda spec: dataclasses.replace(spec, action_max={"drug_a": 0.0}),
             r"action_max\['drug_a'\] must be a finite positive number"),
        ],
        ids=["gamma-built", "lam-replaced", "negative-tau", "nan-tau", "zero-action-max"],
    )
    def test_an_invalid_spec_is_refused_when_made(self, make, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            make(simple_spec())

    def test_an_infinite_confidence_tau_turns_decay_off_and_has_no_file(self, tmp_path):
        spec = dataclasses.replace(simple_spec(), confidence_tau={"f1": math.inf})
        fresh = Trajectory("p", [make_step(t, {"f1": 0.3}) for t in range(3)], True, 5.0)
        stale = Trajectory("p", [make_step(t, {"f1": 0.3}, {"f1": 7}) for t in range(3)], True, 5.0)
        assert trace(stale, spec).potentials == trace(fresh, spec).potentials
        message = r"^confidence_tau\['f1'\] must be finite in a spec file$"
        with pytest.raises(ValidationError, match=message):
            save_reward_spec(spec, tmp_path / "spec.json")
        assert not (tmp_path / "spec.json").exists()
        doc = reward_spec_to_json(simple_spec())
        doc["confidence_tau"]["f1"] = math.inf
        with pytest.raises(ValidationError, match=message):
            reward_spec_from_json(json.loads(json.dumps(doc)))


def _spec_doc():
    spec = RewardSpec(
        survival={"a": BELL, "b": DECAY_LOW},
        confidence_tau={"a": 6.0, "b": 6.0},
        action_max={"drug_a": 4.0},
        lam=0.1,
    )
    return reward_spec_to_json(spec)


_SPEC_PATHS = [
    ("survival", "a", "sigma"),
    ("survival", "b", "tau"),
    ("survival", "a", "weight"),
    ("confidence_tau", "a"),
    ("decay_half_life",),
    ("lambda",),
    ("action_cost_scale",),
    ("action_max", "drug_a"),
]


_FUZZ_SPEC = RewardSpec(
    survival={"a": BELL, "b": DECAY_LOW, "c": DECAY_HIGH, "d": ASYM},
    confidence_tau={"a": 6.0, "b": 12.0, "c": 3.0, "d": 24.0},
    action_max={"drug_a": 4.0, "drug_b": 2.0},
    lam=0.1,
    normalize_potential=False,
)


@settings(max_examples=300, deadline=None)
@given(mutated_documents(reward_spec_to_json(_FUZZ_SPEC)))
def test_fuzzed_spec_parses_or_raises_toolkit_error(doc):
    try:
        reward_spec_from_json(doc)
    except TridriveError:
        pass


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("path", _SPEC_PATHS, ids=["/".join(p) for p in _SPEC_PATHS])
def test_non_finite_spec_value_rejected(path, bad):
    doc = _spec_doc()
    *outer, leaf = path
    node = doc
    for key in outer:
        node = node[key]
    node[leaf] = bad
    with pytest.raises(ValidationError):
        reward_spec_from_json(json.loads(json.dumps(doc)))


# ---------------------------------------------------------------------------
# The array kernel against the step-by-step scalar oracle
# ---------------------------------------------------------------------------

_ORACLE_FIDS = ("f0", "f1", "f2")
_unit = st.floats(min_value=0.0, max_value=1.0)
_sigma = st.floats(min_value=0.02, max_value=0.5)
_tau = st.floats(min_value=0.05, max_value=0.6)
_weight = st.floats(min_value=0.1, max_value=2.0)
_survival_configs = st.one_of(
    st.builds(lambda mu, sigma, w: SurvivalConfig(SurvivalForm.BELL, mu=mu, sigma=sigma, weight=w),
              _unit, _sigma, _weight),
    st.builds(lambda tau, w: SurvivalConfig(SurvivalForm.DECAY_LOW, tau=tau, weight=w), _tau, _weight),
    st.builds(lambda tau, w: SurvivalConfig(SurvivalForm.DECAY_HIGH, tau=tau, weight=w), _tau, _weight),
    st.builds(
        lambda mu, sigma, w: SurvivalConfig(SurvivalForm.ASYMMETRIC_ABOVE, mu=mu, sigma=sigma, weight=w),
        _unit, _sigma, _weight,
    ),
)


@st.composite
def _specs(draw):
    fids = draw(st.lists(st.sampled_from(_ORACLE_FIDS), min_size=1, max_size=3, unique=True))
    return RewardSpec(
        survival={fid: draw(_survival_configs) for fid in fids},
        confidence_tau={fid: draw(st.floats(min_value=0.5, max_value=24.0)) for fid in fids},
        action_max={"drug_a": 4.0, "drug_b": 2.0},
        decay_half_life=draw(st.floats(min_value=5.0, max_value=100.0)),
        gamma=draw(st.floats(min_value=0.8, max_value=1.0)),
        lam=draw(st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=2.0))),
        action_cost_scale=draw(st.floats(min_value=0.0, max_value=1.0)),
        normalize_potential=draw(st.booleans()),
    )


@st.composite
def _trajectories(draw):
    """Steps whose feature sets vary and may miss some or all spec features;
    the rare 'mystery' action is not declared in any spec."""
    steps = []
    t = 0
    for _ in range(draw(st.integers(min_value=2, max_value=8))):
        fids = draw(st.sets(st.sampled_from(_ORACLE_FIDS + ("other",))))
        actions = draw(st.sets(st.sampled_from(("drug_a", "drug_b", "mystery"))))
        steps.append(
            make_step(
                t,
                {fid: draw(_unit) for fid in sorted(fids)},
                {fid: draw(st.integers(min_value=0, max_value=30)) for fid in fids},
                action={aid: draw(st.integers(min_value=0, max_value=2)) for aid in sorted(actions)},
                sofa=5.0,
            )
        )
        t += draw(st.integers(min_value=1, max_value=4))
    return Trajectory("h", steps, True, 5.0)


@settings(max_examples=300, deadline=None)
@given(_trajectories(), _specs())
def test_trace_matches_scalar_oracle(traj, spec):
    try:
        rewards, potentials, cumulative = oracle_trace(traj, spec)
    except SchemaError:
        with pytest.raises(SchemaError, match="mystery"):
            trace(traj, spec)
        return
    got = trace(traj, spec)
    assert got.rewards == pytest.approx(rewards, rel=0, abs=1e-12)
    assert got.potentials == pytest.approx(potentials, rel=0, abs=1e-12)
    assert got.cumulative == pytest.approx(cumulative, rel=0, abs=1e-12)


def _one_short():
    config = CohortConfig(n_patients=12, seed=5)
    dataset = generate(config)
    spec = reference_spec(config)
    return dataset, list(spec.survival), [trace(t, spec) for t in dataset.trajectories[:-1]]


@pytest.mark.parametrize(
    "consumer",
    [
        lambda ds, fids, traces: j_surv(ds, traces),
        lambda ds, fids, traces: j_conf(ds, traces, fids),
        lambda ds, fids, traces: j_comp(ds, traces, fids, CompMetricConfig()),
        lambda ds, fids, traces: wis(ds, traces, identity_prob_table(ds)),
        lambda ds, fids, traces: bootstrap_ci(ds, traces, identity_prob_table(ds), resamples=10),
        lambda ds, fids, traces: mortality_curve(ds, traces, 3),
    ],
    ids=["j_surv", "j_conf", "j_comp", "wis", "bootstrap_ci", "mortality_curve"],
)
def test_every_consumer_needs_one_trace_per_trajectory(consumer):
    with pytest.raises(ValidationError, match="one trace per trajectory is required"):
        consumer(*_one_short())


def test_trace_returns_reads_cumulative_in_order():
    dataset, _, traces = _one_short()
    traces.append(dataclasses.replace(traces[0], cumulative=2))
    got = trace_returns(dataset, traces)
    assert got.dtype == np.float64
    assert got.tolist() == [t.cumulative for t in traces]
