import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    make_dataset,
    make_step,
    oracle_efficiency,
    oracle_ground_truth,
    oracle_iqr,
    oracle_pearson,
    oracle_uncertainty,
    simple_spec,
)
from tridrive.errors import ConfigError, DegenerateStatisticError, ValidationError
from tridrive.fitness import (
    _quantiles,
    CompMetricConfig,
    FitnessTargets,
    FitnessVector,
    fitness,
    homeostasis_feature,
    j_comp,
    j_conf,
    j_surv,
    pearson,
)
from tridrive.model import FeatureType, Trajectory, TrajectoryDataset
from tridrive.rewards import trace


class TestPearson:
    def test_perfect_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_inverse(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)

    def test_known_value(self):
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            xs = rng.normal(size=n).tolist()
            ys = (rng.normal(size=n) + 0.3 * np.asarray(xs)).tolist()
            assert pearson(xs, ys) == pytest.approx(oracle_pearson(xs, ys), abs=1e-12)

    @pytest.mark.parametrize("n", [3, 500, 20_000])
    def test_matches_fsum_oracle(self, n):
        rng = np.random.default_rng(n)
        xs = rng.normal(3.0, 2.0, size=n)
        ys = 0.4 * xs + rng.normal(size=n)
        assert pearson(xs, ys) == pytest.approx(oracle_pearson(xs.tolist(), ys.tolist()),
                                                abs=1e-12)

    def test_near_constant_matches_fsum_oracle(self):
        rng = np.random.default_rng(5)
        xs = 70.0 + 1e-9 * rng.normal(size=500)
        ys = rng.normal(size=500) + 1e9 * (xs - 70.0)
        assert pearson(xs, ys) == pytest.approx(oracle_pearson(xs.tolist(), ys.tolist()),
                                                abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateStatisticError, match="constant"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("value", [0.1, 0.7, 1 / 3])
    @pytest.mark.parametrize("n", [3, 7, 10, 100])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_constant_side_rejected_exactly(self, side, n, value):
        # The float mean of these constant arrays is not always the value.
        constant, ramp = [value] * n, list(range(n))
        xs, ys = (constant, ramp) if side == "x" else (ramp, constant)
        with pytest.raises(DegenerateStatisticError, match=f"^{side} is constant"):
            pearson(xs, ys)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            pearson([1.0], [1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_non_finite_rejected_naming_the_side(self, side, bad):
        xs, ys = [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]
        (xs if side == "x" else ys)[2] = bad
        with pytest.raises(ValidationError, match=rf"^{side} has a non-finite value"):
            pearson(xs, ys)


_QUANTILE_VALUES = st.lists(
    st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, 0.25, 1.0])), min_size=1, max_size=60
)
_QS = st.lists(
    st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.025, 0.25, 0.5, 0.75, 0.975, 1.0])),
    min_size=1, max_size=4,
)


class TestQuantiles:
    @given(_QUANTILE_VALUES, _QS, st.booleans())
    def test_equals_numpy_bit_for_bit(self, values, qs, presorted):
        values = np.array(sorted(values) if presorted else values)
        before = values.copy()
        got = np.array(_quantiles(values, qs))
        assert got.tobytes() == np.quantile(values, qs).tobytes()
        assert values.tobytes() == before.tobytes()

    @pytest.mark.parametrize("values", [[3.5], [2.0, 2.0, 2.0], [4.0, 1.0, 1.0, 3.0, 1.0]])
    def test_single_values_and_ties(self, values):
        qs = [0.0, 0.25, 0.5, 0.75, 1.0]
        assert np.array(_quantiles(values, qs)).tobytes() == np.quantile(values, qs).tobytes()


def _traj(sofas, survived, baseline=None, staleness_map=None):
    steps = [
        make_step(t, {"f1": 0.5}, (staleness_map or {}).get(t), sofa=s)
        for t, s in enumerate(sofas)
    ]
    return Trajectory("p", steps, survived, baseline if baseline is not None else sofas[0])


def ground_truth_score(traj, epsilon):
    """FitnessTargets.truth of a one-trajectory dataset."""
    return float(FitnessTargets(make_dataset([traj]), CompMetricConfig(epsilon=epsilon)).truth[0])


def uncertainty_score(traj, feature_ids):
    """FitnessTargets.staleness of a one-trajectory dataset."""
    return float(FitnessTargets(make_dataset([traj]), CompMetricConfig()).staleness(feature_ids)[0])


class TestGroundTruth:
    def test_saturated(self):
        assert ground_truth_score(_traj([5, 5.5, 4.8], True), epsilon=2.0) == 2.0

    def test_floor(self):
        assert ground_truth_score(_traj([5, 9, 9], False, baseline=12.0), epsilon=2.0) == 0.0

    def test_half_stable(self):
        traj = _traj([5.0, 5.5, 9.0, 9.0], True)
        assert ground_truth_score(traj, epsilon=2.0) == pytest.approx(1.5)

    def test_band_is_strict(self):
        traj = _traj([5.0, 7.0], True)  # |7-5| == epsilon, not inside
        assert ground_truth_score(traj, epsilon=2.0) == pytest.approx(1.5)


    def test_empty_trajectory_named(self):
        trajs = [
            Trajectory(f"p{i}", [] if i in (1, 3) else [make_step(t, {"f1": 0.5}) for t in range(3)],
                       True, 5.0)
            for i in range(4)
        ]
        with pytest.raises(ValidationError, match="^patient 'p1': trajectory has no steps$"):
            FitnessTargets(make_dataset(trajs), CompMetricConfig())

    def test_one_step_trajectory_allowed(self):
        assert ground_truth_score(_traj([5.0], True), epsilon=2.0) == 2.0


class TestUncertainty:
    def test_all_fresh(self):
        assert uncertainty_score(_traj([5, 5], True), ["f1"]) == 0.0

    def test_constant(self):
        traj = _traj([5, 5], True, staleness_map={0: {"f1": 6}, 1: {"f1": 6}})
        assert uncertainty_score(traj, ["f1"]) == 6.0

    def test_mixed_mean(self):
        traj = _traj([5, 5], True, staleness_map={0: {"f1": 0}, 1: {"f1": 12}})
        assert uncertainty_score(traj, ["f1"]) == 6.0

    def test_empty_feature_set_rejected(self):
        with pytest.raises(ValidationError):
            uncertainty_score(_traj([5, 5], True), [])


SIGMOID_5 = 1.0 / (1.0 + math.exp(-5.0))


class TestHomeostasis:
    def test_inside_interval(self):
        assert homeostasis_feature(0.5, FeatureType.NORMAL_RANGE, (0.4, 0.6), 0.2, 10.0) == 1.0

    def test_directional_low_midpoint(self):
        assert homeostasis_feature(0.5, FeatureType.DIRECTIONAL_LOW, None, 1.0, 10.0) == 0.5

    def test_directional_low_at_zero(self):
        v = homeostasis_feature(0.0, FeatureType.DIRECTIONAL_LOW, None, 1.0, 10.0)
        assert v == pytest.approx(SIGMOID_5, abs=1e-12)
        assert v == pytest.approx(0.993307, abs=1e-6)

    def test_directional_high_at_one(self):
        v = homeostasis_feature(1.0, FeatureType.DIRECTIONAL_HIGH, None, 1.0, 10.0)
        assert v == pytest.approx(SIGMOID_5, abs=1e-12)

    def test_boundary_branch_value(self):
        # just outside the interval the sigmoid branch starts at sigmoid(k/2)
        v = homeostasis_feature(0.6 + 1e-12, FeatureType.NORMAL_RANGE, (0.4, 0.6), 0.2, 10.0)
        assert v == pytest.approx(SIGMOID_5, abs=1e-9)

    def test_missing_interval_rejected(self):
        with pytest.raises(ConfigError):
            homeostasis_feature(0.5, FeatureType.NORMAL_RANGE, None, 0.2, 10.0)

    @given(st.floats(min_value=0.0, max_value=0.999))
    def test_directional_low_strictly_decreasing(self, v):
        lo = homeostasis_feature(v, FeatureType.DIRECTIONAL_LOW, None, 1.0, 10.0)
        hi = homeostasis_feature(v + 0.001, FeatureType.DIRECTIONAL_LOW, None, 1.0, 10.0)
        assert lo > hi

    @given(st.floats(min_value=0.0, max_value=0.999))
    def test_directional_high_strictly_increasing(self, v):
        lo = homeostasis_feature(v, FeatureType.DIRECTIONAL_HIGH, None, 1.0, 10.0)
        hi = homeostasis_feature(v + 0.001, FeatureType.DIRECTIONAL_HIGH, None, 1.0, 10.0)
        assert lo < hi


def homeostasis_state(step, feature_ids, cfg, feature_schema):
    """Homeostasis of one step: the state of a one-step trajectory."""
    dataset = TrajectoryDataset([Trajectory("p", [step], True, 5.0)], feature_schema, {})
    return float(FitnessTargets(dataset, cfg).homeostasis(feature_ids)[0])


class TestHomeostasisState:
    def _dataset(self):
        trajs = [
            Trajectory(
                "p",
                [
                    make_step(0, {"nr": 0.5, "dl": 0.5, "dh": 1.0}),
                    make_step(1, {"nr": 0.5, "dl": 0.5, "dh": 1.0}),
                ],
                True,
                5.0,
            )
        ]
        return make_dataset(
            trajs,
            feature_types={
                "dl": FeatureType.DIRECTIONAL_LOW,
                "dh": FeatureType.DIRECTIONAL_HIGH,
            },
        )

    def test_three_feature_mean(self):
        ds = self._dataset()
        cfg = CompMetricConfig(iqr={"nr": 0.2, "dl": 1.0, "dh": 1.0})
        score = homeostasis_state(ds.trajectories[0].steps[0], ["nr", "dl", "dh"], cfg, ds.feature_schema)
        expected = (1.0 + 0.5 + SIGMOID_5) / 3.0
        assert score == pytest.approx(expected, abs=1e-12)
        assert score == pytest.approx(0.831102, abs=1e-6)

    def test_all_saturated(self):
        ds = self._dataset()
        cfg = CompMetricConfig(iqr={"nr": 0.2})
        assert homeostasis_state(ds.trajectories[0].steps[0], ["nr"], cfg, ds.feature_schema) == 1.0


def efficiency(prev, nxt, feature_ids, cfg, feature_schema):
    """Efficiency of one transition: the efficiency of a two-step trajectory."""
    dataset = TrajectoryDataset([Trajectory("p", [prev, nxt], True, 5.0)], feature_schema, {})
    return float(FitnessTargets(dataset, cfg).efficiency(feature_ids)[0])


class TestEfficiency:
    def _schema(self, n):
        trajs = [
            Trajectory(
                "p",
                [make_step(0, {f"f{i}": 0.5 for i in range(n)}), make_step(1, {f"f{i}": 0.5 for i in range(n)})],
                True,
                5.0,
            )
        ]
        return make_dataset(trajs).feature_schema

    def test_no_change_zero_action(self):
        schema = self._schema(1)
        cfg = CompMetricConfig(iqr={"f0": 0.2}, action_max={"drug_a": 4.0})
        prev = make_step(0, {"f0": 0.5}, action={"drug_a": 0})
        nxt = make_step(1, {"f0": 0.5})
        assert efficiency(prev, nxt, ["f0"], cfg, schema) == 0.0

    def test_exact_gain_minus_dose(self):
        # five NormalRange features; two sit exactly at d = IQR/2 so their
        # score is sigmoid(0) = 0.5, giving H = 0.8 -> 1.0: a gain of 0.2
        schema = self._schema(5)
        fids = [f"f{i}" for i in range(5)]
        cfg = CompMetricConfig(iqr={f: 0.2 for f in fids}, action_max={"drug_a": 4.0}, alpha=0.1)
        prev_vals = {"f0": 0.7, "f1": 0.7, "f2": 0.5, "f3": 0.5, "f4": 0.5}
        prev = make_step(0, prev_vals, action={"drug_a": 4})
        nxt = make_step(1, {f: 0.5 for f in fids})
        assert efficiency(prev, nxt, fids, cfg, schema) == pytest.approx(0.1, abs=1e-12)

    def test_dose_only(self):
        schema = self._schema(1)
        cfg = CompMetricConfig(iqr={"f0": 0.2}, action_max={"drug_a": 4.0}, alpha=0.1)
        prev = make_step(0, {"f0": 0.5}, action={"drug_a": 2})
        nxt = make_step(1, {"f0": 0.5})
        assert efficiency(prev, nxt, ["f0"], cfg, schema) == pytest.approx(-0.05, abs=1e-12)

    def test_affine_in_dose_with_slope_alpha(self):
        schema = self._schema(1)
        cfg = CompMetricConfig(iqr={"f0": 0.2}, action_max={"drug_a": 4.0}, alpha=0.3)
        nxt = make_step(1, {"f0": 0.55})
        values = []
        for level in range(5):
            prev = make_step(0, {"f0": 0.5}, action={"drug_a": level})
            values.append(efficiency(prev, nxt, ["f0"], cfg, schema))
        diffs = [b - a for a, b in zip(values, values[1:])]
        assert all(d == pytest.approx(-0.3 / 4.0, abs=1e-12) for d in diffs)


def _aligned_traces(dataset, targets):
    base = [trace(t, simple_spec(fids=("f1", "f2"))) for t in dataset.trajectories]
    return [dataclasses.replace(tr, cumulative=v) for tr, v in zip(base, targets)]


class TestCorrelationMetrics:
    def _cohort(self):
        trajs = []
        for i, (survived, sofa_shift, stale) in enumerate(
            [(True, 0.0, 0), (True, 1.0, 2), (False, 5.0, 5), (False, 8.0, 9)]
        ):
            steps = [
                make_step(t, {"f1": 0.5, "f2": 0.5}, {"f1": stale, "f2": stale},
                          action={"drug_a": i}, sofa=5.0 + sofa_shift * t)
                for t in range(3)
            ]
            trajs.append(Trajectory(f"p{i}", steps, survived, 5.0))
        return make_dataset(trajs)

    def test_j_surv_perfect_alignment(self):
        ds = self._cohort()
        truth = FitnessTargets(ds, CompMetricConfig(epsilon=2.0)).truth.tolist()
        assert j_surv(ds, _aligned_traces(ds, truth), 2.0) == pytest.approx(1.0)
        assert j_surv(ds, _aligned_traces(ds, [-g for g in truth]), 2.0) == pytest.approx(-1.0)

    def test_j_conf_sign_flip(self):
        ds = self._cohort()
        unc = FitnessTargets(ds, CompMetricConfig()).staleness(["f1", "f2"]).tolist()
        assert j_conf(ds, _aligned_traces(ds, [-u for u in unc]), ["f1", "f2"]) == pytest.approx(1.0)
        assert j_conf(ds, _aligned_traces(ds, unc), ["f1", "f2"]) == pytest.approx(-1.0)

    def test_j_comp_alignment(self):
        ds = self._cohort()
        cfg = CompMetricConfig().prepare(ds)
        # efficiency differs across trajectories through the dose term
        eff = FitnessTargets(ds, cfg).efficiency(["f1", "f2"]).tolist()
        assert j_comp(ds, _aligned_traces(ds, eff), ["f1", "f2"], cfg) == pytest.approx(1.0)

    def test_degenerate_reward_named(self):
        ds = self._cohort()
        with pytest.raises(DegenerateStatisticError, match="cumulative reward"):
            j_surv(ds, _aligned_traces(ds, [1.0, 1.0, 1.0, 1.0]), 2.0)


class TestFitnessVector:
    def test_bounds_enforced(self):
        with pytest.raises(ValidationError):
            FitnessVector(1.2, 0.0, 0.0)
        with pytest.raises(ValidationError):
            FitnessVector(float("nan"), 0.0, 0.0)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            CompMetricConfig(epsilon=0.0)
        with pytest.raises(ConfigError):
            CompMetricConfig(aggregation="median")


class TestFitnessEndToEnd:
    def test_identical_spec_identical_vector(self, cohort500):
        spec = simple_spec(fids=("nr0", "lo0"), lam=0.1)
        v1 = fitness(cohort500, spec)
        v2 = fitness(cohort500, spec)
        assert v1 == v2

    def test_components_in_range(self, cohort500):
        from tridrive.synth import CohortConfig, reference_spec

        vec = fitness(cohort500, reference_spec(CohortConfig(n_patients=500, seed=42)))
        for v in vec.as_tuple():
            assert -1.0 <= v <= 1.0 and math.isfinite(v)

    def test_constant_reward_spec_rejected(self):
        traj = Trajectory(
            "p0",
            [make_step(0, {"f1": 0.5}), make_step(1, {"f1": 0.5})],
            True,
            5.0,
        )
        clone = dataclasses.replace(traj, patient_id="p1")
        ds = make_dataset([traj, clone])
        with pytest.raises(DegenerateStatisticError):
            fitness(ds, simple_spec())


def test_targets_match_scalar_oracle(cohort500):
    cfg = CompMetricConfig().prepare(cohort500)
    fids = cohort500.feature_ids()
    trajs = cohort500.trajectories
    for fid in fids:
        assert cfg.iqr[fid] == oracle_iqr(cohort500, fid)
    targets = FitnessTargets(cohort500, cfg)
    exact = dict(rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        targets.truth, [oracle_ground_truth(t, cfg.epsilon) for t in trajs], **exact
    )
    np.testing.assert_allclose(
        targets.staleness(fids), [oracle_uncertainty(t, fids) for t in trajs], **exact
    )
    for aggregation in ("mean", "sum"):
        agg = dataclasses.replace(cfg, aggregation=aggregation)
        np.testing.assert_allclose(
            FitnessTargets(cohort500, agg).efficiency(fids),
            [oracle_efficiency(t, fids, agg, cohort500.feature_schema) for t in trajs],
            **exact,
        )
