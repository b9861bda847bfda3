import dataclasses
import gc
import hashlib
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    binary_document,
    make_dataset,
    make_step,
    mutated_column_files,
    oracle_bootstrap_ci,
    oracle_resample_counts,
    oracle_trajectory_weight,
    plain_document,
)
from tridrive import ope
from tridrive.errors import (
    DegenerateStatisticError,
    FormatError,
    SchemaError,
    TridriveError,
    ValidationError,
)
from tridrive.jsonio import write_columns
from tridrive.model import Trajectory, save_dataset
from tridrive.ope import (
    PolicyProbTable,
    bootstrap_ci,
    identity_prob_table,
    load_prob_table,
    mortality_curve,
    prob_table_from_json,
    prob_table_to_json,
    resample_counts,
    save_prob_table,
    trajectory_weight,
    wis,
)
from tridrive.pipeline import ope_stage
from tridrive.rewards import RewardTrace, trace
from tridrive.synth import CohortConfig, generate, reference_spec


def _cohort(returns, survived=None):
    survived = survived or [True] * len(returns)
    trajs = [
        Trajectory(
            f"p{i}",
            [make_step(0, {"f1": 0.5}), make_step(1, {"f1": 0.5})],
            s,
            5.0,
        )
        for i, s in enumerate(survived)
    ]
    ds = make_dataset(trajs)
    traces = [RewardTrace(rewards=[r], potentials=[0.0, 0.0], cumulative=r) for r in returns]
    return ds, traces


def _table(ds, ratios):
    """One transition per trajectory with the requested p_eval/p_behavior ratio."""
    probs = {}
    for traj, ratio in zip(ds.trajectories, ratios):
        p_behavior = 0.25
        probs[(traj.patient_id, 0)] = (ratio * p_behavior, p_behavior)
    return PolicyProbTable(probs)


@st.composite
def _weight_cases(draw):
    """Trajectories and a table dict over them: rows may be missing or extra,
    a patient may be absent, and p_behavior may be 0."""
    probability = st.floats(0.0, 1.0)
    behavior = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.sampled_from([0.25, 1.0]))
    trajs, probs = [], {}
    for i in range(draw(st.integers(1, 4))):
        times = sorted(draw(st.sets(st.integers(0, 12), min_size=1, max_size=6)))
        pid = f"p{i}"
        trajs.append(Trajectory(pid, [make_step(t, {"f1": 0.5}) for t in times], True, 5.0))
        if draw(st.integers(0, 4)) == 0:  # absent from the table
            continue
        rows = {t for t in times[:-1] if draw(st.integers(0, 6))}
        rows |= draw(st.sets(st.integers(0, 12), max_size=3))
        for t in sorted(rows):
            probs[(pid, t)] = (draw(probability), draw(behavior))
    if draw(st.booleans()):  # a patient with no trajectory
        probs[("q", 0)] = (0.5, 0.5)
    max_ratio = draw(st.one_of(st.none(), st.just(math.inf), st.floats(0.1, 10.0)))
    return trajs, probs, max_ratio


class TestTrajectoryWeight:
    def _multi_step(self):
        traj = Trajectory(
            "p0",
            [make_step(t, {"f1": 0.5}) for t in range(3)],
            True,
            5.0,
        )
        return traj

    def test_identity(self):
        traj = self._multi_step()
        probs = PolicyProbTable({("p0", 0): (0.3, 0.3), ("p0", 1): (0.7, 0.7)})
        assert trajectory_weight(traj, probs) == pytest.approx(1.0)

    def test_product_of_ratios(self):
        traj = self._multi_step()
        probs = PolicyProbTable({("p0", 0): (0.5, 0.25), ("p0", 1): (0.6, 0.4)})
        assert trajectory_weight(traj, probs) == pytest.approx(3.0)

    def test_zero_eval_probability_absorbs(self):
        traj = self._multi_step()
        probs = PolicyProbTable({("p0", 0): (0.0, 0.25), ("p0", 1): (0.6, 0.4)})
        assert trajectory_weight(traj, probs) == 0.0

    def test_missing_coverage_named(self):
        traj = self._multi_step()
        probs = PolicyProbTable({("p0", 0): (0.5, 0.5)})
        with pytest.raises(SchemaError, match=r"'p0' at t=1"):
            trajectory_weight(traj, probs)

    def test_ratio_cap(self):
        traj = self._multi_step()
        probs = PolicyProbTable({("p0", 0): (1.0, 0.1), ("p0", 1): (1.0, 0.5)})
        assert trajectory_weight(traj, probs) == pytest.approx(20.0)
        assert trajectory_weight(traj, probs, max_ratio=5.0) == pytest.approx(10.0)

    @settings(max_examples=300, deadline=None)
    @given(_weight_cases())
    def test_matches_dict_oracle(self, case):
        trajs, probs, max_ratio = case
        zeros = sorted(key for key, (_, p_behavior) in probs.items() if p_behavior == 0.0)
        if zeros:
            # The table is refused when made, at its first zero row in
            # (patient, t) order.
            pid, t = zeros[0]
            message = (f"({pid!r}, t={t}): p_behavior 0.0 must lie in (0,1] "
                       "(logged actions need behavior-policy support)")
            with pytest.raises(ValidationError) as raised:
                PolicyProbTable(probs)
            assert str(raised.value) == message
            return
        tables = [PolicyProbTable(probs)]
        tables.append(prob_table_from_json(*prob_table_to_json(tables[0])))
        for traj in trajs:
            try:
                expected = oracle_trajectory_weight(traj, tables[0], max_ratio)
            except (SchemaError, ValidationError) as exc:
                for table in tables:
                    with pytest.raises(type(exc)) as raised:
                        trajectory_weight(traj, table, max_ratio)
                    assert str(raised.value) == str(exc)
                continue
            for table in tables:
                got = trajectory_weight(traj, table, max_ratio)
                assert type(got) is float
                assert got == expected or (math.isnan(got) and math.isnan(expected))


def _view_dataset(times):
    """A dataset of one trajectory per list of step times, patients p0, p1, ..."""
    return make_dataset([
        Trajectory(f"p{i}", [make_step(t, {"f1": 0.5}) for t in ts], True, 5.0)
        for i, ts in enumerate(times)
    ])


def _assert_weights_match_oracle(dataset, table, max_ratio):
    """_join_weights raises what the oracle first raises, in trajectory
    order, or gives its weights (inf and NaN included) bit for bit."""
    patient_ids = [traj.patient_id for traj in dataset.trajectories]
    try:
        expected = [oracle_trajectory_weight(t, table, max_ratio) for t in dataset.trajectories]
    except (SchemaError, ValidationError) as exc:
        with pytest.raises(type(exc)) as raised:
            ope._join_weights(dataset.columns, patient_ids, table, max_ratio)
        assert str(raised.value) == str(exc)
        return
    weights = ope._join_weights(dataset.columns, patient_ids, table, max_ratio)
    assert np.array_equal(weights, expected, equal_nan=True)
    assert np.array_equal(np.signbit(weights), np.signbit(expected))


def _random_table(dataset, seed, zero_eval=0.0):
    """The identity table's rows with random probabilities."""
    rng = np.random.default_rng(seed)
    columns = identity_prob_table(dataset).columns
    rows = len(columns.t)
    p_eval = rng.uniform(0.0, 1.0, rows) * (rng.uniform(size=rows) >= zero_eval)
    p_behavior = rng.uniform(0.02, 1.0, rows)
    return PolicyProbTable.of_columns(columns._replace(p_eval=p_eval, p_behavior=p_behavior))


class TestJoinedWeights:
    """The one join per table behind trajectory_weight, against the oracle."""

    @pytest.mark.parametrize("max_ratio", [None, 5.0, math.inf])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_generated_cohort_matches_oracle(self, seed, max_ratio):
        dataset = generate(CohortConfig(n_patients=80, horizon_min=2, horizon_max=30, seed=seed))
        table = _random_table(dataset, seed, zero_eval=0.02)
        patient_ids = [traj.patient_id for traj in dataset.trajectories]
        weights = ope._join_weights(dataset.columns, patient_ids, table, max_ratio)
        expected = [oracle_trajectory_weight(t, table, max_ratio) for t in dataset.trajectories]
        assert weights == expected
        _assert_weights_match_oracle(dataset, table, max_ratio)

    def test_a_step_built_dataset_is_joined_once(self, monkeypatch):
        # Built from steps, as acceptance criterion 8 builds its cohort.
        trajs, probs = [], {}
        for i in range(20):
            pid = f"mdp_{i:05d}"
            steps = [make_step(t, {"s": 0.25 + 0.5 * ((i + t) % 2)}, action={"a": i % 2})
                     for t in range(2)]
            trajs.append(Trajectory(pid, [*steps, make_step(2, {"s": 0.75})], True, 5.0))
            probs |= {(pid, t): (0.3 + 0.2 * ((i + t) % 3), 0.4 + 0.1 * t) for t in range(2)}
        dataset = make_dataset(trajs, action_max={"a": 1.0})
        table = PolicyProbTable(probs)
        join, joins = ope._join_weights, []
        monkeypatch.setattr(
            ope, "_join_weights", lambda *args: joins.append(join(*args)) or joins[-1]
        )
        traces = [RewardTrace([], [0.0], float(i % 4)) for i in range(20)]
        weights = np.array([oracle_trajectory_weight(t, table, None) for t in trajs])
        returns = np.array([t.cumulative for t in traces])
        assert wis(dataset, traces, table) == float(np.dot(weights, returns) / weights.sum())
        assert len(joins) == 1

    def test_overflowing_products_match_without_warnings(self):
        # p0's product overflows to inf; p1's then meets a zero ratio: NaN.
        dataset = _view_dataset([list(range(12)), [0, 1, 2, 3]])
        tiny = {("p0", t): 1e-300 if t % 2 else 1.0 for t in range(11)}
        tiny |= {("p1", 0): 1e-300, ("p1", 1): 1e-300, ("p1", 2): 1e-300}
        for p_eval in (1.0, 0.5):
            probs = {key: (p_eval, p) for key, p in tiny.items()}
            probs[("p1", 2)] = (0.0, 1e-300)
            _assert_weights_match_oracle(dataset, PolicyProbTable(probs), None)

    def test_one_step_and_empty_trajectories(self):
        dataset = _view_dataset([[0], [3, 4, 5], [7], [], [2, 9]])
        table = PolicyProbTable(
            {("p1", 3): (0.5, 0.25), ("p1", 4): (0.3, 0.9), ("p4", 2): (1.0, 0.5)}
        )
        patient_ids = [traj.patient_id for traj in dataset.trajectories]
        weights = ope._join_weights(dataset.columns, patient_ids, table, None)
        assert weights[0] == weights[2] == weights[3] == 1.0
        _assert_weights_match_oracle(dataset, table, None)

    @pytest.mark.parametrize(
        "rows",
        [
            pytest.param({("p1", 9): (0.5, 0.5)}, id="extra-row"),
            pytest.param({("p0", 0): (0.5, 0.5)}, id="extra-row-first"),
            pytest.param({("p1", 4): None}, id="skipped-step"),
            pytest.param({("p1", 5): (0.5, 0.5), ("p1", 4): None}, id="row-off-the-steps"),
            pytest.param(None, id="generated-cohort-extra-first-rows"),
        ],
    )
    def test_rows_that_do_not_match_are_flagged(self, rows):
        if rows is None:
            # Every patient has a row before its first step, so no row is
            # where its position guesses, and every trajectory is searched.
            dataset = generate(CohortConfig(n_patients=40, horizon_min=2, horizon_max=12, seed=5))
            probs = dict(_random_table(dataset, seed=5).probs)
            probs |= {(t.patient_id, t.steps[0].t - 1): (0.5, 0.25) for t in dataset.trajectories}
        else:
            dataset = _view_dataset([[1], [3, 4, 6], [7, 8, 10]])
            probs = {("p1", 3): (0.5, 0.25), ("p1", 4): (0.3, 0.9), ("p2", 7): (0.4, 0.5),
                     ("p2", 8): (0.9, 0.3)}
            probs.update(rows)
            probs = {key: p for key, p in probs.items() if p is not None}
        table = PolicyProbTable(probs)
        for max_ratio in (None, 1.5):
            _assert_weights_match_oracle(dataset, table, max_ratio)

    def test_first_offender_in_trajectory_order(self):
        # p1 and p3, later, each miss a row: p1 is reported.
        dataset = _view_dataset([[0, 1], [0, 1, 2], [0, 1], [0, 1, 2]])
        table = PolicyProbTable({
            ("p0", 0): (0.5, 0.5), ("p1", 0): (0.5, 0.5), ("p2", 0): (0.5, 0.5),
            ("p3", 0): (0.5, 0.5),
        })
        with pytest.raises(SchemaError, match=r"^no policy probabilities for patient 'p1' at t=1"):
            bootstrap_ci(dataset, [RewardTrace([], [0.0], 0.0)] * 4, table, resamples=10)
        _assert_weights_match_oracle(dataset, table, None)
        # Without p1, p3 is the first trajectory with a missing row.
        first, _, *rest = dataset.trajectories
        dataset = dataclasses.replace(dataset, trajectories=[first, *rest])
        with pytest.raises(SchemaError, match=r"^no policy probabilities for patient 'p3' at t=1$"):
            wis(dataset, [RewardTrace([], [0.0], 0.0)] * 3, table)
        assert ope._joined == ope._NOT_JOINED
        # A zero p_behavior refuses the whole table when it is made.
        with pytest.raises(
            ValidationError, match=r"^\('p3', t=1\): p_behavior 0.0 must lie in \(0,1\] "
        ):
            PolicyProbTable({**table.probs, ("p3", 1): (0.5, 0.0)})
        assert ope._joined == ope._NOT_JOINED

    def test_dataset_not_a_view_of_one_block(self):
        # Made of trajectories that are not all of one block in order, a
        # dataset owns a new block, and its table is joined to that.
        cohort = generate(CohortConfig(n_patients=30, horizon_min=2, horizon_max=12, seed=4))
        table = _random_table(cohort, seed=4)
        rebuilt = make_dataset([Trajectory(t.patient_id, t.steps, t.survived, 5.0)
                                for t in cohort.trajectories])
        reordered = dataclasses.replace(cohort, trajectories=cohort.trajectories[::-1])
        for dataset in (rebuilt, reordered):
            block = dataset.columns
            assert block is not cohort.columns
            assert [t.block for t in dataset.trajectories] == [(block, k) for k in range(30)]
            _assert_weights_match_oracle(dataset, table, 2.0)

    def test_memo_keys_on_block_table_and_max_ratio(self, monkeypatch):
        dataset = generate(CohortConfig(n_patients=6, horizon_min=3, horizon_max=6, seed=2))
        table = _random_table(dataset, seed=2)
        twin = PolicyProbTable.of_columns(table.columns)
        assert twin == table and twin is not table
        trajs = dataset.trajectories
        patient_ids = [traj.patient_id for traj in trajs]
        n = len(trajs)
        monkeypatch.setattr(
            ope, "_joined",
            (dataset.columns, table, 5.0, patient_ids, [7.0] * n),
        )
        assert trajectory_weight(trajs[0], table, 5.0) == 7.0  # read from the slot
        expected = [oracle_trajectory_weight(t, table, 5.0) for t in trajs]
        assert trajectory_weight(trajs[0], twin, 5.0) == expected[0]
        assert trajectory_weight(trajs[0], table) == oracle_trajectory_weight(trajs[0], table)
        assert trajectory_weight(trajs[0], table, 4.0) == oracle_trajectory_weight(
            trajs[0], table, 4.0
        )
        rebuilt = Trajectory(trajs[0].patient_id, trajs[0].steps, True, 5.0)
        assert trajectory_weight(rebuilt, table, 5.0) == expected[0]
        other = Trajectory.view("q", dataset.columns, 0, True, 5.0)
        with pytest.raises(SchemaError, match="'q'"):
            trajectory_weight(other, table, 5.0)

    def test_equal_tables_and_changed_max_ratio_between_calls(self):
        dataset = generate(CohortConfig(n_patients=40, horizon_min=2, horizon_max=10, seed=6))
        alone = make_dataset(
            [Trajectory(t.patient_id, t.steps, t.survived, 5.0) for t in dataset.trajectories]
        )
        traces = [RewardTrace([], [0.0], float(i % 3)) for i in range(40)]
        table = _random_table(dataset, seed=6)
        twin = PolicyProbTable.of_columns(table.columns)
        for max_ratio in (None, 1.5, None, math.inf, 1.5):
            for probs in (table, twin):
                est = bootstrap_ci(dataset, traces, probs, resamples=64, max_ratio=max_ratio)
                assert est == bootstrap_ci(alone, traces, probs, resamples=64, max_ratio=max_ratio)

    def test_no_table_outlives_its_evaluation(self):
        dataset = generate(CohortConfig(n_patients=10, horizon_min=2, horizon_max=6, seed=8))
        traces = [RewardTrace([], [0.0], 1.0)] * 10
        table = _random_table(dataset, seed=8)
        ref = weakref.ref(table)
        bootstrap_ci(dataset, traces, table, resamples=20)
        assert ope._joined == ope._NOT_JOINED
        del table
        gc.collect()
        assert ref() is None


class TestWis:
    def test_identity_reduces_to_mean(self):
        ds, traces = _cohort([1.0, 2.0, 3.0])
        assert abs(wis(ds, traces, identity_prob_table(ds)) - 2.0) < 1e-9

    def test_weighted_hand_value(self):
        ds, traces = _cohort([1.0, 0.0])
        assert wis(ds, traces, _table(ds, [3.0, 1.0])) == pytest.approx(0.75)

    def test_scale_invariance(self):
        ds, traces = _cohort([1.0, -2.0, 0.5])
        base = wis(ds, traces, _table(ds, [0.5, 2.0, 1.0]))
        scaled = wis(ds, traces, _table(ds, [0.75, 3.0, 1.5]))
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_bounded_by_return_range(self):
        rng = np.random.default_rng(8)
        returns = rng.normal(size=20).tolist()
        ds, traces = _cohort(returns)
        value = wis(ds, traces, _table(ds, rng.random(20).tolist()))
        assert min(returns) <= value <= max(returns)

    def test_all_zero_weights_rejected(self):
        ds, traces = _cohort([1.0, 2.0])
        with pytest.raises(DegenerateStatisticError, match="zero"):
            wis(ds, traces, _table(ds, [0.0, 0.0]))

    def test_max_ratio_must_be_positive(self):
        ds, traces = _cohort([1.0, 0.0])
        table = _table(ds, [3.0, 1.0])
        assert wis(ds, traces, table, max_ratio=float("inf")) == wis(ds, traces, table)
        for bad in (float("nan"), 0.0, -1.0, -float("inf")):
            with pytest.raises(ValidationError, match="max_ratio must be > 0"):
                wis(ds, traces, table, max_ratio=bad)
            with pytest.raises(ValidationError, match="max_ratio must be > 0"):
                bootstrap_ci(ds, traces, table, resamples=10, max_ratio=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_return_rejected(self, bad):
        ds, traces = _cohort([1.0, bad, 3.0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(
                ValidationError, match=rf"^patient 'p1': trajectory return {bad} is not finite$"
            ):
                wis(ds, traces, _table(ds, [1.0, 2.0, 0.5]))
        assert caught == []

    @pytest.mark.parametrize("last_eval, weight", [(1.0, "inf"), (0.0, "nan")])
    def test_non_finite_weight_rejected(self, last_eval, weight):
        # As bootstrap_ci's: p1's ratios overflow to inf, then meet a zero.
        ds = _view_dataset([[0, 1], [0, 1, 2, 3], [0, 1]])
        traces = [RewardTrace([], [0.0], r) for r in (1.0, 2.0, 3.0)]
        table = PolicyProbTable({
            ("p0", 0): (0.5, 0.5), ("p2", 0): (0.5, 0.5),
            ("p1", 0): (1.0, 1e-300), ("p1", 1): (1.0, 1e-300), ("p1", 2): (last_eval, 0.5),
        })
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(
                ValidationError, match=rf"^patient 'p1': trajectory weight {weight} is not finite$"
            ):
                wis(ds, traces, table)
        assert caught == []


class TestBootstrap:
    def test_negative_seed_rejected(self):
        ds, traces = _cohort([1.0, 2.0, 3.0])
        with pytest.raises(ValidationError, match="seed must be nonnegative"):
            bootstrap_ci(ds, traces, identity_prob_table(ds), resamples=10, seed=-1)

    def test_constant_returns_collapse_interval(self):
        ds, traces = _cohort([2.5] * 6)
        est = bootstrap_ci(ds, traces, identity_prob_table(ds), resamples=100, seed=1)
        assert est.ci_low == est.ci_high == est.value == 2.5

    def test_seed_determinism(self):
        rng = np.random.default_rng(3)
        ds, traces = _cohort(rng.normal(size=15).tolist())
        table = _table(ds, rng.random(15).tolist())
        a = bootstrap_ci(ds, traces, table, resamples=200, seed=42)
        b = bootstrap_ci(ds, traces, table, resamples=200, seed=42)
        assert (a.value, a.ci_low, a.ci_high) == (b.value, b.ci_low, b.ci_high)
        c = bootstrap_ci(ds, traces, table, resamples=200, seed=43)
        assert (a.ci_low, a.ci_high) != (c.ci_low, c.ci_high)

    def test_interval_contains_estimate(self):
        rng = np.random.default_rng(4)
        ds, traces = _cohort(rng.normal(size=40).tolist())
        table = _table(ds, (rng.random(40) + 0.2).tolist())
        est = bootstrap_ci(ds, traces, table, level=0.95, resamples=500, seed=7)
        assert est.ci_low <= est.value <= est.ci_high

    def test_degenerate_resamples_skipped_and_counted(self):
        ds, traces = _cohort([1.0, 5.0])
        table = _table(ds, [0.0, 1.0])
        est = bootstrap_ci(ds, traces, table, resamples=100, seed=0)
        assert est.skipped_resamples > 0
        assert est.value == pytest.approx(5.0)

    def test_effective_sample_size(self):
        ds, traces = _cohort([1.0, 2.0, 3.0, 4.0])
        est = bootstrap_ci(ds, traces, identity_prob_table(ds), resamples=50, seed=0)
        assert est.n_effective == pytest.approx(4.0)

    @pytest.mark.parametrize("last_eval, weight", [(1.0, "inf"), (0.0, "nan")])
    def test_non_finite_weight_rejected(self, last_eval, weight):
        # p1's ratios overflow to inf, and a zero ratio after them gives NaN.
        ds = _view_dataset([[0, 1], [0, 1, 2, 3], [0, 1]])
        traces = [RewardTrace([], [0.0], r) for r in (1.0, 2.0, 3.0)]
        table = PolicyProbTable({
            ("p0", 0): (0.5, 0.5), ("p2", 0): (0.5, 0.5),
            ("p1", 0): (1.0, 1e-300), ("p1", 1): (1.0, 1e-300), ("p1", 2): (last_eval, 0.5),
        })
        with pytest.raises(
            ValidationError, match=rf"^patient 'p1': trajectory weight {weight} is not finite$"
        ):
            bootstrap_ci(ds, traces, table, resamples=10)

    def test_level_validated(self):
        ds, traces = _cohort([1.0, 2.0])
        with pytest.raises(ValidationError):
            bootstrap_ci(ds, traces, identity_prob_table(ds), level=1.0)


def _first_step_table(dataset, p_eval, p_behavior):
    """The identity table, but with (p_eval[k], p_behavior) at trajectory
    k's first transition."""
    columns = identity_prob_table(dataset).columns
    first = [lo for lo, hi in columns.spans.values()]
    evals, behaviors = columns.p_eval.copy(), columns.p_behavior.copy()
    evals[first], behaviors[first] = p_eval, p_behavior
    return PolicyProbTable.of_columns(columns._replace(p_eval=evals, p_behavior=behaviors))


class TestScaledWeights:
    """The estimates do not change when every weight is multiplied by one
    constant, and they are computed from weights scaled by a power of two,
    so finite weights far from 1 give the estimates of ordinary ones."""

    @pytest.mark.parametrize(
        "eval_scale, p_behavior", [(1.0, 1e-200), (1.0, 1e-308), (1e-308, 1.0)],
        ids=["weights-1e200", "weights-1e308", "weights-1e-308"],
    )
    def test_extreme_weights_give_the_estimates_of_ordinary_ones(self, eval_scale, p_behavior):
        config = CohortConfig(n_patients=20, seed=3)
        dataset = generate(config)
        traces = [trace(traj, reference_spec(config)) for traj in dataset.trajectories]
        ratios = np.random.default_rng(3).uniform(0.1, 1.0, 20)
        extreme = _first_step_table(dataset, ratios * eval_scale, p_behavior)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = bootstrap_ci(dataset, traces, extreme, resamples=200, seed=1)
            value = wis(dataset, traces, extreme)
        assert caught == []
        ordinary = _first_step_table(dataset, ratios, 1.0)
        want = bootstrap_ci(dataset, traces, ordinary, resamples=200, seed=1)
        assert value == pytest.approx(wis(dataset, traces, ordinary), rel=1e-12, abs=1e-12)
        for name in ("value", "ci_low", "ci_high", "n_effective"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=1e-12)
        # The per-trajectory weight stays the unscaled product.
        first = trajectory_weight(dataset.trajectories[0], extreme)
        assert first == pytest.approx(ratios[0] * eval_scale / p_behavior, rel=1e-12)


def _random_cohort(n, seed, zeros=0):
    """n trajectories with normal returns and random ratios, the first
    `zeros` of which have a zero-probability evaluation action."""
    rng = np.random.default_rng(seed)
    ds, traces = _cohort(rng.normal(size=n).tolist())
    ratios = rng.uniform(0.1, 4.0, size=n)
    ratios[:zeros] = 0.0
    return ds, traces, _table(ds, ratios.tolist())


# Resamples per block in TestBootstrapOracle, which sizes the blocks to it.
_BLOCK = 256


class TestBootstrapOracle:
    """The memoized count-matrix bootstrap against the per-resample loop."""

    @pytest.mark.parametrize(
        "n, zeros, resamples, max_ratio",
        [
            pytest.param(40, 0, 4 * _BLOCK, None, id="whole-blocks"),
            pytest.param(8, 5, 1000, None, id="zero-probability-rows"),
            pytest.param(30, 0, 300, 2.0, id="max-ratio"),
            pytest.param(25, 0, 2 * _BLOCK + 7, 1.5, id="partial-last-block"),
            pytest.param(2, 0, 100, None, id="n2"),
            pytest.param(2, 1, 100, None, id="n2-zero-row"),
        ],
    )
    def test_matches_oracle(self, n, zeros, resamples, max_ratio, monkeypatch):
        monkeypatch.setattr(ope, "_BLOCK_ENTRIES", _BLOCK * n)
        ds, traces, table = _random_cohort(n, seed=n + zeros, zeros=zeros)
        est = bootstrap_ci(ds, traces, table, level=0.9, resamples=resamples, seed=11,
                           max_ratio=max_ratio)
        value, ci_low, ci_high, n_eff, skipped = oracle_bootstrap_ci(
            ds, traces, table, level=0.9, resamples=resamples, seed=11, max_ratio=max_ratio
        )
        assert est.skipped_resamples == skipped
        assert (skipped > 0) == (zeros > 0)
        assert abs(est.value - value) <= 1e-12
        assert abs(est.ci_low - ci_low) <= 1e-12
        assert abs(est.ci_high - ci_high) <= 1e-12
        assert abs(est.n_effective - n_eff) <= 1e-12


_GOLDEN_COUNTS_0_50_100 = "e8f2494d06ee83b3d1a0db62b75fe478e999b85457e1d1f221f82c8333004a6c"


class TestResampleMemo:
    def test_counts_are_the_per_resample_draws(self):
        counts = resample_counts(5, 300, 40)
        assert counts.shape == (40, 300) and counts.dtype == np.uint8
        assert (counts.sum(axis=1) == 300).all()
        for b in (0, 17, 39):
            rng = np.random.default_rng(np.random.SeedSequence([5, b]))
            draws = rng.integers(0, 300, size=300)
            assert np.array_equal(counts[b], np.bincount(draws, minlength=300))
        # One byte per count whatever n, unless a count exceeds 255.
        assert resample_counts(0, 255, 3).dtype == np.uint8
        assert resample_counts(0, 256, 3).dtype == np.uint8

    @pytest.mark.parametrize("n", [2, 3, 255, 256, 257, 500, 501])
    @pytest.mark.parametrize("seed", [0, 5, 2**32 - 1, 2**32, 2**64 + 3])
    def test_counts_match_oracle(self, seed, n):
        # Row b depends on (seed, b) alone, so each count is a prefix of the
        # oracle's rows. The counts are made in chunks of 64 rows.
        expected = oracle_resample_counts(seed, n, 129)
        for resamples in (1, 40, 63, 64, 65, 129):
            counts = resample_counts(seed, n, resamples)
            assert counts.dtype == np.uint8
            assert np.array_equal(counts, expected[:resamples])

    def test_counts_match_oracle_where_rows_are_redrawn(self):
        n, resamples = 70000, 65
        # Rows with a word whose m = u * n leaves low bits below n, where
        # numpy may reject a word: resample_counts draws them again.
        redrawn = 0
        for b in range(resamples):
            bits = np.random.PCG64(np.random.SeedSequence([0, b]))
            words = bits.random_raw(n // 2).astype("<u8").view("<u4")
            redrawn += bool((words * np.uint32(n) < n).any())
        assert redrawn == 43
        expected = oracle_resample_counts(0, n, resamples)
        assert np.array_equal(resample_counts(0, n, resamples), expected)

    def test_counts_widen_when_one_exceeds_a_byte(self, monkeypatch):
        class PCG64(np.random.PCG64):  # the state setter checks the class name
            def random_raw(self, size=None, output=True):
                return np.full(size, np.iinfo(np.uint64).max, dtype=np.uint64)

        # Every word is 2**32 - 1, so every draw is n - 1, and no word is rejected.
        n, resamples = 300, 70
        monkeypatch.setattr(np.random, "PCG64", PCG64)
        resample_counts.cache_clear()
        try:
            counts = resample_counts(0, n, resamples)
        finally:
            resample_counts.cache_clear()
        expected = np.zeros((resamples, n), dtype=np.uint16)
        expected[:, -1] = n
        assert counts.dtype == np.uint16
        assert np.array_equal(counts, expected)

    def test_a_series_bootstrap_holds_one_byte_per_count(self):
        ds, traces, a = _random_cohort(500, seed=1)
        _, _, b = _random_cohort(500, seed=2)
        bootstrap_ci(ds, traces, a, resamples=10)  # numpy's first-use allocations
        resample_counts.cache_clear()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for table in (a, b):
                bootstrap_ci(ds, traces, table, resamples=5000)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # Counts of two bytes would be 5 MB alone; of one, 2.5 MB, next to a
        # float block of at most 1 MB and a chunk's buffers.
        assert peak < 4_500_000

    def test_counts_hold_no_whole_matrix_of_words(self):
        resample_counts(0, 2, 1)  # numpy's first-use allocations, outside the trace
        resample_counts.cache_clear()
        tracemalloc.start()
        try:
            counts = resample_counts(0, 500, 5000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Every word at once would be 10 MB; a chunk's buffers are well under 1 MB.
        assert peak - counts.nbytes < 1_000_000

    def test_counts_pinned_by_golden_hash(self):
        # Recorded with one SeedSequence and generator per resample.
        counts = resample_counts(0, 50, 100)
        assert hashlib.sha256(counts.tobytes()).hexdigest() == _GOLDEN_COUNTS_0_50_100

    def test_memoized_counts_are_read_only(self):
        counts = resample_counts(0, 10, 5)
        assert resample_counts(0, 10, 5) is counts
        with pytest.raises(ValueError):
            counts[0, 0] = 1

    def test_interleaved_calls_equal_cold_calls(self):
        small = _random_cohort(30, seed=1, zeros=2)
        large = _random_cohort(45, seed=2, zeros=2)
        calls = [(small, 1), (small, 2), (small, 1), (large, 1), (small, 1), (large, 2)]

        def estimate(cohort, seed):
            return bootstrap_ci(*cohort, resamples=300, seed=seed)

        cold = {}
        for cohort, seed in calls:
            resample_counts.cache_clear()
            cold[id(cohort), seed] = estimate(cohort, seed)
        resample_counts.cache_clear()
        for cohort, seed in calls:
            est = estimate(cohort, seed)
            assert est == cold[id(cohort), seed]
            value, ci_low, ci_high, _, skipped = oracle_bootstrap_ci(
                *cohort, resamples=300, seed=seed
            )
            assert est.skipped_resamples == skipped
            assert abs(est.ci_low - ci_low) <= 1e-12 and abs(est.ci_high - ci_high) <= 1e-12

    def test_table_order_does_not_matter(self):
        ds, traces, a = _random_cohort(20, seed=3)
        _, _, b = _random_cohort(20, seed=4)
        resample_counts.cache_clear()
        forward = [bootstrap_ci(ds, traces, t, resamples=200, seed=9) for t in (a, b)]
        resample_counts.cache_clear()
        backward = [bootstrap_ci(ds, traces, t, resamples=200, seed=9) for t in (b, a)]
        assert forward == backward[::-1]


class TestMortalityCurve:
    def test_all_survivors(self):
        ds, traces = _cohort(list(range(10)))
        rows = mortality_curve(ds, traces, n_bins=5)
        assert all(r.mortality == 0.0 for r in rows)
        assert sum(r.count for r in rows) == 10

    def test_perfect_separation(self):
        returns = [float(i) for i in range(10)]
        survived = [i >= 5 for i in range(10)]
        ds, traces = _cohort(returns, survived)
        rows = mortality_curve(ds, traces, n_bins=2)
        assert rows[0].mortality == 1.0 and rows[1].mortality == 0.0
        assert rows[0].reward_high < rows[1].reward_low

    def test_rows_ordered_by_reward(self):
        rng = np.random.default_rng(5)
        ds, traces = _cohort(rng.normal(size=30).tolist())
        rows = mortality_curve(ds, traces, n_bins=6)
        highs = [r.reward_high for r in rows]
        assert highs == sorted(highs)

    def test_too_few_trajectories_rejected(self):
        ds, traces = _cohort([1.0, 2.0])
        with pytest.raises(ValidationError):
            mortality_curve(ds, traces, n_bins=3)


def _table_doc(rows_by_patient):
    """(header, buffer section) of the column file of a table given as
    {patient: [{t, p_eval, p_behavior}, ...]}, in the given order."""
    doc = {"patient_id": [], "offsets": [0], "t": [], "p_eval": [], "p_behavior": []}
    for pid, rows in rows_by_patient.items():
        doc["patient_id"].append(pid)
        doc["offsets"].append(doc["offsets"][-1] + len(rows))
        for row in rows:
            for key in ("t", "p_eval", "p_behavior"):
                doc[key].append(row[key])
    return binary_document(doc)


_TABLE = PolicyProbTable({("p1", 0): (0.5, 0.5), ("p1", 3): (0.2, 0.4), ("p2", 0): (1.0, 1.0)})


class TestProbTableIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "probs.json"
        save_prob_table(_TABLE, path)
        assert load_prob_table(path) == _TABLE

    def test_round_trip_is_byte_stable_and_compact(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_prob_table(_TABLE, p1)
        save_prob_table(load_prob_table(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = (
            b'{"patient_id":["p1","p2"],"columns":['
            b'{"name":"offsets","dtype":"<i4","offset":0,"length":12},'
            b'{"name":"t","dtype":"<i4","offset":16,"length":12},'
            b'{"name":"p_eval","dtype":"<f8","offset":32,"length":24},'
            b'{"name":"p_behavior","dtype":"<f8","offset":56,"length":24}]}'
        )
        buffers = (
            np.array([0, 2, 3], "<i4").tobytes() + bytes(4)
            + np.array([0, 3, 0], "<i4").tobytes() + bytes(4)
            + np.array([0.5, 0.2, 1.0], "<f8").tobytes()
            + np.array([0.5, 0.4, 1.0], "<f8").tobytes()
        )
        assert p1.read_bytes() == b"TRIDRIVE COLUMNS 4\n" + header + b" " * 7 + b"\n" + buffers

    def test_zero_behavior_probability_rejected(self):
        with pytest.raises(ValidationError, match="support"):
            prob_table_from_json(*_table_doc({"p1": [{"t": 0, "p_eval": 0.5, "p_behavior": 0.0}]}))

    def test_eval_probability_range_checked(self):
        with pytest.raises(ValidationError, match="p_eval"):
            prob_table_from_json(*_table_doc({"p1": [{"t": 0, "p_eval": 1.2, "p_behavior": 0.5}]}))

    def test_missing_field_rejected(self):
        header, data = _table_doc({"p1": [{"t": 0, "p_eval": 0.5, "p_behavior": 0.5}]})
        header["columns"].pop()
        with pytest.raises(FormatError, match="missing column p_behavior"):
            prob_table_from_json(header, data[:-8])

    @pytest.mark.parametrize(
        "entries, message",
        [
            pytest.param([{"t": 2}, {"t": 2.0}], "repeated entry for t=2", id="t-repeated"),
            pytest.param([{"t": 2}, {"t": 1}], "t=1: after t=2, decreasing", id="t-decreasing"),
        ],
    )
    def test_malformed_entries_name_the_patient(self, entries, message):
        rows = [{"t": 0, "p_eval": 0.5, "p_behavior": 0.5, **e} for e in entries]
        with pytest.raises(FormatError, match=rf"patient 'p7'.*{message}"):
            prob_table_from_json(*_table_doc({"p1": [{"t": 0, "p_eval": 0.5, "p_behavior": 0.5}],
                                              "p7": rows}))

    def test_repeated_patient_rejected(self):
        doc = plain_document(*_table_doc({"p1": [{"t": 0, "p_eval": 0.5, "p_behavior": 0.5}]}))
        doc["patient_id"].append("p1")
        doc["offsets"].append(1)
        with pytest.raises(FormatError, match="patient 'p1' appears more than once"):
            prob_table_from_json(*binary_document(doc))

    def test_decreasing_offsets_rejected(self):
        doc = plain_document(*_table_doc({"p1": [{"t": 0, "p_eval": 0.5, "p_behavior": 0.5}],
                                          "p2": [{"t": 0, "p_eval": 0.5, "p_behavior": 0.5}]}))
        doc["offsets"] = [0, 2, 1]
        with pytest.raises(FormatError, match=r"patient 'p2': offsets decrease \(2 then 1\)"):
            prob_table_from_json(*binary_document(doc))

    @pytest.mark.parametrize(
        "key, value, message",
        [
            pytest.param("t", bytes(5), "t has 5 bytes, expected 2", id="partial-entry"),
            pytest.param("p_eval", b"", "p_eval has 0 entries, expected 2", id="empty-buffer"),
            pytest.param("t", bytes(4), "t has 1 entries, expected 2", id="short-buffer"),
            pytest.param("offsets", np.array([0, 2, 3], "<i4").tobytes(),
                         "offsets has 3 entries, expected 2", id="long-offsets"),
            pytest.param("p_eval", np.array([0.5], "<f8").tobytes(),
                         r"p_eval has 1 entries, expected 2", id="one-float-short"),
        ],
    )
    def test_malformed_buffer_is_format_error(self, key, value, message):
        doc = plain_document(*_table_doc({"p1": [{"t": 0, "p_eval": 0.5, "p_behavior": 0.5},
                                                 {"t": 1, "p_eval": 0.5, "p_behavior": 0.5}]}))
        doc[key] = value
        with pytest.raises(FormatError, match=f"probability table: {message}"):
            prob_table_from_json(*binary_document(doc))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            pytest.param("dtype", "<f8", "t has dtype <f8, expected <i4", id="wrong-dtype"),
            pytest.param("dtype", "<f4", "t has dtype '<f4', not <i4, <f8 or bitmap",
                         id="unknown-dtype"),
            pytest.param("offset", 0, "t starts at byte 0 of the buffers, expected 8",
                         id="overlapping"),
            pytest.param("offset", 12, "t starts at byte 12 of the buffers, expected 8",
                         id="misaligned"),
            pytest.param("length", 2**42,
                         rf"t ends at byte {8 + 2**42} of the buffers, past their end at byte 32",
                         id="past-the-end"),
            pytest.param("length", 1.5, "t offset and length must be whole numbers",
                         id="length-not-whole"),
        ],
    )
    def test_malformed_column_entry_is_format_error(self, field, value, message):
        header, data = _table_doc({"p1": [{"t": 0, "p_eval": 0.5, "p_behavior": 0.5}]})
        header["columns"][1][field] = value
        with pytest.raises(FormatError, match=f"probability table: {message}"):
            prob_table_from_json(header, data)

    @pytest.mark.parametrize("t", [2**31, -(2**31), 2**40])
    def test_time_beyond_the_file_is_refused_before_writing(self, tmp_path, t):
        with pytest.raises(ValidationError, match=rf"\('p1', t={t}\): t not of magnitude"):
            table = PolicyProbTable({("p1", 0): (0.5, 0.5), ("p1", t): (0.5, 0.5)})
            save_prob_table(table, tmp_path / "probs.json")
        assert not (tmp_path / "probs.json").exists()

    @pytest.mark.parametrize("t", [1.5, math.nan, math.inf], ids=["fraction", "nan", "inf"])
    def test_time_not_whole_is_refused_before_writing(self, tmp_path, t):
        with pytest.raises(ValidationError, match=rf"\('p1', t={t}\): t not a whole number"):
            table = PolicyProbTable({("p1", 0): (0.5, 0.5), ("p1", t): (0.5, 0.5)})
            save_prob_table(table, tmp_path / "probs.json")
        assert not (tmp_path / "probs.json").exists()

    def test_time_past_float_precision_is_refused_before_writing(self, tmp_path):
        # 2**60 is whole, but a float cannot hold every whole number that large.
        message = rf"^\('p1', t={2**60}\): t not a whole number of magnitude below 2\*\*53$"
        with pytest.raises(ValidationError, match=message):
            table = PolicyProbTable({("p1", 0): (0.5, 0.5), ("p1", 2**60): (0.5, 0.5)})
            save_prob_table(table, tmp_path / "probs.json")
        assert not (tmp_path / "probs.json").exists()

    def test_integer_past_digit_limit_in_header_is_format_error(self, tmp_path):
        path = tmp_path / "probs.json"
        line = b'{"patient_id":["p1"],"columns":[' + b"1" + b"0" * 5000 + b"]}"
        path.write_bytes(b"TRIDRIVE COLUMNS 4\n" + line + b" " * (-(len(line) + 20) % 8) + b"\n")
        with pytest.raises(FormatError, match="probs.json: invalid header"):
            load_prob_table(path)

    def test_earlier_format_rejected(self, tmp_path):
        path = tmp_path / "probs.json"
        path.write_text('{"p1": [{"t": 0, "p_eval": 0.5, "p_behavior": 0.5}]}')
        with pytest.raises(FormatError, match="one-object-per-row format.*regenerate"):
            load_prob_table(path)

    def test_format_3_file_rejected(self, tmp_path):
        path = tmp_path / "probs.json"
        path.write_text('{"format":3,"patient_id":["p1","p2"],"offsets":"AAAAAAIAAAADAAAA",'
                        '"t":"AAAAAAMAAAAAAAAA","p_eval":"AAAAAAAA4D+amZmZmZnJPwAAAAAAAPA/",'
                        '"p_behavior":"AAAAAAAA4D+amZmZmZnZPwAAAAAAAPA/"}\n')
        with pytest.raises(FormatError, match="probs.json: a format-3 file .*regenerate"):
            load_prob_table(path)

    def test_dataset_is_not_a_table(self, tmp_path, two_patient_dataset):
        path = tmp_path / "cohort.json"
        save_dataset(two_patient_dataset, path)
        with pytest.raises(FormatError, match="probability table: missing column p_eval"):
            load_prob_table(path)

    @settings(max_examples=300, deadline=None)
    @given(mutated_column_files(*prob_table_to_json(_TABLE)))
    def test_fuzzed_document_parses_or_raises_toolkit_error(self, file):
        try:
            prob_table_from_json(*file)
        except TridriveError:
            pass

    def test_identity_table_covers_all_transitions(self, two_patient_dataset):
        table = identity_prob_table(two_patient_dataset)
        for traj in two_patient_dataset.trajectories:
            assert trajectory_weight(traj, table) == 1.0


class TestProbTableColumns:
    @pytest.mark.parametrize(
        "row, message",
        [
            ((0.5, 0.0), "p_behavior 0.0 must lie in (0,1] (logged actions need "
                         "behavior-policy support)"),
            ((1.5, 0.5), "p_eval 1.5 out of [0,1]"),
        ],
        ids=["zero-behavior", "eval-above-one"],
    )
    def test_a_dict_table_is_refused_at_first_use_as_its_file_is(self, tmp_path, row, message):
        # The bad row is patient q's, and q is not in the dataset.
        dataset = _view_dataset([[0, 1], [0, 1, 2]])
        probs = {("p0", 0): (0.5, 0.5), ("p1", 0): (0.5, 0.5), ("p1", 1): (0.4, 0.8), ("q", 3): row}
        rows = {}
        for (pid, t), (p_eval, p_behavior) in sorted(probs.items()):
            rows.setdefault(pid, []).append({"t": t, "p_eval": p_eval, "p_behavior": p_behavior})
        path = tmp_path / "probs.json"
        write_columns(path, *_table_doc(rows))
        with pytest.raises(ValidationError) as loaded:
            load_prob_table(path)
        assert str(loaded.value) == f"('q', t=3): {message}"
        traces = [RewardTrace([], [0.0], 0.0)] * 2
        uses = [
            lambda table: trajectory_weight(dataset.trajectories[0], table),
            lambda table: wis(dataset, traces, table),
            lambda table: bootstrap_ci(dataset, traces, table, resamples=10),
            lambda table: save_prob_table(table, tmp_path / "saved.json"),
        ]
        for use in uses:
            with pytest.raises(ValidationError) as raised:
                use(PolicyProbTable(probs))
            assert str(raised.value) == str(loaded.value)
        assert not (tmp_path / "saved.json").exists()

    def test_a_table_holds_a_read_only_copy_of_its_dict(self):
        dataset = _view_dataset([[0, 1]])
        traces = [RewardTrace([], [0.0], 1.0)]
        probs = {("p0", 0): (0.5, 0.5)}
        table = PolicyProbTable(probs)
        assert wis(dataset, traces, table) == 1.0
        probs[("p0", 0)] = (0.5, 0.0)
        assert table.probs == {("p0", 0): (0.5, 0.5)}
        assert table == PolicyProbTable({("p0", 0): (0.5, 0.5)})
        for read_only in (table, identity_prob_table(dataset)):
            with pytest.raises(TypeError):
                read_only.probs[("p0", 0)] = (0.5, 0.0)
        assert table.columns.p_behavior.tolist() == [0.5]

    def test_dict_table_columns_sorted_by_patient_and_t(self):
        table = PolicyProbTable({("p2", 4): (0.1, 0.2), ("p1", 7): (0.3, 0.4), ("p1", 2): (0.5, 0.6)})
        spans, t, p_eval, p_behavior = table.columns
        assert spans == {"p1": (0, 2), "p2": (2, 3)}
        assert t.dtype == np.int64 and t.tolist() == [2, 7, 4]
        assert p_eval.tolist() == [0.5, 0.3, 0.1] and p_behavior.tolist() == [0.6, 0.4, 0.2]

    def test_identity_table_rows_are_all_steps_but_the_last(self, two_patient_dataset):
        table = identity_prob_table(two_patient_dataset)
        assert table.probs == {("p1", 0): (1.0, 1.0), ("p1", 1): (1.0, 1.0), ("p2", 0): (1.0, 1.0)}

    def test_loaded_table_keeps_patient_order_and_writes_sorted(self):
        doc = _table_doc({
            "p2": [{"t": 1, "p_eval": 0.5, "p_behavior": 0.5}],
            "p0": [],
            "p1": [{"t": 0, "p_eval": 0.2, "p_behavior": 0.4}, {"t": 3, "p_eval": 1, "p_behavior": 1}],
        })
        table = prob_table_from_json(*doc)
        assert table.columns.spans == {"p2": (0, 1), "p0": (1, 1), "p1": (1, 3)}
        assert table.probs == {("p2", 1): (0.5, 0.5), ("p1", 0): (0.2, 0.4), ("p1", 3): (1.0, 1.0)}
        assert prob_table_to_json(table) == prob_table_to_json(PolicyProbTable(table.probs))

    def test_ope_stage_builds_no_dict_for_loaded_tables(self, tmp_path, monkeypatch):
        config = CohortConfig(n_patients=12, horizon_min=4, horizon_max=8, seed=3)
        dataset, spec = generate(config), reference_spec(config)
        save_dataset(dataset, tmp_path / "cohort.json")
        paths = []
        for i, scale in enumerate((0.5, 0.9)):
            probs = {key: (scale * 0.5, 0.5) for key in identity_prob_table(dataset).probs}
            paths.append(tmp_path / f"policy_{i}.json")
            save_prob_table(PolicyProbTable(probs), paths[-1])
        traces = [trace(traj, spec) for traj in dataset.trajectories]
        expected = bootstrap_ci(dataset, traces, PolicyProbTable(probs), level=0.9, resamples=50)

        def no_dict(table):
            raise AssertionError("a loaded table built its probs dict")

        monkeypatch.setattr(PolicyProbTable, "probs", property(no_dict))
        est = ope_stage(
            dataset, spec, [str(p) for p in paths], tmp_path / "ope",
            level=0.9, resamples=50, seed=0, bins=2,
        )
        assert est == expected
