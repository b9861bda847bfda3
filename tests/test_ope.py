import numpy as np
import pytest
from hypothesis import given, settings

from conftest import make_dataset, make_step, mutated_documents, oracle_bootstrap_ci
from tridrive.errors import (
    DegenerateStatisticError,
    FormatError,
    SchemaError,
    TridriveError,
    ValidationError,
)
from tridrive.model import Trajectory
from tridrive.ope import (
    _BLOCK,
    PolicyProbTable,
    bootstrap_ci,
    identity_prob_table,
    load_prob_table,
    mortality_curve,
    prob_table_from_json,
    prob_table_to_json,
    resample_indices,
    save_prob_table,
    trajectory_weight,
    wis,
)
from tridrive.rewards import RewardTrace


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
        scaled = wis(ds, traces, _table(ds, [1.5, 6.0, 3.0]))
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

    def test_level_validated(self):
        ds, traces = _cohort([1.0, 2.0])
        with pytest.raises(ValidationError):
            bootstrap_ci(ds, traces, identity_prob_table(ds), level=1.0)


def _random_cohort(n, seed, zeros=0):
    """n trajectories with normal returns and random ratios, the first
    `zeros` of which have a zero-probability evaluation action."""
    rng = np.random.default_rng(seed)
    ds, traces = _cohort(rng.normal(size=n).tolist())
    ratios = rng.uniform(0.1, 4.0, size=n)
    ratios[:zeros] = 0.0
    return ds, traces, _table(ds, ratios.tolist())


class TestBootstrapOracle:
    """The memoized, block-vectorized bootstrap against the per-resample loop."""

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
    def test_matches_oracle(self, n, zeros, resamples, max_ratio):
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


class TestResampleMemo:
    def test_indices_are_the_per_resample_draws(self):
        idx = resample_indices(5, 300, 40)
        assert idx.shape == (40, 300) and idx.dtype == np.uint16
        for b in (0, 17, 39):
            rng = np.random.default_rng(np.random.SeedSequence([5, b]))
            assert np.array_equal(idx[b], rng.integers(0, 300, size=300))
        assert resample_indices(0, 256, 3).dtype == np.uint8
        assert resample_indices(0, 257, 3).dtype == np.uint16

    def test_memoized_indices_are_read_only(self):
        idx = resample_indices(0, 10, 5)
        assert resample_indices(0, 10, 5) is idx
        with pytest.raises(ValueError):
            idx[0, 0] = 1

    def test_interleaved_calls_equal_cold_calls(self):
        small = _random_cohort(30, seed=1, zeros=2)
        large = _random_cohort(45, seed=2, zeros=2)
        calls = [(small, 1), (small, 2), (small, 1), (large, 1), (small, 1), (large, 2)]

        def estimate(cohort, seed):
            return bootstrap_ci(*cohort, resamples=300, seed=seed)

        cold = {}
        for cohort, seed in calls:
            resample_indices.cache_clear()
            cold[id(cohort), seed] = estimate(cohort, seed)
        resample_indices.cache_clear()
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
        resample_indices.cache_clear()
        forward = [bootstrap_ci(ds, traces, t, resamples=200, seed=9) for t in (a, b)]
        resample_indices.cache_clear()
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
    """The format-2 document of a table given as {patient: [{t, p_eval,
    p_behavior}, ...]}, in the given order."""
    doc = {"format": 2, "patient_id": [], "offsets": [0], "t": [], "p_eval": [], "p_behavior": []}
    for pid, rows in rows_by_patient.items():
        doc["patient_id"].append(pid)
        doc["offsets"].append(doc["offsets"][-1] + len(rows))
        for row in rows:
            for key in ("t", "p_eval", "p_behavior"):
                doc[key].append(row[key])
    return doc


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
        assert p1.read_text() == (
            '{"format":2,"patient_id":["p1","p2"],"offsets":[0,2,3],"t":[0,3,0],'
            '"p_eval":[0.5,0.2,1.0],"p_behavior":[0.5,0.4,1.0]}\n'
        )

    def test_zero_behavior_probability_rejected(self):
        with pytest.raises(ValidationError, match="support"):
            prob_table_from_json(_table_doc({"p1": [{"t": 0, "p_eval": 0.5, "p_behavior": 0.0}]}))

    def test_eval_probability_range_checked(self):
        with pytest.raises(ValidationError, match="p_eval"):
            prob_table_from_json(_table_doc({"p1": [{"t": 0, "p_eval": 1.2, "p_behavior": 0.5}]}))

    def test_missing_field_rejected(self):
        doc = _table_doc({"p1": [{"t": 0, "p_eval": 0.5, "p_behavior": 0.5}]})
        del doc["p_behavior"]
        with pytest.raises(FormatError):
            prob_table_from_json(doc)

    @pytest.mark.parametrize(
        "entries, message",
        [
            pytest.param([{"t": float("inf")}], "t must be an integer", id="t-infinite"),
            pytest.param([{"t": float("nan")}], "t must be an integer", id="t-nan"),
            pytest.param([{"t": 1.5}], "t must be an integer", id="t-fractional"),
            pytest.param([{"t": True}], "t must be an integer", id="t-bool"),
            pytest.param([{"t": "1"}], "t must be an integer", id="t-string"),
            pytest.param([{"t": 2}, {"t": 2.0}], "repeated entry for t=2", id="t-repeated"),
            pytest.param([{"t": 2}, {"t": 1}], "t=1: after t=2, decreasing", id="t-decreasing"),
            pytest.param([{"p_eval": True}], "must be numbers", id="p-bool"),
            pytest.param([{"p_behavior": "0.5"}], "must be numbers", id="p-string"),
            pytest.param([{"p_eval": 10**400}], "out of range", id="p-overflow"),
        ],
    )
    def test_malformed_entries_name_the_patient(self, entries, message):
        rows = [{"t": 0, "p_eval": 0.5, "p_behavior": 0.5, **e} for e in entries]
        with pytest.raises(FormatError, match=rf"patient 'p7'.*{message}"):
            prob_table_from_json(_table_doc({"p1": [{"t": 0, "p_eval": 0.5, "p_behavior": 0.5}],
                                             "p7": rows}))

    def test_repeated_patient_rejected(self):
        doc = _table_doc({"p1": [{"t": 0, "p_eval": 0.5, "p_behavior": 0.5}]})
        doc["patient_id"].append("p1")
        doc["offsets"].append(1)
        with pytest.raises(FormatError, match="patient 'p1' appears more than once"):
            prob_table_from_json(doc)

    def test_integral_float_time_accepted(self):
        table = prob_table_from_json(_table_doc({"p1": [{"t": 3.0, "p_eval": 1, "p_behavior": 0.5}]}))
        assert table.probs == {("p1", 3): (1.0, 0.5)}

    def test_non_finite_time_in_file_is_format_error(self, tmp_path):
        path = tmp_path / "probs.json"
        path.write_text('{"format": 2, "patient_id": ["p1"], "offsets": [0, 1], '
                        '"t": [Infinity], "p_eval": [0.5], "p_behavior": [0.5]}')
        with pytest.raises(FormatError, match="patient 'p1'"):
            load_prob_table(path)

    def test_integer_past_digit_limit_in_file_is_format_error(self, tmp_path):
        path = tmp_path / "probs.json"
        path.write_text('{"format": 2, "patient_id": ["p1"], "offsets": [0, 1], '
                        '"t": [1' + "0" * 5000 + '], "p_eval": [1], "p_behavior": [1]}')
        with pytest.raises(FormatError, match="probs.json"):
            load_prob_table(path)

    def test_earlier_format_rejected(self, tmp_path):
        path = tmp_path / "probs.json"
        path.write_text('{"p1": [{"t": 0, "p_eval": 0.5, "p_behavior": 0.5}]}')
        with pytest.raises(FormatError, match='"format": 2'):
            load_prob_table(path)

    @settings(max_examples=300, deadline=None)
    @given(mutated_documents(prob_table_to_json(_TABLE)))
    def test_fuzzed_document_parses_or_raises_toolkit_error(self, doc):
        try:
            prob_table_from_json(doc)
        except TridriveError:
            pass

    def test_identity_table_covers_all_transitions(self, two_patient_dataset):
        table = identity_prob_table(two_patient_dataset)
        for traj in two_patient_dataset.trajectories:
            assert trajectory_weight(traj, table) == 1.0
