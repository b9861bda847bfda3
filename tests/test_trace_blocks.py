"""trace over column blocks: one plan per block, one returns pass per spec
on it, which computes potentials at two rows per trajectory, and per-step
lists computed on read.

Every trace is checked against the scalar oracle, on blocks whose
trajectories sit at the edges of the block's arrays, with replaced specs
and trajectories between calls, and next to trajectories that raise or hold
values no kernel should read.
"""

import dataclasses
import gc
import math
import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from conftest import make_dataset, make_step, oracle_trace, simple_spec
from tridrive import rewards
from tridrive.errors import SchemaError, ValidationError
from tridrive.fitness import CompMetricConfig
from tridrive.llm import LlmClientConfig
from tridrive.model import _ROW_COLUMNS, CohortColumns, Trajectory
from tridrive.ope import bootstrap_ci, identity_prob_table
from tridrive.pipeline import PipelineConfig, filter_split, ope_stage, score_specs
from tridrive.rewards import (
    RewardSpec,
    RewardTrace,
    SurvivalConfig,
    SurvivalForm,
    baseline_orm,
    trace,
)
from tridrive.synth import CohortConfig, generate, reference_spec

FIDS = ("f1", "f2", "f3")


def _steps(rng, n, actions=("drug_a", "drug_b")):
    steps, t = [], int(rng.integers(0, 3))
    for _ in range(n):
        steps.append(
            make_step(
                t,
                {fid: float(rng.random()) for fid in FIDS},
                {fid: int(rng.integers(0, 12)) for fid in FIDS},
                action={aid: int(rng.integers(0, 5)) for aid in actions if rng.random() < 0.7},
                sofa=float(rng.random() * 20),
            )
        )
        t += int(rng.integers(1, 4))
    return steps


def _act(steps, i, **levels):
    """Replaces steps[i] with a copy that also sets the given action levels."""
    steps[i] = dataclasses.replace(steps[i], action={**steps[i].action, **levels})


def _observe(steps, i, fid, **changes):
    """Replaces steps[i] with a copy whose observation of fid has changes."""
    observations = steps[i].observations
    changed = dataclasses.replace(observations[fid], **changes)
    steps[i] = dataclasses.replace(steps[i], observations={**observations, fid: changed})


def _views(step_lists):
    """The trajectories of one block built from the step lists, as views."""
    block = CohortColumns.of(step_lists, {})
    n = len(step_lists)
    return block.views([f"p{k}" for k in range(n)], [k % 2 == 0 for k in range(n)], [5.0] * n)


def _spec(lam=0.3):
    spec = simple_spec(fids=FIDS, gamma=0.95, lam=lam, half_life=30.0, tau_conf=8.0)
    survival = {
        **spec.survival,
        "f2": SurvivalConfig(form=SurvivalForm.DECAY_LOW, tau=0.4, weight=2.0),
        "f3": SurvivalConfig(form=SurvivalForm.ASYMMETRIC_ABOVE, mu=0.3, sigma=0.2),
    }
    return dataclasses.replace(spec, survival=survival, action_cost_scale=0.7)


def _assert_matches_oracle(traj, spec):
    rewards_, potentials, cumulative = oracle_trace(traj, spec)
    got = trace(traj, spec)
    assert len(got.rewards) == len(rewards_) and len(got.potentials) == len(potentials)
    assert got.rewards == pytest.approx(rewards_, rel=0, abs=1e-12)
    assert got.potentials == pytest.approx(potentials, rel=0, abs=1e-12)
    assert got.cumulative == pytest.approx(cumulative, rel=0, abs=1e-12)
    return got


# Short trajectories at the first, a middle and the last position of a block.
LENGTHS = [
    [1, 4, 3],
    [4, 1, 3],
    [4, 3, 1],
    [1, 1, 1],
    [1],
    [0, 4, 3],
    [4, 0, 3],
    [4, 3, 0],
    [0, 1, 0],
    [0],
    [2, 0, 0, 2],
]


# Spec settings besides _spec's own (gamma 0.95, normalized potentials).
VARIANTS = {"gamma=1": {"gamma": 1.0}, "unnormalized": {"normalize_potential": False}}


def _every_view_matches_the_oracle(lengths, spec):
    rng = np.random.default_rng(sum(lengths) * 10 + len(lengths))
    views = _views([_steps(rng, n) for n in lengths])
    for traj, n in zip(views, lengths):
        got = _assert_matches_oracle(traj, spec)
        if n <= 1:
            assert got.rewards == [] and got.cumulative == 0.0
        assert len(got.potentials) == n


class TestBlockBoundaries:
    @pytest.mark.parametrize("lengths", LENGTHS, ids=str)
    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_every_view_matches_the_oracle(self, lengths, lam):
        _every_view_matches_the_oracle(lengths, _spec(lam))

    @pytest.mark.parametrize("lengths", LENGTHS, ids=str)
    @pytest.mark.parametrize("lam", [0.0, 0.3])
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_every_view_matches_the_oracle_under(self, variant, lam, lengths):
        spec = dataclasses.replace(_spec(lam), **VARIANTS[variant])
        _every_view_matches_the_oracle(lengths, spec)

    @pytest.mark.parametrize("lengths", LENGTHS, ids=str)
    def test_views_traced_in_reverse_order(self, lengths):
        rng = np.random.default_rng(7)
        views = _views([_steps(rng, n) for n in lengths])
        spec = _spec()
        for traj in reversed(views):
            _assert_matches_oracle(traj, spec)

    def test_an_empty_trajectory_first_does_not_wrap_to_the_block_end(self):
        rng = np.random.default_rng(3)
        views = _views([[], _steps(rng, 5)])
        got = trace(views[0], _spec())
        assert (got.rewards, got.potentials, got.cumulative) == ([], [], 0.0)

    def test_a_trajectory_built_from_steps_is_a_block_of_one(self):
        rng = np.random.default_rng(4)
        for n in (0, 1, 2, 6):
            traj = Trajectory("s", _steps(rng, n), True, 5.0)
            assert traj.block == (traj.columns, 0)
            _assert_matches_oracle(traj, _spec())


    def test_a_return_does_not_depend_on_the_block_that_holds_it(self):
        """Bit for bit the same cumulative in the whole cohort's block, in a
        split's block and in a trajectory's own block; a matrix-vector
        product rounded 14 of these 35 returns differently by position."""
        cfg = CohortConfig(n_patients=300, seed=7)
        cohort = generate(cfg)
        spec = reference_spec(cfg)
        whole = {t.patient_id: trace(t, spec).cumulative for t in cohort.trajectories}
        split = filter_split(cohort, "reward_train").trajectories
        assert len(split) == 35
        for traj in split:
            alone = Trajectory(traj.patient_id, traj.steps, traj.survived, traj.sofa_baseline)
            assert trace(traj, spec).cumulative == whole[traj.patient_id], traj.patient_id
            assert trace(alone, spec).cumulative == whole[traj.patient_id], traj.patient_id

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_step_lists_are_the_whole_block_slices_bit_for_bit(self, lam):
        """Each trace's lists, computed from its own rows, equal the slices of
        the kernels run over the whole block, in the cohort and in a split."""
        cfg = CohortConfig(n_patients=300, seed=7)
        cohort = generate(cfg)
        spec = dataclasses.replace(reference_spec(cfg), lam=lam)
        for dataset in (cohort, filter_split(cohort, "reward_train")):
            cols = dataset.columns
            potentials = rewards._potentials(cols, spec)
            maxima = np.array([spec.action_max[aid] for aid in cols.action_ids])
            costs = rewards._competence_costs(cols.actions, maxima, spec.action_cost_scale)
            for k, traj in enumerate(dataset.trajectories):
                lo, hi = cols.offsets[k : k + 2].tolist()
                step_rewards = spec.gamma * potentials[lo + 1 : hi] - potentials[lo : hi - 1]
                if lam:
                    step_rewards -= lam * costs[lo : hi - 1]
                got = trace(traj, spec)
                assert got.potentials == potentials[lo:hi].tolist(), traj.patient_id
                assert got.rewards == step_rewards.tolist(), traj.patient_id


# One field of the spec changed each: a value the memo must not serve the
# arrays of the spec it was replaced from.
EDITS = {
    "gamma": {"gamma": 0.8},
    "lam_to_zero": {"lam": 0.0},
    "lam": {"lam": 1.7},
    "decay_half_life": {"decay_half_life": 5.0},
    "normalize_potential": {"normalize_potential": False},
    "action_cost_scale": {"action_cost_scale": 0.05},
    "survival": {"survival": {
        **_spec().survival,
        "f1": SurvivalConfig(form=SurvivalForm.DECAY_HIGH, tau=0.25, weight=3.0),
    }},
    "confidence_tau": {"confidence_tau": {**_spec().confidence_tau, "f2": 0.75}},
    "action_max": {"action_max": {**_spec().action_max, "drug_b": 1.5}},
}


class TestStaleMemo:
    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_an_in_place_edit_takes_effect_at_the_next_call(self, edit):
        """A spec is frozen (test_specs_trajectories_and_configs_are_frozen),
        so an edit is a replaced spec, which is traced afresh at the next call."""
        rng = np.random.default_rng(11)
        views = _views([_steps(rng, n) for n in (5, 3, 6)])
        spec = _spec(lam=0.3)
        before = _assert_matches_oracle(views[1], spec)
        edited = dataclasses.replace(spec, **EDITS[edit])
        after = _assert_matches_oracle(views[1], edited)
        assert after != before
        for traj in views:
            _assert_matches_oracle(traj, edited)

    def test_lam_from_zero(self):
        rng = np.random.default_rng(12)
        views = _views([_steps(rng, n) for n in (5, 3, 6)])
        spec = _spec(lam=0.0)
        _assert_matches_oracle(views[0], spec)
        spec = dataclasses.replace(spec, lam=0.9)
        for traj in views:
            _assert_matches_oracle(traj, spec)

    def test_an_equal_copy_of_the_spec_reads_the_same_arrays(self):
        rng = np.random.default_rng(13)
        views = _views([_steps(rng, n) for n in (5, 3, 6)])
        spec = _spec()
        first = trace(views[2], spec)
        copy = dataclasses.replace(spec, survival=dict(spec.survival))
        assert [trace(traj, copy) for traj in views][2] == first

    def test_two_datasets_traced_alternately(self):
        rng = np.random.default_rng(14)
        a = _views([_steps(rng, n) for n in (4, 2, 5)])
        b = _views([_steps(rng, n) for n in (3, 6, 2)])
        spec = _spec()
        for traj_a, traj_b in zip(a, b):
            _assert_matches_oracle(traj_a, spec)
            _assert_matches_oracle(traj_b, spec)

    def test_a_view_whose_steps_were_reassigned(self):
        """Assigning a view's steps raises; a view replaced with new steps
        is a trajectory of its own block, traced afresh."""
        rng = np.random.default_rng(15)
        views = _views([_steps(rng, n) for n in (4, 5, 3)])
        spec = _spec()
        for traj in views:
            _assert_matches_oracle(traj, spec)
        with pytest.raises(dataclasses.FrozenInstanceError):
            views[1].steps = _steps(rng, 6)
        views[1] = dataclasses.replace(views[1], steps=_steps(rng, 6))
        assert views[1].block[0] is not views[0].block[0]
        for traj in views:
            _assert_matches_oracle(traj, spec)


class TestIsolation:
    def _block_with_mystery(self):
        rng = np.random.default_rng(21)
        middle = _steps(rng, 4)
        _act(middle, 2, mystery=1)
        _act(middle, 3, mystery=2)
        return _views([_steps(rng, 5), middle, _steps(rng, 3)])

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 0, 2)])
    def test_an_undeclared_action_raises_only_from_its_own_trace(self, order):
        views = self._block_with_mystery()
        spec = _spec(lam=0.3)
        t = views[1].steps[2].t
        for k in order:
            if k == 1:
                with pytest.raises(
                    SchemaError,
                    match=rf"^patient 'p1': action 'mystery' not declared in the reward spec's "
                          rf"action_max at t={t}$",
                ):
                    trace(views[1], spec)
            else:
                _assert_matches_oracle(views[k], spec)

    def test_an_undeclared_action_is_not_read_with_lam_zero(self):
        views = self._block_with_mystery()
        spec = _spec(lam=0.0)
        for traj in views:
            _assert_matches_oracle(traj, spec)

    def test_an_undeclared_action_at_a_last_step_is_not_read(self):
        rng = np.random.default_rng(22)
        step_lists = [_steps(rng, 3), _steps(rng, 3), _steps(rng, 3)]
        _act(step_lists[0], -1, mystery=1)  # the row just before trajectory 1
        views = _views(step_lists)
        for traj in views:
            _assert_matches_oracle(traj, _spec(lam=0.3))

    def test_nan_in_a_column_the_spec_does_not_name(self):
        rng = np.random.default_rng(23)
        step_lists = [_steps(rng, n) for n in (4, 3, 5)]
        for i, step in enumerate(step_lists[1]):
            f9 = dataclasses.replace(step.observations["f1"], value=math.nan)
            step_lists[1][i] = dataclasses.replace(step, observations={**step.observations, "f9": f9})
        views = _views(step_lists)
        spec = _spec()
        for k in (1, 0, 2):
            _assert_matches_oracle(views[k], spec)

    def test_nan_in_a_named_column_stays_in_its_trajectory(self):
        rng = np.random.default_rng(24)
        step_lists = [_steps(rng, n) for n in (4, 3, 5)]
        _observe(step_lists[1], 0, "f2", value=math.nan)
        views = _views(step_lists)
        spec = _spec()
        assert math.isnan(trace(views[1], spec).cumulative)
        _assert_matches_oracle(views[0], spec)
        _assert_matches_oracle(views[2], spec)

    def test_block_arithmetic_raises_no_warning_for_a_neighbour(self):
        rng = np.random.default_rng(25)
        step_lists = [_steps(rng, n) for n in (4, 3, 5)]
        for k in (0, 2):
            for i in range(len(step_lists[k])):
                _act(step_lists[k], i, drug_a=0)
                for fid in FIDS:
                    _observe(step_lists[k], i, fid, staleness=0)
        _act(step_lists[1], 0, drug_a=3)  # 3 / 5e-324 overflows
        _observe(step_lists[1], 1, "f1", staleness=4)  # 4 / 5e-324 overflows
        views = _views(step_lists)
        spec = _spec(lam=0.3)
        spec = dataclasses.replace(
            spec,
            action_max={**spec.action_max, "drug_a": 5e-324},
            confidence_tau={**spec.confidence_tau, "f1": 5e-324},
        )
        spec.validate()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_matches_oracle(views[0], spec)
            _assert_matches_oracle(views[2], spec)
            assert trace(views[1], spec).cumulative == -math.inf


# A non-finite input in a middle row, which the returns pass does not
# compute a potential for: (what, the edit of patient p1's step 2, made by
# replacing steps[i]).
NON_FINITE = {
    "value nan": lambda steps, i: _observe(steps, i, "f2", value=math.nan),
    "value inf": lambda steps, i: _observe(steps, i, "f2", value=math.inf),
    "staleness nan": lambda steps, i: _observe(steps, i, "f3", staleness=math.nan),
    # Trust exp(-inf) is 0, so a full sum stayed finite here; the returns
    # pass treats it as any other non-finite input.
    "staleness inf": lambda steps, i: _observe(steps, i, "f3", staleness=math.inf),
    "action nan": lambda steps, i: _act(steps, i, drug_b=math.nan),
    "action inf": lambda steps, i: _act(steps, i, drug_b=math.inf),
}


class TestNonFiniteMiddleRows:
    def _dataset(self, what):
        rng = np.random.default_rng(61)
        step_lists = [_steps(rng, 5) for _ in range(4)]
        NON_FINITE[what](step_lists[1], 2)
        trajs = [
            Trajectory(f"p{k}", steps, k % 2 == 0, 5.0) for k, steps in enumerate(step_lists)
        ]
        return make_dataset(trajs)

    @pytest.mark.parametrize("what", sorted(NON_FINITE))
    def test_the_return_is_not_finite(self, what):
        dataset = self._dataset(what)
        spec = _spec(lam=0.3)
        traces = [trace(traj, spec) for traj in dataset.trajectories]
        assert [math.isfinite(t.cumulative) for t in traces] == [True, False, True, True]
        for traj in dataset.trajectories[::2]:
            _assert_matches_oracle(traj, spec)
        # The per-step rewards still sum to a non-finite return, but for an
        # infinite staleness.
        summed = sum(r * spec.gamma**i for i, r in enumerate(traces[1].rewards))
        assert math.isfinite(summed) == (what == "staleness inf")

    @pytest.mark.parametrize("what", sorted(NON_FINITE))
    def test_scoring_and_the_bootstrap_refuse_it(self, what):
        dataset = self._dataset(what)
        spec = _spec(lam=0.3)
        (row,) = score_specs(dataset, [("s", spec)])
        assert row == {
            "spec_id": "s",
            "error": "cumulative reward has a non-finite value; correlation undefined",
        }
        traces = [trace(traj, spec) for traj in dataset.trajectories]
        with pytest.raises(
            ValidationError, match=r"^patient 'p1': trajectory return (nan|-inf) is not finite$"
        ):
            bootstrap_ci(dataset, traces, identity_prob_table(dataset), resamples=10)

    @pytest.mark.parametrize("what", ["action nan", "action inf"])
    def test_an_action_level_is_not_read_with_lam_zero(self, what):
        dataset = self._dataset(what)
        spec = _spec(lam=0.0)
        for traj in dataset.trajectories:
            _assert_matches_oracle(traj, spec)

    def test_a_one_step_trajectory_returns_zero(self):
        steps = _steps(np.random.default_rng(62), 1)
        _observe(steps, 0, "f1", value=math.nan)
        views = _views([_steps(np.random.default_rng(63), 3), steps])
        assert trace(views[1], _spec()).cumulative == 0.0


class TestStepLists:
    """The per-step lists of trace, computed on first read."""

    def _traces(self, lam=0.3):
        views = _views([_steps(np.random.default_rng(51), n) for n in (4, 5, 3)])
        spec = _spec(lam)
        return views, spec, trace(views[1], spec)

    def test_a_trace_reads_as_its_lists(self):
        views, spec, got = self._traces()
        rewards_, potentials, cumulative = oracle_trace(views[1], spec)
        plain_r, plain_p = list(got.rewards), list(got.potentials)
        assert plain_r == pytest.approx(rewards_, rel=0, abs=1e-12)
        assert plain_p == pytest.approx(potentials, rel=0, abs=1e-12)
        assert got.cumulative == pytest.approx(cumulative, rel=0, abs=1e-12)
        assert got.rewards == plain_r and plain_r == got.rewards
        assert got.potentials == plain_p and not got.potentials != plain_p
        assert got.rewards != plain_r[:-1] and got.rewards != tuple(plain_r)
        assert (len(got.rewards), len(got.potentials)) == (4, 5)
        assert got.rewards[-1] == plain_r[-1] and got.potentials[-2] == plain_p[-2]
        assert got.potentials[1:3] == plain_p[1:3]
        assert np.array_equal(np.asarray(got.potentials), np.array(plain_p))
        assert repr(got.rewards) == repr(plain_r)
        plain = RewardTrace(plain_r, plain_p, got.cumulative)
        assert repr(got) == repr(plain)
        assert got == plain and plain == got
        assert got == trace(views[1], spec)
        assert got != trace(views[0], spec)

    def test_the_lists_are_read_only(self):
        _, _, got = self._traces()
        with pytest.raises(TypeError):
            got.rewards[0] = 1.0
        with pytest.raises(AttributeError):
            got.potentials.append(1.0)

    def test_replacing_the_return_keeps_the_lists(self):
        _, _, got = self._traces()
        moved = dataclasses.replace(got, cumulative=5.0)
        assert moved.cumulative == 5.0
        assert moved.rewards is got.rewards and moved.potentials is got.potentials
        assert moved.rewards == list(got.rewards)

    def test_a_trace_of_plain_lists_holds_them(self):
        rewards_, potentials = [1.0, 2.0], [0.0, 0.0, 0.0]
        plain = RewardTrace(rewards_, potentials, 3.0)
        assert plain.rewards is rewards_ and plain.potentials is potentials
        traj = Trajectory("p", _steps(np.random.default_rng(52), 3), True, 5.0)
        orm = baseline_orm(traj)
        assert type(orm.rewards) is list and type(orm.potentials) is list

    def test_two_threads_reading_one_trace_get_equal_lists(self):
        views, spec, _ = self._traces()
        traces = [trace(traj, spec) for _ in range(100) for traj in views]
        reads = [[], []]

        def read(out):
            for got in traces:
                out.append((list(got.rewards), list(got.potentials)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(out,)) for out in reads]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(reads[0]) == len(traces) and reads[0] == reads[1]

    def test_a_warm_trace_is_one_object(self):
        views, spec, _ = self._traces()
        calls = 500
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            traces = [trace(views[k % len(views)], spec) for k in range(calls)]
            made = len(gc.get_objects()) - before
        finally:
            gc.enable()
        # The trace itself; the lists are made only when read.
        assert made <= calls + 10
        assert traces[0].rewards == list(trace(views[0], spec).rewards)

    def test_an_undeclared_action_in_a_block_of_one(self):
        steps = _steps(np.random.default_rng(53), 4)
        _act(steps, 1, mystery=1)
        _act(steps, 2, mystery=2)
        _act(steps, 3, zeta=1)  # a last step's action is not read
        traj = Trajectory("solo", steps, True, 5.0)
        with pytest.raises(
            SchemaError,
            match=rf"^patient 'solo': action 'mystery' not declared in the reward spec's "
                  rf"action_max at t={steps[1].t}$",
        ):
            trace(traj, _spec(lam=0.3))
        _assert_matches_oracle(traj, _spec(lam=0.0))


class TestTwoSpecsOnOneBlock:
    """Two specs that differ in gamma, in the features they name and in the
    actions they declare, traced on one block in either interleaving: each
    call reads the one plan of the block, and each return is, bit for bit,
    the one its spec gets on a plan of its own (and the oracle's to 1e-12)."""

    def _views(self):
        rng = np.random.default_rng(71)
        step_lists = [_steps(rng, n, actions=("drug_a",)) for n in (4, 1, 5, 3, 0, 6)]
        _act(step_lists[2], 1, drug_b=2)  # on two transitions of p2; the first is named
        _act(step_lists[2], 3, drug_b=1)
        _act(step_lists[3], 2, drug_b=1)  # on p3's last step, which is not read
        return _views(step_lists)

    def _specs(self, lam):
        wide = _spec(lam)  # f1, f2 and f3; drug_a and drug_b; gamma 0.95
        narrow = dataclasses.replace(
            wide,
            gamma=0.8,
            survival={fid: wide.survival[fid] for fid in ("f1", "f3")},
            confidence_tau={"f1": 8.0, "f3": 2.0},
            action_max={"drug_a": 3.0},
        )
        return wide, narrow

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    @pytest.mark.parametrize("order", ["spec-major", "trajectory-major"])
    def test_each_return_is_its_own_specs(self, order, lam):
        views = self._views()
        specs = self._specs(lam)
        block = views[0].block[0]
        alone = [rewards._BlockReturns(block).returns(spec)[0] for spec in specs]
        ks = range(len(views))
        if order == "spec-major":
            calls = [(i, k) for i in (0, 1) for k in ks]
        else:
            calls = [(i, k) for k in ks for i in (0, 1)]
        t = views[2].steps[1].t
        plans = set()
        for i, k in calls:
            spec = specs[i]
            if lam and i == 1 and k == 2:
                with pytest.raises(
                    SchemaError,
                    match=rf"^patient 'p2': action 'drug_b' not declared in the reward spec's "
                          rf"action_max at t={t}$",
                ):
                    trace(views[k], spec)
            else:
                got = _assert_matches_oracle(views[k], spec)
                assert got.cumulative.hex() == alone[i][k].item().hex(), (i, k)
            plans.add(id(rewards._last_block[1]))
        assert len(plans) == 1


def test_the_memo_retains_at_most_an_eighth_of_the_block(monkeypatch, cohort5000):
    """After a pool of 20 specs is scored, the memo holds the block's plan
    (the two-row gather, the flags, and one [actions, trajectories] level
    sum per distinct gamma) and the last spec's lists: at most an eighth
    of the bytes of the block's row columns."""
    config, dataset = cohort5000
    block = dataset.columns
    base = reference_spec(config)
    specs = [
        (f"s{i}", dataclasses.replace(base, gamma=(0.99, 0.95)[i % 2], decay_half_life=24.0 + i))
        for i in range(20)
    ]
    monkeypatch.setattr(rewards, "_last_block", (None, None, None, None))
    gc.collect()
    tracemalloc.start()
    try:
        rows = score_specs(dataset, specs)
        del rows
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    cached_block, plan, cached_spec, _ = rewards._last_block
    assert cached_block is block and cached_spec is specs[-1][1]
    assert sorted(plan.sums) == [0.95, 0.99]
    for sums in plan.sums.values():
        assert sums.shape == (len(block.action_ids), len(dataset.trajectories))
    row_bytes = sum(getattr(block, name).nbytes for name in _ROW_COLUMNS)
    assert retained <= row_bytes / 8, (retained, row_bytes)


def test_score_specs_reads_two_potential_rows_per_trajectory(monkeypatch, tmp_path):
    """One _potentials call per spec, on each trajectory's first and last
    rows; neither scoring nor OPE computes a per-step list. Scoring four
    specs of two gammas, then OPE on the same dataset, gathers those rows
    from the block once and sums the discounted action levels once per
    gamma."""
    config = CohortConfig(n_patients=30, seed=5)
    dataset = generate(config)
    base = reference_spec(config)
    assert base.lam != 0.0
    gammas = [0.9, base.gamma, 0.9, base.gamma]
    specs = [
        (f"s{i}", dataclasses.replace(base, gamma=g, decay_half_life=20.0 + i))
        for i, g in enumerate(gammas)
    ]
    calls, step_lists, gathers, fills = [], [], [], []
    kernel, per_step = rewards._potentials, rewards._step_rewards
    take_rows, level_sums = CohortColumns.take_rows, rewards._BlockReturns._level_sums

    def counted(cols, spec):
        calls.append(cols)
        return kernel(cols, spec)

    def listed(cols, spec):
        step_lists.append(cols)
        return per_step(cols, spec)

    def counted_take_rows(self, rows):
        if self is dataset.columns:
            gathers.append(len(rows))
        return take_rows(self, rows)

    def counted_level_sums(self, gamma):
        fills.append(gamma)
        return level_sums(self, gamma)

    monkeypatch.setattr(rewards, "_potentials", counted)
    monkeypatch.setattr(rewards, "_step_rewards", listed)
    monkeypatch.setattr(CohortColumns, "take_rows", counted_take_rows)
    monkeypatch.setattr(rewards._BlockReturns, "_level_sums", counted_level_sums)
    rows = score_specs(dataset, specs)
    assert [row["spec_id"] for row in rows if "error" not in row] == [s for s, _ in specs]
    assert len(calls) == len(specs)
    offsets = dataset.columns.offsets
    ends = np.concatenate([offsets[:-1], offsets[1:] - 1])
    for cols in calls:
        assert len(cols.t) == 2 * len(dataset.trajectories)
        assert np.array_equal(cols.t, dataset.columns.t[ends])
    ope_stage(dataset, base, [], tmp_path, level=0.9, resamples=20, seed=0, bins=3)
    assert len(calls) == len(specs) + 1
    assert step_lists == []
    assert gathers == [2 * len(dataset.trajectories)]
    assert sorted(fills) == [0.9, base.gamma]


@pytest.mark.parametrize(
    "cls",
    [RewardSpec, SurvivalConfig, Trajectory, PipelineConfig, CohortConfig, CompMetricConfig,
     LlmClientConfig],
    ids=lambda cls: cls.__name__,
)
def test_specs_trajectories_and_configs_are_frozen(cls):
    # trace's memo keys on the spec and block objects themselves, which is
    # sound only while a spec cannot change after it is made.
    assert cls.__dataclass_params__.frozen


@pytest.mark.parametrize("name", ["survival", "confidence_tau", "action_max"])
def test_a_spec_mapping_refuses_item_assignment(name):
    survival = {"f1": SurvivalConfig(form=SurvivalForm.DECAY_LOW, tau=0.4)}
    given = {"survival": survival, "confidence_tau": {"f1": 8.0}, "action_max": {"drug_a": 4.0}}
    spec = RewardSpec(**given)
    with pytest.raises(TypeError):
        getattr(spec, name)["f9"] = 1.0
    given[name].clear()  # the spec holds a copy
    assert len(getattr(spec, name)) == 1


def test_no_traced_spec_outlives_the_memo():
    """The memo's plan keeps only the distinct gammas' level sums, never a
    spec: the first spec goes once a second is traced, whatever its gamma."""
    views = _views([_steps(np.random.default_rng(41), n) for n in (3, 5)])
    for gamma in (0.95, 0.8):
        first, second = _spec(lam=0.3), dataclasses.replace(_spec(lam=0.1), gamma=gamma)
        config = weakref.ref(first.survival["f2"])
        for spec in (first, second):
            for traj in views:
                trace(traj, spec)
        assert sorted(rewards._last_block[1].sums) == sorted({0.95, gamma})
        del first
        gc.collect()
        assert config() is None, gamma


def test_threads_tracing_different_blocks_and_specs_get_their_own_slices():
    rng = np.random.default_rng(31)
    cases = []
    for i in range(4):
        views = _views([_steps(rng, n) for n in (3, 5, 2, 4)])
        spec = _spec(lam=0.1 * i)
        cases.append((views, spec, [oracle_trace(traj, spec)[2] for traj in views]))
    mismatches = []

    def work(views, spec, expected):
        for _ in range(200):
            for traj, cumulative in zip(views, expected):
                if abs(trace(traj, spec).cumulative - cumulative) > 1e-12:
                    mismatches.append(traj.patient_id)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=case) for case in cases]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


@pytest.fixture(scope="module")
def cohort5000():
    config = CohortConfig(n_patients=5000, seed=3)
    return config, generate(config)


def test_survival_exponents_peak_at_three_outputs_on_a_5000_patient_block(cohort5000):
    config, dataset = cohort5000
    cols = dataset.columns
    spec = reference_spec(config)
    select, c, b, m, _, _ = rewards._feature_columns(spec, cols.feature_ids)
    values = cols.values[:, select]
    tracemalloc.start()
    try:
        out = rewards._survival_exponents(values, c, b, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # d, z and the output; the expression form kept four such arrays alive.
    assert peak <= 3.25 * out.nbytes
    d = values - m
    z = c * d
    assert np.array_equal(out, np.maximum(0.5 * z * z + b * d, 0.0))
