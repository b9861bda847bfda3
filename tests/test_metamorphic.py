"""Metamorphic relations of scoring: properties that the definitions in
README and PAPER.md fix under a change of the input, checked on generated
cohorts rather than against an oracle, so that they also catch a fault that
a function shares with its oracle (Chen, Cheung & Yiu 1998).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tridrive.model import Trajectory, TrajectoryDataset
from tridrive.ope import PolicyProbTable, bootstrap_ci, identity_prob_table
from tridrive.pipeline import score_specs
from tridrive.rewards import trace
from tridrive.synth import CohortConfig, generate, reference_spec


@st.composite
def small_cohorts(draw):
    """Configs of small synth cohorts, of 2 to 8 steps per patient."""
    return CohortConfig(
        n_patients=draw(st.integers(2, 12)),
        horizon_min=2,
        horizon_max=draw(st.integers(2, 8)),
        staleness_gradient=draw(st.sampled_from([0.0, 4.0])),
        overtreatment_prob=draw(st.sampled_from([0.0, 0.5])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@pytest.mark.parametrize("lams", [st.just(0.0), st.floats(0.01, 2.0)], ids=["lam=0", "lam>0"])
@settings(max_examples=50, deadline=None)
@given(config=small_cohorts(), gamma=st.floats(0.5, 1.0), data=st.data())
def test_a_return_does_not_depend_on_the_block_that_holds_it(lams, config, gamma, data):
    """Block independence. By the shaping identity [Ng, Harada & Russell
    1999] (README, the reward path), a trajectory's discounted return is
    gamma**(len - 1) * phi[last] - phi[first] - lam * sum_i gamma**i * cost_i
    over its own transitions: a function of its own rows alone. So it is bit
    for bit the same traced alone (built from its steps), in its cohort, in
    a subset of the cohort in any order and in the cohort reversed."""
    cohort = generate(config)
    spec = dataclasses.replace(reference_spec(config), lam=data.draw(lams), gamma=gamma)
    trajs = cohort.trajectories
    picked = data.draw(st.lists(st.integers(0, len(trajs) - 1), min_size=1, unique=True))
    alone = {
        traj.patient_id: trace(
            Trajectory(traj.patient_id, traj.steps, traj.survived, traj.sofa_baseline), spec
        ).cumulative.hex()
        for traj in trajs
    }
    for name, kept in [
        ("cohort", trajs),
        ("subset", [trajs[k] for k in picked]),
        ("reversed", trajs[::-1]),
    ]:
        dataset = dataclasses.replace(cohort, trajectories=kept)
        for traj in dataset.trajectories:
            got = trace(traj, spec).cumulative.hex()
            assert got == alone[traj.patient_id], (name, traj.patient_id)


@settings(max_examples=40, deadline=None)
@given(config=small_cohorts(), lam=st.sampled_from([0.0, 0.5]), data=st.data())
def test_renaming_the_features_in_order_changes_no_return(config, lam, data):
    """Feature names. A feature is found by its id, in the schema, the
    steps and the spec, and a block holds its features in id order. So new
    ids that sort as the old ones do, given in the schema, the data and the
    spec, leave every return bit for bit the same, even with each renamed
    mapping built in the reverse of its insertion order."""
    cohort = generate(config)
    spec = dataclasses.replace(reference_spec(config), lam=lam)
    old = sorted(cohort.feature_schema)
    new = sorted(data.draw(st.lists(
        st.text("abxyz_0", min_size=1, max_size=4), min_size=len(old), max_size=len(old),
        unique=True,
    )))
    to = dict(zip(old, new))

    def renamed(mapping):
        return {to[fid]: value for fid, value in reversed(mapping.items())}

    trajs = [
        Trajectory(traj.patient_id, [
            dataclasses.replace(step, observations=renamed(step.observations))
            for step in traj.steps
        ], traj.survived, traj.sofa_baseline)
        for traj in cohort.trajectories
    ]
    dataset = TrajectoryDataset(trajs, renamed(cohort.feature_schema), cohort.action_schema)
    spec_renamed = dataclasses.replace(
        spec, survival=renamed(spec.survival), confidence_tau=renamed(spec.confidence_tau)
    )
    assert dataset.columns.feature_ids == [to[fid] for fid in cohort.columns.feature_ids]
    for before, after in zip(cohort.trajectories, dataset.trajectories, strict=True):
        got = trace(after, spec_renamed).cumulative.hex()
        assert got == trace(before, spec).cumulative.hex(), before.patient_id


def _random_table(dataset, seed):
    """p_eval and p_behavior drawn from [0.5, 1] at every transition."""
    rng = np.random.default_rng(seed)
    columns = identity_prob_table(dataset).columns
    rows = len(columns.t)
    return PolicyProbTable.of_columns(
        columns._replace(p_eval=rng.uniform(0.5, 1.0, rows), p_behavior=rng.uniform(0.5, 1.0, rows))
    )


def _scores(dataset, spec, table):
    """The fitness row of the spec and of the same spec with lam 0.5, and
    the bootstrap estimate of the table."""
    rows = score_specs(dataset, [("ref", spec), ("lam", dataclasses.replace(spec, lam=0.5))])
    traces = [trace(traj, spec) for traj in dataset.trajectories]
    return rows, bootstrap_ci(dataset, traces, table, resamples=20, seed=1)


def _assert_rows_close(got, want, axes=("j_surv", "j_conf", "j_comp")):
    for got_row, want_row in zip(got, want, strict=True):
        if "error" in want_row:
            assert got_row == want_row
            continue
        for axis in axes:
            assert got_row[axis] == pytest.approx(want_row[axis], rel=1e-12, abs=1e-12), axis


@settings(max_examples=25, deadline=None)
@given(config=small_cohorts(), data=st.data())
def test_patient_order_changes_no_score(config, data):
    """Patient order. Each fitness axis is a correlation over patients and
    the WIS estimate a ratio of sums over them, so shuffling the
    trajectories leaves every fitness row, the WIS value and Kish's
    effective sample size within rounding. The bootstrap interval is
    exempt, because resamples index rows."""
    cohort = generate(config)
    spec = reference_spec(config)
    table = _random_table(cohort, config.seed)
    order = data.draw(st.permutations(range(len(cohort.trajectories))))
    shuffled = dataclasses.replace(cohort, trajectories=[cohort.trajectories[k] for k in order])
    (got_rows, got), (want_rows, want) = _scores(shuffled, spec, table), _scores(cohort, spec, table)
    _assert_rows_close(got_rows, want_rows)
    assert got.value == pytest.approx(want.value, rel=1e-12, abs=1e-12)
    assert got.n_effective == pytest.approx(want.n_effective, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(config=small_cohorts())
def test_duplicating_every_patient_changes_no_estimate(config):
    """Duplication. With every patient there twice, under a new id for the
    copy, a correlation and a self-normalized estimate weigh each patient
    as before: j_surv, j_conf and the WIS value stay within rounding, and
    Kish's effective sample size, (sum w)**2 / sum w**2, doubles. j_comp is
    exempt: its feature IQRs are quantiles, which duplication moves."""
    cohort = generate(config)
    spec = reference_spec(config)
    table = _random_table(cohort, config.seed)
    twice = dataclasses.replace(cohort, trajectories=[
        copy for traj in cohort.trajectories
        for copy in (traj, dataclasses.replace(traj, patient_id=traj.patient_id + "~copy"))
    ])
    copies = {(pid + "~copy", t): p for (pid, t), p in table.probs.items()}
    got_rows, got = _scores(twice, spec, PolicyProbTable({**table.probs, **copies}))
    want_rows, want = _scores(cohort, spec, table)
    _assert_rows_close(got_rows, want_rows, axes=("j_surv", "j_conf"))
    assert got.value == pytest.approx(want.value, rel=1e-12, abs=1e-12)
    assert got.n_effective == pytest.approx(2 * want.n_effective, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(config=small_cohorts(), k=st.integers(0, 700), on_eval=st.booleans())
@example(config=CohortConfig(n_patients=6, horizon_min=2, horizon_max=8), k=700, on_eval=True)
@example(config=CohortConfig(n_patients=6, horizon_min=2, horizon_max=8), k=700, on_eval=False)
def test_policy_scale_changes_no_estimate(config, k, on_eval):
    """Policy scale. Multiplying every trajectory's first-step p_eval by
    2**-k multiplies its weight by 2**-k, exactly, and the same for
    p_behavior multiplies it by 2**k. The WIS value, every resample's
    estimate and Kish's effective sample size do not change when every
    weight is multiplied by one constant, so the value, the interval and
    n_effective stay equal, with weights as far as 2**700 from 1."""
    cohort = generate(config)
    spec = reference_spec(config)
    table = _random_table(cohort, config.seed)
    name = "p_eval" if on_eval else "p_behavior"
    column = getattr(table.columns, name).copy()
    first = [lo for lo, hi in table.columns.spans.values()]
    column[first] = np.ldexp(column[first], -k)
    scaled = PolicyProbTable.of_columns(table.columns._replace(**{name: column}))
    traces = [trace(traj, spec) for traj in cohort.trajectories]
    got = bootstrap_ci(cohort, traces, scaled, resamples=50, seed=1)
    want = bootstrap_ci(cohort, traces, table, resamples=50, seed=1)
    assert (got.value, got.ci_low, got.ci_high, got.n_effective) == (
        want.value, want.ci_low, want.ci_high, want.n_effective
    )
