"""Metamorphic relations of scoring: properties that the definitions in
README and PAPER.md fix under a change of the input, checked on generated
cohorts rather than against an oracle, so that they also catch a fault that
a function shares with its oracle (Chen, Cheung & Yiu 1998).
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tridrive.model import Trajectory
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
