"""The in-memory cohort: one block of columns, trajectories as views of it.

A loaded or generated dataset holds its steps once, as arrays; Step objects
are built only when a caller reads .steps. These tests pin that the block
round-trips through the file format, that every pipeline reader works on
it without building steps, and that the files it writes are the bytes the
object form wrote.
"""

import dataclasses
import gc
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import (
    make_step,
    oracle_efficiency,
    oracle_ground_truth,
    oracle_iqr,
    oracle_metadata,
    oracle_trace,
    oracle_uncertainty,
    oracle_validate,
    read_plain,
    simple_spec,
    write_plain,
)
from tridrive import model
from tridrive.errors import ValidationError
from tridrive.features import compute_metadata, summarize_dataset
from tridrive.fitness import CompMetricConfig, _feature_iqr, fitness
from tridrive.model import (
    ActionSpec,
    FeatureSpec,
    FeatureType,
    Trajectory,
    TrajectoryDataset,
    load_dataset,
    save_dataset,
)
from tridrive.ope import PolicyProbTable, bootstrap_ci, identity_prob_table, mortality_curve, wis
from tridrive.pipeline import PipelineConfig, PipelineRun, filter_split, run_pipeline, score_specs
from tridrive.rewards import trace
from tridrive.synth import CohortConfig, generate, reference_spec

EXACT = dict(rel=0, abs=1e-12)

FEATURE_SCHEMA = {
    "f1": FeatureSpec(0.0, 1.0, FeatureType.NORMAL_RANGE, (0.4, 0.6)),
    "f2": FeatureSpec(0.0, 1.0, FeatureType.DIRECTIONAL_LOW),
    "f3": FeatureSpec(0.0, 1.0, FeatureType.DIRECTIONAL_HIGH),
}
ACTION_SCHEMA = {"dose": ActionSpec(4.0, discrete=True), "flow": ActionSpec(60.0, discrete=False)}
# Values on grids, so that no statistic is ill-conditioned at 1e-12.
LEVELS = {"dose": st.integers(0, 4), "flow": st.integers(0, 240).map(lambda k: k / 4)}


@st.composite
def trajectories(draw, patient_id, levels=LEVELS):
    """2 to 5 steps; f1 always observed, f2 and f3 for the whole stay or
    never; each action set or unset at each step, to a level drawn from
    levels."""
    fids = ["f1"] + [fid for fid in ("f2", "f3") if draw(st.booleans())]
    t = 0
    steps = []
    for _ in range(draw(st.integers(2, 5))):
        t += draw(st.integers(1, 3))
        values = {fid: draw(st.integers(0, 1000)) / 1000 for fid in fids}
        staleness = {fid: draw(st.integers(0, 3)) for fid in fids}
        action = {aid: draw(level) for aid, level in levels.items() if draw(st.booleans())}
        sofa = draw(st.integers(0, 200)) / 10
        steps.append(make_step(t, values, staleness, action=action, sofa=sofa))
    return Trajectory(patient_id, steps, draw(st.booleans()), draw(st.integers(0, 200)) / 10)


@st.composite
def datasets(draw, levels=LEVELS):
    n = draw(st.integers(2, 4))
    return TrajectoryDataset(
        [draw(trajectories(f"p{i}", levels)) for i in range(n)],
        dict(FEATURE_SCHEMA),
        dict(ACTION_SCHEMA),
    )


def _assert_metadata_matches(metadata, oracle):
    assert [m.feature_id for m in metadata] == [row["feature_id"] for row in oracle]
    for m, row in zip(metadata, oracle):
        assert m.count == row["count"]
        for name in ("mean", "std", "missingness", "q25", "median", "q75"):
            assert getattr(m, name) == pytest.approx(row[name], **EXACT), name
        for got, want in [(m.rho_outcome, row["rho_outcome"])] + [
            (m.rho_action[aid], row["rho_action"][aid]) for aid in row["rho_action"]
        ]:
            assert (got is None) == (want is None)
            if want is not None:
                assert got == pytest.approx(want, **EXACT)


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(datasets())
def test_loaded_form_matches_the_oracles(tmp_path, dataset):
    path = tmp_path / "d.json"
    save_dataset(dataset, path)
    loaded = load_dataset(path)

    spec = simple_spec(fids=("f1", "f2", "f3"), lam=0.1, action_max={"dose": 4.0, "flow": 60.0})
    for original, view in zip(dataset.trajectories, loaded.trajectories):
        rewards, potentials, cumulative = oracle_trace(original, spec)
        got = trace(view, spec)
        assert got.rewards == pytest.approx(rewards, **EXACT)
        assert got.potentials == pytest.approx(potentials, **EXACT)
        assert got.cumulative == pytest.approx(cumulative, **EXACT)

    cfg = CompMetricConfig()
    for fid in FEATURE_SCHEMA:
        assert _feature_iqr(loaded.columns, fid) == pytest.approx(oracle_iqr(dataset, fid), **EXACT)
    targets = cfg.prepare(loaded)
    fids = ["f1"]
    originals = dataset.trajectories
    assert targets.truth.tolist() == pytest.approx(
        [oracle_ground_truth(t, cfg.epsilon) for t in originals], **EXACT
    )
    assert targets.staleness(fids).tolist() == pytest.approx(
        [oracle_uncertainty(t, fids) for t in originals], **EXACT
    )
    assert targets.efficiency(fids).tolist() == pytest.approx(
        oracle_efficiency(dataset, fids, cfg), **EXACT
    )
    _assert_metadata_matches(compute_metadata(loaded), oracle_metadata(dataset))

    # Read last: until here the loaded trajectories had no steps.
    assert not any("steps" in t.__dict__ for t in loaded.trajectories)
    assert loaded == dataset
    for original, view in zip(dataset.trajectories, loaded.trajectories):
        assert view.steps == original.steps


def test_views_share_the_block(tmp_path):
    path = tmp_path / "c.json"
    save_dataset(generate(CohortConfig(n_patients=5, seed=1)), path)
    dataset = load_dataset(path)
    block = dataset.columns
    assert dataset.columns is block
    for traj in dataset.trajectories:
        cols = traj.columns
        for name in ("values", "staleness", "mask", "t", "sofa", "actions"):
            assert np.shares_memory(getattr(cols, name), getattr(block, name)), name
    assert len(block.t) == int(block.offsets[-1]) == summarize_dataset(dataset).n_records


def test_built_trajectory_derives_columns_from_its_steps():
    traj = Trajectory(
        "p",
        [make_step(0, {"f1": 0.5}, action={"dose": 2}), make_step(3, {"f1": 0.7}, {"f1": 2})],
        True,
        5.0,
    )
    assert "columns" not in traj.__dict__
    cols = traj.columns
    assert cols.t.tolist() == [0, 3]
    assert cols.offsets.tolist() == [0, 2]
    assert cols.staleness[:, cols.feature_ids.index("f1")].tolist() == [0.0, 2.0]
    assert cols.action_ids == ["dose"] and cols.action_mask[:, 0].tolist() == [True, False]
    assert dataclasses.replace(traj, patient_id="q").steps is traj.steps


def _no_steps(block, k):
    raise AssertionError("steps built")


def test_pipeline_readers_build_no_steps(tmp_path, monkeypatch):
    config = CohortConfig(n_patients=40, horizon_min=6, horizon_max=12, seed=2)
    path = tmp_path / "c.json"
    save_dataset(generate(config), path)
    dataset = load_dataset(path)
    spec = reference_spec(config)
    compute_metadata(dataset)
    rows = score_specs(dataset, [("ref", spec)])
    assert "error" not in rows[0]
    traces = [trace(t, spec) for t in dataset.trajectories]
    bootstrap_ci(dataset, traces, identity_prob_table(dataset), resamples=50)
    mortality_curve(dataset, traces, 4)
    assert not any("steps" in t.__dict__ for t in dataset.trajectories)

    # A whole run reads the cohort through its columns only.
    monkeypatch.setattr(model.CohortColumns, "steps", _no_steps)
    run_pipeline(
        PipelineConfig(dataset=str(path), rounds=3, candidates=4, bootstrap=40, bins=4),
        tmp_path / "run",
    )


# The format-4 file of the 50-patient seed-0 cohort, whose content
# test_synth pins apart from the format, and the run id it gives.
COHORT_50_SHA256 = "7a7a857cd3cd252bf5ea1c86efb17a0d48a2b6ce33fbe86386079e983215bb58"
COHORT_50_RUN_ID = "026126174134e4b0"


def test_generated_file_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_dataset(generate(CohortConfig(n_patients=50, seed=0)), "cohort.json")
    assert hashlib.sha256((tmp_path / "cohort.json").read_bytes()).hexdigest() == COHORT_50_SHA256
    assert PipelineRun(PipelineConfig(dataset="cohort.json"), "run").run_id == COHORT_50_RUN_ID


def _two_patients(first_steps, second_steps, baseline=5.0):
    return [
        Trajectory("p1", first_steps, True, baseline),
        Trajectory("p2", second_steps, False, 5.0),
    ]


_OK = [make_step(0, {"f1": 0.5}), make_step(1, {"f1": 0.5})]


_OFFENDERS = pytest.mark.parametrize(
    "trajs, message",
    [
        (
            _two_patients(
                [make_step(0, {"f1": 0.5}), make_step(1, {"f1": 0.5}, sofa=-1.0),
                 make_step(1, {"f1": 0.5})],
                [make_step(0, {"f1": 0.5})],
            ),
            "patient 'p1': sofa -1.0 not finite and >= 0 at t=1",
        ),
        (
            _two_patients(_OK, [make_step(0, {"f1": 1.5})]),
            "patient 'p2': needs >= 2 steps",
        ),
        (
            _two_patients(
                [make_step(0, {"f1": 1.5}), make_step(1, {"f1": 0.5})], _OK,
                baseline=float("nan"),
            ),
            "patient 'p1': sofa_baseline nan not finite",
        ),
        (
            _two_patients(
                _OK,
                [make_step(0, {"f1": 0.5}, action={"drug_a": 9}),
                 make_step(2, {"f1": 1.5}, action={"drug_a": 2})],
            ),
            "patient 'p2': action 'drug_a' level 9 exceeds max 4.0 at t=0",
        ),
        (
            _two_patients(
                _OK,
                [make_step(0, {"f1": 0.5}),
                 make_step(2, {"f1": 1.5}, {"f1": -1}, action={"drug_a": -1})],
            ),
            r"patient 'p2': feature 'f1' value out of \[0,1\] at t=2",
        ),
        (
            _two_patients(
                _OK, [make_step(0, {"f1": 0.5}), make_step(2, {"f1": 0.5, "e0": 0.5})]
            ),
            "patient 'p2': feature set changes at t=2",
        ),
    ],
    ids=["step-order", "trajectory-order", "trajectory-before-steps", "action",
         "feature-before-action", "feature-set"],
)


def _offender_dataset(trajs):
    return TrajectoryDataset(
        trajs,
        {"f1": FEATURE_SCHEMA["f1"], "e0": FEATURE_SCHEMA["f2"]},
        {"drug_a": ActionSpec(4.0)},
    )


# Offenders a format-4 file cannot hold (its t and staleness are I4), so
# save_dataset must refuse them before it writes.
_UNWRITABLE = pytest.mark.parametrize(
    "trajs, message",
    [
        (
            _two_patients(_OK, [make_step(0, {"f1": 0.5}), make_step(1.5, {"f1": 0.5})]),
            "patient 'p2': time index 1.5 not a whole number of magnitude below 2**31",
        ),
        (
            _two_patients(_OK, [make_step(-(2**31), {"f1": 0.5}), make_step(1, {"f1": 0.5})]),
            "patient 'p2': time index -2147483648 not a whole number of magnitude below 2**31",
        ),
        (
            _two_patients([make_step(0, {"f1": 0.5}), make_step(2**31, {"f1": 0.5})], _OK),
            "patient 'p1': time index 2147483648 not a whole number of magnitude below 2**31",
        ),
        (
            _two_patients(_OK, [make_step(0, {"f1": 0.5}), make_step(1, {"f1": 0.5}, {"f1": 0.5})]),
            "patient 'p2': feature 'f1' staleness 0.5 not a whole number below 2**31 at t=1",
        ),
        (
            _two_patients([make_step(0, {"f1": 0.5}, {"f1": math.inf}), _OK[1]], _OK),
            "patient 'p1': feature 'f1' staleness inf not a whole number below 2**31 at t=0",
        ),
        (
            _two_patients(_OK, [make_step(0, {"f1": 0.5}, {"f1": 2**31}), _OK[1]]),
            "patient 'p2': feature 'f1' staleness 2147483648.0 not a whole number below 2**31 "
            "at t=0",
        ),
        (
            _two_patients(_OK, [make_step(0, {"f1": 0.5}, {"f1": -1.5}), _OK[1]]),
            "patient 'p2': feature 'f1' staleness negative at t=0",
        ),
    ],
    ids=["fractional-time", "time-below-range", "time-above-range", "fractional-staleness",
         "infinite-staleness", "staleness-above-range", "negative-fractional-staleness"],
)


@_UNWRITABLE
def test_save_refuses_what_the_file_cannot_hold(tmp_path, trajs, message):
    dataset = _offender_dataset(trajs)
    assert oracle_validate(dataset) == message
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        dataset.validate()
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        save_dataset(dataset, tmp_path / "d.json")
    assert not (tmp_path / "d.json").exists()


@pytest.mark.parametrize(
    "repeat",
    [
        pytest.param(Trajectory("a", _OK, False, 5.0), id="valid-repeat"),
        # The repeat is reported before the trajectory's own rules.
        pytest.param(Trajectory("a", _OK[:1], False, -1.0), id="short-repeat"),
    ],
)
def test_save_refuses_a_repeated_patient_id(tmp_path, repeat):
    # A dataset file names each patient once, and load_dataset refuses a repeat.
    dataset = _offender_dataset([Trajectory("a", _OK, True, 5.0), Trajectory("b", _OK, True, 5.0),
                                 repeat])
    message = "patient 'a': appears more than once"
    assert oracle_validate(dataset) == message
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        save_dataset(dataset, tmp_path / "d.json")
    assert not (tmp_path / "d.json").exists()


@_OFFENDERS
def test_validate_reports_the_first_offender(trajs, message):
    with pytest.raises(ValidationError, match=f"^{message}"):
        _offender_dataset(trajs).validate()


@_OFFENDERS
def test_validate_reports_the_first_offender_of_views(tmp_path, trajs, message):
    # The same trajectories, written unchecked and validated as views of
    # the loaded block.
    path = tmp_path / "d.json"
    model.write_columns(path, *model.dataset_to_json(_offender_dataset(trajs)))
    with pytest.raises(ValidationError, match=f"^{message}"):
        load_dataset(path)


@_OFFENDERS
def test_validate_builds_no_steps(tmp_path, monkeypatch, trajs, message):
    path = tmp_path / "d.json"
    model.write_columns(path, *model.dataset_to_json(_offender_dataset(trajs)))
    monkeypatch.setattr(model.CohortColumns, "steps", _no_steps)
    with pytest.raises(ValidationError, match=f"^{message}"):
        load_dataset(path)


@pytest.mark.parametrize(
    "observed, feature_schema, message",
    [
        ({"a{x}": 1.5}, {"a{x}": FEATURE_SCHEMA["f2"]},
         "patient 'p': feature 'a{x}' value out of [0,1] at t=1"),
        ({"z{0}": 0.5}, {}, "patient 'p': feature 'z{0}' not in feature_schema"),
        ({"f1": 0.5}, {"f1": FEATURE_SCHEMA["f1"]},
         "patient 'p': action 'b{}' level 9 exceeds max 4.0 at t=1"),
    ],
    ids=["feature-value", "undeclared-feature", "action-level"],
)
def test_an_id_with_braces_is_shown_as_it_is(tmp_path, observed, feature_schema, message):
    # An id is never part of a format string: "{x}", "{0}" and "{}" in it are text.
    steps = [make_step(0, dict.fromkeys(observed, 0.5), action={"b{}": 1}),
             make_step(1, observed, action={"b{}": 9})]
    dataset = TrajectoryDataset([Trajectory("p", steps, True, 5.0)], feature_schema,
                                {"b{}": ActionSpec(4.0)})
    with pytest.raises(ValidationError) as built:
        dataset.validate()
    assert str(built.value) == message
    path = tmp_path / "d.json"
    model.write_columns(path, *model.dataset_to_json(dataset))
    with pytest.raises(ValidationError) as loaded:
        load_dataset(path)
    assert str(loaded.value) == message


def test_validate_holds_one_rule_at_a_time(cohort500):
    # Each rule's flags are made, searched and dropped in turn, and an id's
    # rules read one copy of its columns: a [rows, rules] matrix of flags,
    # with the stacks that build it, would take 1.5 MB on this cohort.
    cohort500.validate()
    gc.collect()
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        cohort500.validate()
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert peak < 1.0 * 2**20


# One broken rule of TrajectoryDataset.validate each, applied at row r of
# one trajectory: each break returns the fields of a replaced trajectory,
# whose steps are new Step values made with dataclasses.replace.
_BREAKS = {
    "length": lambda draw, traj, r: {"steps": traj.steps[:1]},
    "baseline": lambda draw, traj, r: {
        "sofa_baseline": draw(st.sampled_from([-1.0, math.nan, math.inf]))
    },
    "time": lambda draw, traj, r: _edit(
        traj, max(r, 1), t=traj.steps[max(r, 1) - 1].t - draw(st.integers(0, 2))
    ),
    "sofa": lambda draw, traj, r: _edit(
        traj, r, sofa=draw(st.sampled_from([-1.0, math.nan, math.inf]))
    ),
    "feature-set": lambda draw, traj, r: _edit(
        traj, r, observations=_toggle(traj.steps[r].observations, "f2")
    ),
    "unknown-feature": lambda draw, traj, r: {"steps": [
        dataclasses.replace(
            step, observations={**step.observations, "zz": model.Observation(0.5, 0)}
        )
        for step in traj.steps
    ]},
    "value": lambda draw, traj, r: _observe(
        traj, r, value=draw(st.sampled_from([1.5, -0.25, math.inf]))
    ),
    "staleness": lambda draw, traj, r: _observe(traj, r, staleness=-1),
    "unknown-action": lambda draw, traj, r: _act(traj, r, {"zz": 1}),
    "negative-level": lambda draw, traj, r: _act(
        traj, r, draw(st.sampled_from([{"dose": -1}, {"flow": -0.25}]))
    ),
    "level-over-max": lambda draw, traj, r: _act(
        traj, r, draw(st.sampled_from([{"dose": 5}, {"dose": 9}, {"flow": 60.25}]))
    ),
    # Discrete levels that are not whole numbers: the integer-only breaks
    # above never make them.
    "fractional-level": lambda draw, traj, r: _act(
        traj, r, {"dose": draw(st.sampled_from([-0.5, 2.7, 4.5]))}
    ),
}


def _edit(traj, r, **change):
    """{"steps": traj's steps with step r replaced by a copy with change}."""
    steps = list(traj.steps)
    steps[r] = dataclasses.replace(steps[r], **change)
    return {"steps": steps}


def _toggle(observations, fid):
    """observations without fid, or with it when it is absent."""
    if fid in observations:
        return {key: obs for key, obs in observations.items() if key != fid}
    return {**observations, fid: model.Observation(0.5, 0)}


def _observe(traj, r, **change):
    observations = traj.steps[r].observations
    f1 = dataclasses.replace(observations["f1"], **change)
    return _edit(traj, r, observations={**observations, "f1": f1})


def _act(traj, r, levels):
    return _edit(traj, r, action={**traj.steps[r].action, **levels})


@st.composite
def broken_datasets(draw):
    """A valid dataset after one to four breaks of _BREAKS, each at a random
    row of a random trajectory, so that which of two broken rows or rules is
    reported first is checked too. A trajectory already cut below 2 steps is
    not broken again."""
    dataset = draw(datasets())
    trajs = list(dataset.trajectories)
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, len(trajs) - 1))
        if len(trajs[k].steps) < 2:
            continue
        r = draw(st.integers(0, len(trajs[k].steps) - 1))
        change = _BREAKS[draw(st.sampled_from(sorted(_BREAKS)))](draw, trajs[k], r)
        trajs[k] = dataclasses.replace(trajs[k], **change)
    return dataclasses.replace(dataset, trajectories=trajs)


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(broken_datasets())
def test_validate_matches_the_step_by_step_oracle(tmp_path, dataset):
    message = oracle_validate(dataset)
    assume(message is not None)  # two breaks can undo each other
    with pytest.raises(ValidationError) as built:
        dataset.validate()
    assert str(built.value) == message
    path = tmp_path / "d.json"
    model.write_columns(path, *model.dataset_to_json(dataset))
    with pytest.raises(ValidationError) as loaded:
        load_dataset(path)
    assert str(loaded.value) == message


def test_a_dataset_is_frozen():
    dataset = generate(CohortConfig(n_patients=3, horizon_min=2, horizon_max=4, seed=1))
    assert isinstance(dataset.trajectories, tuple)
    for name in ("trajectories", "feature_schema", "action_schema", "columns"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(dataset, name, getattr(dataset, name))


@pytest.mark.parametrize(
    "route", ["loaded", "step-built", "reordered", "subset", "repeated", "mixed", "empty"]
)
def test_trajectory_k_is_row_span_k_of_the_block(tmp_path, route):
    path = tmp_path / "c.json"
    save_dataset(generate(CohortConfig(n_patients=6, horizon_min=3, horizon_max=8, seed=5)), path)
    loaded, other = load_dataset(path), load_dataset(path)
    views = loaded.trajectories
    given = {
        "loaded": views,
        "step-built": [
            Trajectory(t.patient_id, t.steps, t.survived, t.sofa_baseline)
            for t in other.trajectories
        ],
        "reordered": views[::-1],
        "subset": views[1::2],
        "repeated": [views[2]] * 3 + [views[0]],
        "mixed": [views[0], other.trajectories[1], dataclasses.replace(views[2])],
        "empty": [],
    }[route]
    dataset = dataclasses.replace(loaded, trajectories=given)
    block = dataset.columns
    assert (block is loaded.columns) == (route == "loaded")
    assert isinstance(dataset.trajectories, tuple) and len(block.offsets) == len(given) + 1
    assert [t.block for t in dataset.trajectories] == [(block, k) for k in range(len(given))]
    steps = [t.steps for t in given]
    assert [block.steps(k) for k in range(len(given))] == steps
    assert [t.steps for t in dataset.trajectories] == steps
    assert [(t.patient_id, t.survived, t.sofa_baseline) for t in dataset.trajectories] == [
        (t.patient_id, t.survived, t.sofa_baseline) for t in given
    ]


def test_a_step_built_cohort_scores_as_its_file(tmp_path):
    config = CohortConfig(n_patients=40, horizon_min=4, horizon_max=12, seed=9)
    cohort = generate(config)
    built = dataclasses.replace(cohort, trajectories=[
        Trajectory(t.patient_id, t.steps, t.survived, t.sofa_baseline) for t in cohort.trajectories
    ])
    path = tmp_path / "c.json"
    save_dataset(built, path)
    rng = np.random.default_rng(9)
    rows = identity_prob_table(cohort).columns
    table = PolicyProbTable.of_columns(rows._replace(
        p_eval=rng.uniform(0.1, 1.0, len(rows.t)), p_behavior=rng.uniform(0.1, 1.0, len(rows.t))
    ))
    spec = reference_spec(config)
    results = []
    for dataset in (built, load_dataset(path)):
        traces = [trace(t, spec) for t in dataset.trajectories]
        results.append((
            fitness(dataset, spec),
            wis(dataset, traces, table),
            bootstrap_ci(dataset, traces, table, resamples=200),
        ))
    assert results[0] == results[1]


def test_assigning_steps_detaches_a_view(tmp_path):
    """Assigning a view's steps raises; a view replaced with new steps is
    detached from the block."""
    dataset = generate(CohortConfig(n_patients=4, horizon_min=8, horizon_max=8, seed=3))
    spec = reference_spec(CohortConfig(seed=3))
    block = dataset.columns
    split = filter_split(dataset, "policy_train")
    assert split.columns is split.trajectories[0].block[0] is not block  # a split owns its block
    view = dataset.trajectories[1]
    assert len(view.columns.t) == 8
    with pytest.raises(dataclasses.FrozenInstanceError):
        view.steps = view.steps[:5]
    traj = dataclasses.replace(view, steps=view.steps[:5])
    assert "_view" not in traj.__dict__
    assert traj.columns.t.tolist() == [0, 1, 2, 3, 4]
    assert len(trace(traj, spec).rewards) == 4
    first, _, *rest = dataset.trajectories
    dataset = dataclasses.replace(dataset, trajectories=[first, traj, *rest])
    cols = dataset.columns
    assert cols is not block and np.diff(cols.offsets).tolist() == [8, 5, 8, 8]
    assert dataset.trajectories[1].block == (cols, 1)
    assert dataset.trajectories[1].steps is traj.steps
    path = tmp_path / "d.json"
    save_dataset(dataset, path)
    assert load_dataset(path) == dataset
    short = dataclasses.replace(traj, steps=traj.steps[:1])
    dataset = dataclasses.replace(dataset, trajectories=[first, short, *rest])
    with pytest.raises(ValidationError, match="^patient 'synth_00001': needs >= 2 steps"):
        dataset.validate()


def test_discrete_levels_read_back_as_ints(tmp_path):
    dataset = TrajectoryDataset(
        [Trajectory("p1", [make_step(0, {"f1": 0.5}), make_step(1, {"f1": 0.5})], True, 5.0)],
        {"f1": FEATURE_SCHEMA["f1"]},
        dict(ACTION_SCHEMA),
    )
    path = tmp_path / "d.json"
    save_dataset(dataset, path)
    doc = read_plain(path)
    # A whole discrete level reads back as an int; a continuous one is kept.
    doc["actions"] = {"dose": [2.0, 0.0], "flow": [2, None]}
    write_plain(path, doc)
    loaded = load_dataset(path)
    actions = [step.action for step in loaded.trajectories[0].steps]
    assert actions == [{"dose": 2, "flow": 2.0}, {"dose": 0}]
    assert [type(a["dose"]) for a in actions] == [int, int]
    assert type(actions[0]["flow"]) is float
    save_dataset(loaded, path)
    assert read_plain(path)["actions"] == {"dose": [2.0, 0.0], "flow": [2.0, None]}
    # Any other discrete level is refused, not truncated, with the message
    # validate gives the same steps in memory.
    for levels, message in (
        ([2.7, 0.0], "discrete action 'dose' level 2.7 not a whole number at t=0"),
        ([2.0, -0.5], "action 'dose' level -0.5 not >= 0 at t=1"),
    ):
        doc["actions"] = {"dose": levels}
        write_plain(path, doc)
        steps = [make_step(t, {"f1": 0.5}, action={"dose": x}) for t, x in enumerate(levels)]
        built = dataclasses.replace(dataset, trajectories=[Trajectory("p1", steps, True, 5.0)])
        for check in (built.validate, lambda: load_dataset(path)):
            with pytest.raises(ValidationError, match=f"^patient 'p1': {re.escape(message)}$"):
                check()


# Discrete levels drawn as ints or as whole floats.
_WHOLE_FLOAT_LEVELS = {**LEVELS, "dose": st.one_of(LEVELS["dose"], LEVELS["dose"].map(float))}


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(datasets(_WHOLE_FLOAT_LEVELS))
def test_a_valid_dataset_reads_back_equal(tmp_path, dataset):
    dataset.validate()
    path = tmp_path / "d.json"
    save_dataset(dataset, path)
    loaded = load_dataset(path)
    assert loaded == dataset
    assert loaded.columns.whole == dataset.columns.whole
