"""The in-memory cohort: one block of columns, trajectories as views of it.

A loaded or generated dataset holds its steps once, as arrays; Step objects
are built only when a caller reads .steps. These tests pin that the block
round-trips through the file format, that every pipeline reader works on
it without building steps, and that the files it writes are the bytes the
object form wrote.
"""

import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    binary_document,
    make_step,
    oracle_efficiency,
    oracle_ground_truth,
    oracle_iqr,
    oracle_metadata,
    oracle_trace,
    oracle_uncertainty,
    oracle_validate,
    plain_document,
    simple_spec,
)
from tridrive import model
from tridrive.errors import ValidationError
from tridrive.features import compute_metadata, summarize_dataset
from tridrive.fitness import CompMetricConfig, _feature_iqr
from tridrive.model import (
    ActionSpec,
    FeatureSpec,
    FeatureType,
    Trajectory,
    TrajectoryDataset,
    load_dataset,
    save_dataset,
)
from tridrive.ope import bootstrap_ci, identity_prob_table, mortality_curve
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
def trajectories(draw, patient_id):
    """2 to 5 steps; f1 always observed, f2 and f3 for the whole stay or
    never; each action set or unset at each step."""
    fids = ["f1"] + [fid for fid in ("f2", "f3") if draw(st.booleans())]
    t = 0
    steps = []
    for _ in range(draw(st.integers(2, 5))):
        t += draw(st.integers(1, 3))
        values = {fid: draw(st.integers(0, 1000)) / 1000 for fid in fids}
        staleness = {fid: draw(st.integers(0, 3)) for fid in fids}
        action = {aid: draw(level) for aid, level in LEVELS.items() if draw(st.booleans())}
        sofa = draw(st.integers(0, 200)) / 10
        steps.append(make_step(t, values, staleness, action=action, sofa=sofa))
    return Trajectory(patient_id, steps, draw(st.booleans()), draw(st.integers(0, 200)) / 10)


@st.composite
def datasets(draw):
    n = draw(st.integers(2, 4))
    return TrajectoryDataset(
        [draw(trajectories(f"p{i}")) for i in range(n)], dict(FEATURE_SCHEMA), dict(ACTION_SCHEMA)
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


# The format-3 file of the 50-patient seed-0 cohort, whose content
# test_synth pins apart from the format, and the run id it gives.
COHORT_50_SHA256 = "17a86b8a90dcd82599392c23b09687d786cc0accb47505758a0caf3041d7cb7b"
COHORT_50_RUN_ID = "edf89ef51101f8a2"


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


# Offenders a format-3 file cannot hold (its t and staleness are I4), so
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


@_OFFENDERS
def test_validate_reports_the_first_offender(trajs, message):
    with pytest.raises(ValidationError, match=f"^{message}"):
        _offender_dataset(trajs).validate()


@_OFFENDERS
def test_validate_reports_the_first_offender_of_views(tmp_path, trajs, message):
    # The same trajectories, written unchecked and validated as views of
    # the loaded block.
    path = tmp_path / "d.json"
    model.write_compact_json(path, model.dataset_to_json(_offender_dataset(trajs)))
    with pytest.raises(ValidationError, match=f"^{message}"):
        load_dataset(path)


@_OFFENDERS
def test_validate_builds_no_steps(tmp_path, monkeypatch, trajs, message):
    path = tmp_path / "d.json"
    model.write_compact_json(path, model.dataset_to_json(_offender_dataset(trajs)))
    monkeypatch.setattr(model.CohortColumns, "steps", _no_steps)
    with pytest.raises(ValidationError, match=f"^{message}"):
        load_dataset(path)


# One broken rule of TrajectoryDataset.validate each, applied at row r of
# one trajectory. Discrete levels stay whole, as a loaded discrete level is.
_BREAKS = {
    "length": lambda draw, traj, r: setattr(traj, "steps", traj.steps[:1]),
    "baseline": lambda draw, traj, r: setattr(
        traj, "sofa_baseline", draw(st.sampled_from([-1.0, math.nan, math.inf]))
    ),
    "time": lambda draw, traj, r: setattr(
        traj.steps[max(r, 1)], "t", traj.steps[max(r, 1) - 1].t - draw(st.integers(0, 2))
    ),
    "sofa": lambda draw, traj, r: setattr(
        traj.steps[r], "sofa", draw(st.sampled_from([-1.0, math.nan, math.inf]))
    ),
    "feature-set": lambda draw, traj, r: _toggle(traj.steps[r].observations, "f2"),
    "unknown-feature": lambda draw, traj, r: [
        step.observations.update(zz=model.Observation(0.5, 0)) for step in traj.steps
    ],
    "value": lambda draw, traj, r: _observe(
        traj.steps[r], value=draw(st.sampled_from([1.5, -0.25, math.inf]))
    ),
    "staleness": lambda draw, traj, r: _observe(traj.steps[r], staleness=-1),
    "unknown-action": lambda draw, traj, r: traj.steps[r].action.update(zz=1),
    "negative-level": lambda draw, traj, r: traj.steps[r].action.update(
        draw(st.sampled_from([{"dose": -1}, {"flow": -0.25}]))
    ),
    "level-over-max": lambda draw, traj, r: traj.steps[r].action.update(
        draw(st.sampled_from([{"dose": 5}, {"dose": 9}, {"flow": 60.25}]))
    ),
}


def _toggle(observations, fid):
    if observations.pop(fid, None) is None:
        observations[fid] = model.Observation(0.5, 0)


def _observe(step, **change):
    step.observations["f1"] = dataclasses.replace(step.observations["f1"], **change)


@st.composite
def broken_datasets(draw):
    """A valid dataset after one break of _BREAKS at a random row of a
    random trajectory."""
    dataset = draw(datasets())
    traj = draw(st.sampled_from(dataset.trajectories))
    r = draw(st.integers(0, len(traj.steps) - 1))
    _BREAKS[draw(st.sampled_from(sorted(_BREAKS)))](draw, traj, r)
    return dataset


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(broken_datasets())
def test_validate_matches_the_step_by_step_oracle(tmp_path, dataset):
    message = oracle_validate(dataset)
    assert message is not None
    with pytest.raises(ValidationError) as built:
        dataset.validate()
    assert str(built.value) == message
    path = tmp_path / "d.json"
    model.write_compact_json(path, model.dataset_to_json(dataset))
    with pytest.raises(ValidationError) as loaded:
        load_dataset(path)
    assert str(loaded.value) == message


def test_assigning_steps_detaches_a_view(tmp_path):
    dataset = generate(CohortConfig(n_patients=4, horizon_min=8, horizon_max=8, seed=3))
    spec = reference_spec(CohortConfig(seed=3))
    block = dataset.columns
    split = filter_split(dataset, "policy_train")
    assert split.columns is split.trajectories[0].block[0] is not block  # a split owns its block
    traj = dataset.trajectories[1]
    assert len(traj.columns.t) == 8
    traj.steps = traj.steps[:5]
    assert "_view" not in traj.__dict__
    assert traj.columns.t.tolist() == [0, 1, 2, 3, 4]
    assert len(trace(traj, spec).rewards) == 4
    cols = dataset.columns
    assert cols is not block and np.diff(cols.offsets).tolist() == [8, 5, 8, 8]
    path = tmp_path / "d.json"
    save_dataset(dataset, path)
    assert load_dataset(path) == dataset
    traj.steps = traj.steps[:1]
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
    doc = plain_document(json.loads(path.read_text()))
    # A discrete level is truncated as int() truncates; a continuous one is kept.
    doc["actions"] = {"dose": [2.7, -0.5], "flow": [2, None]}
    path.write_text(json.dumps(binary_document(doc)))
    loaded = load_dataset(path)
    actions = [step.action for step in loaded.trajectories[0].steps]
    assert actions == [{"dose": 2, "flow": 2.0}, {"dose": 0}]
    assert [type(a["dose"]) for a in actions] == [int, int]
    assert type(actions[0]["flow"]) is float
    save_dataset(loaded, path)
    doc = plain_document(json.loads(path.read_text()))
    assert doc["actions"] == {"dose": [2.0, 0.0], "flow": [2.0, None]}
