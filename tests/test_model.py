import json

import pytest

from conftest import make_dataset, make_step
from tridrive.errors import FormatError, ValidationError
from tridrive.model import (
    FeatureSpec,
    FeatureType,
    Observation,
    Trajectory,
    load_dataset,
    save_dataset,
)
from tridrive.synth import CohortConfig, generate


def test_round_trip_equality(two_patient_dataset, tmp_path):
    path = tmp_path / "data.json"
    save_dataset(two_patient_dataset, path)
    assert load_dataset(path) == two_patient_dataset


def test_round_trip_is_byte_stable(two_patient_dataset, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_dataset(two_patient_dataset, p1)
    save_dataset(load_dataset(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_round_trip_500_patient_cohort(tmp_path):
    dataset = generate(CohortConfig(n_patients=500, seed=11))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_dataset(dataset, p1)
    reloaded = load_dataset(p1)
    assert reloaded == dataset
    save_dataset(reloaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_trajectory_list_is_valid(tmp_path):
    dataset = make_dataset(
        [
            Trajectory(
                "p", [make_step(0, {"f1": 0.1}), make_step(1, {"f1": 0.2})], True, 5.0
            )
        ]
    )
    dataset.trajectories = []
    path = tmp_path / "empty.json"
    save_dataset(dataset, path)
    assert load_dataset(path).trajectories == []


def _write_doc(tmp_path, mutate):
    dataset = make_dataset(
        [
            Trajectory(
                "p1",
                [make_step(0, {"f1": 0.5}), make_step(1, {"f1": 0.6})],
                True,
                5.0,
            )
        ]
    )
    path = tmp_path / "data.json"
    save_dataset(dataset, path)
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    return path


def test_value_out_of_range_rejected(tmp_path):
    path = _write_doc(
        tmp_path, lambda d: d["trajectories"][0]["steps"][0]["obs"]["f1"].update(v=1.3)
    )
    with pytest.raises(ValidationError, match=r"value out of \[0,1\]"):
        load_dataset(path)


def test_duplicate_time_index_rejected(tmp_path):
    path = _write_doc(
        tmp_path, lambda d: d["trajectories"][0]["steps"][1].update(t=0)
    )
    with pytest.raises(ValidationError, match="non-increasing time index"):
        load_dataset(path)


def test_unknown_feature_rejected(tmp_path):
    def mutate(doc):
        for step in doc["trajectories"][0]["steps"]:
            step["obs"]["ghost"] = {"v": 0.5, "dt": 0}

    with pytest.raises(ValidationError, match="not in feature_schema"):
        load_dataset(_write_doc(tmp_path, mutate))


def test_changing_feature_set_rejected(tmp_path):
    def mutate(doc):
        del doc["trajectories"][0]["steps"][1]["obs"]["f1"]

    with pytest.raises(ValidationError, match="feature set changes"):
        load_dataset(_write_doc(tmp_path, mutate))


def test_single_step_trajectory_rejected(tmp_path):
    def mutate(doc):
        doc["trajectories"][0]["steps"] = doc["trajectories"][0]["steps"][:1]

    with pytest.raises(ValidationError, match=">= 2 steps"):
        load_dataset(_write_doc(tmp_path, mutate))


def test_action_over_max_rejected(tmp_path):
    def mutate(doc):
        doc["trajectories"][0]["steps"][0]["action"] = {"drug_a": 9}
        doc["action_schema"] = {"drug_a": {"max": 4, "discrete": True}}

    with pytest.raises(ValidationError, match="exceeds max"):
        load_dataset(_write_doc(tmp_path, mutate))


def _set_action(doc, level, discrete):
    doc["trajectories"][0]["steps"][0]["action"] = {"drug_a": level}
    doc["action_schema"] = {"drug_a": {"max": 4, "discrete": discrete}}


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["trajectories"][0]["steps"][1].update(sofa=float("nan")),
        lambda d: d["trajectories"][0]["steps"][1].update(sofa=float("inf")),
        lambda d: d["trajectories"][0].update(sofa_baseline=float("nan")),
        lambda d: d["trajectories"][0].update(sofa_baseline=float("inf")),
        lambda d: _set_action(d, float("nan"), discrete=True),
        lambda d: _set_action(d, float("nan"), discrete=False),
        lambda d: _set_action(d, float("inf"), discrete=True),
        lambda d: _set_action(d, float("inf"), discrete=False),
        lambda d: d.update(action_schema={"drug_a": {"max": float("nan")}}),
    ],
    ids=[
        "sofa-nan", "sofa-inf", "baseline-nan", "baseline-inf", "discrete-action-nan",
        "continuous-action-nan", "discrete-action-inf", "continuous-action-inf", "action-max-nan",
    ],
)
def test_non_finite_number_rejected(tmp_path, mutate):
    with pytest.raises(ValidationError):
        load_dataset(_write_doc(tmp_path, mutate))


def test_parse_failure_has_context(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"feature_schema": {,}')
    with pytest.raises(FormatError, match="line 1"):
        load_dataset(path)


def test_missing_key_reported(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"feature_schema": {}, "trajectories": []}))
    with pytest.raises(FormatError, match="action_schema"):
        load_dataset(path)


def test_normal_range_requires_interval():
    dataset = make_dataset(
        [Trajectory("p", [make_step(0, {"f1": 0.5}), make_step(1, {"f1": 0.5})], True, 5.0)]
    )
    dataset.feature_schema["f1"] = FeatureSpec(0.0, 1.0, FeatureType.NORMAL_RANGE, None)
    with pytest.raises(ValidationError, match="healthy_interval"):
        dataset.validate()


def test_observation_staleness_must_be_nonnegative():
    traj = Trajectory(
        "p",
        [
            make_step(0, {"f1": 0.5}),
            make_step(1, {"f1": 0.5}),
        ],
        True,
        5.0,
    )
    traj.steps[1].observations["f1"] = Observation(value=0.5, staleness=-1)
    with pytest.raises(ValidationError, match="staleness negative"):
        make_dataset([traj]).validate()


def test_continuous_action_magnitudes_round_trip(tmp_path):
    from tridrive.model import ActionSpec

    traj = Trajectory(
        "p",
        [
            make_step(0, {"f1": 0.5}, action={"flow": 32.5}),
            make_step(1, {"f1": 0.5}, action={"flow": 0.0}),
        ],
        True,
        5.0,
    )
    dataset = make_dataset([traj])
    dataset.action_schema["flow"] = ActionSpec(max_value=60.0, discrete=False)
    path = tmp_path / "d.json"
    save_dataset(dataset, path)
    loaded = load_dataset(path)
    assert loaded == dataset
    assert loaded.trajectories[0].steps[0].action["flow"] == 32.5


def test_trajectory_order_preserved(tmp_path):
    trajs = [
        Trajectory(f"p{i}", [make_step(0, {"f1": 0.5}), make_step(1, {"f1": 0.5})], True, 5.0)
        for i in (3, 1, 2)
    ]
    path = tmp_path / "d.json"
    save_dataset(make_dataset(trajs), path)
    assert [t.patient_id for t in load_dataset(path).trajectories] == ["p3", "p1", "p2"]
