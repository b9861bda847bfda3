import base64
import dataclasses
import json

import pytest
from hypothesis import given, settings

from conftest import binary_document, make_dataset, make_step, mutated_documents, plain_document
from tridrive.errors import FormatError, TridriveError, ValidationError
from tridrive.model import (
    FeatureSpec,
    FeatureType,
    Observation,
    Trajectory,
    dataset_from_json,
    dataset_to_json,
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
    text = p1.read_text()
    assert text.startswith('{"format":3,') and text.count("\n") == 1 and ", " not in text


def test_round_trip_500_patient_cohort(tmp_path):
    dataset = generate(CohortConfig(n_patients=500, seed=11))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_dataset(dataset, p1)
    reloaded = load_dataset(p1)
    assert reloaded == dataset
    save_dataset(reloaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    # Format 3 is smaller than format 2 was (2,749,184 bytes for this cohort).
    assert p1.stat().st_size < 2_500_000


def test_empty_trajectory_list_is_valid(tmp_path):
    dataset = make_dataset(
        [
            Trajectory(
                "p", [make_step(0, {"f1": 0.1}), make_step(1, {"f1": 0.2})], True, 5.0
            )
        ]
    )
    dataset = dataclasses.replace(dataset, trajectories=[])
    path = tmp_path / "empty.json"
    save_dataset(dataset, path)
    assert load_dataset(path).trajectories == ()


def _write_doc(tmp_path, mutate):
    """Save a one-patient dataset (steps t=0 and t=1, feature f1, no
    actions), apply mutate to the plain form of its document (see
    conftest.plain_document) and write it back."""
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
    doc = plain_document(json.loads(path.read_text()))
    mutate(doc)
    path.write_text(json.dumps(binary_document(doc)))
    return path


def _row_columns(doc):
    """Every row column of a plain dataset document."""
    return [doc["t"], doc["sofa"]] + [
        col for group in ("values", "staleness", "actions") for col in doc[group].values()
    ]


def test_value_out_of_range_rejected(tmp_path):
    path = _write_doc(tmp_path, lambda d: d["values"]["f1"].__setitem__(0, 1.3))
    with pytest.raises(ValidationError, match=r"value out of \[0,1\]"):
        load_dataset(path)


def test_duplicate_time_index_rejected(tmp_path):
    path = _write_doc(tmp_path, lambda d: d["t"].__setitem__(1, 0))
    with pytest.raises(ValidationError, match="non-increasing time index"):
        load_dataset(path)


def test_unknown_feature_rejected(tmp_path):
    def mutate(doc):
        doc["values"]["ghost"] = [0.5, 0.5]
        doc["staleness"]["ghost"] = [0, 0]

    with pytest.raises(ValidationError, match="not in feature_schema"):
        load_dataset(_write_doc(tmp_path, mutate))


def test_changing_feature_set_rejected(tmp_path):
    def mutate(doc):
        doc["values"]["f1"][1] = None
        doc["staleness"]["f1"][1] = None

    with pytest.raises(ValidationError, match="feature set changes"):
        load_dataset(_write_doc(tmp_path, mutate))


def test_single_step_trajectory_rejected(tmp_path):
    def mutate(doc):
        doc["offsets"] = [0, 1]
        for col in _row_columns(doc):
            del col[1:]

    with pytest.raises(ValidationError, match=">= 2 steps"):
        load_dataset(_write_doc(tmp_path, mutate))


def test_action_over_max_rejected(tmp_path):
    def mutate(doc):
        doc["actions"] = {"drug_a": [9, None]}
        doc["action_schema"] = {"drug_a": {"max": 4, "discrete": True}}

    with pytest.raises(ValidationError, match="exceeds max"):
        load_dataset(_write_doc(tmp_path, mutate))


def _set_action(doc, level, discrete):
    doc["actions"] = {"drug_a": [level, None]}
    doc["action_schema"] = {"drug_a": {"max": 4, "discrete": discrete}}


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["sofa"].__setitem__(1, float("nan")),
        lambda d: d["sofa"].__setitem__(1, float("inf")),
        lambda d: d["sofa_baseline"].__setitem__(0, float("nan")),
        lambda d: d["sofa_baseline"].__setitem__(0, float("inf")),
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
    path.write_text(
        json.dumps(
            {"format": 3, "feature_schema": {}, "patient_id": [], "offsets": "AAAAAA==", "t": ""}
        )
    )
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


def test_earlier_format_rejected(tmp_path):
    path = tmp_path / "v1.json"
    path.write_text(json.dumps({"feature_schema": {}, "action_schema": {}, "trajectories": []}))
    with pytest.raises(FormatError, match='"format": 3'):
        load_dataset(path)


def test_format_2_file_rejected(tmp_path):
    path = tmp_path / "v2.json"
    path.write_text(json.dumps({"format": 2, "feature_schema": {}, "action_schema": {},
                                "patient_id": [], "offsets": [0], "t": []}))
    with pytest.raises(FormatError, match="format 2 .numbers as JSON text.*regenerate"):
        load_dataset(path)


def _two_patients(doc):
    """Split the one patient of _write_doc into patients p1 and p2, one row
    each (every row column keeps its two entries)."""
    doc.update(
        patient_id=["p1", "p2"], offsets=[0, 1, 2], survived=[True, False],
        sofa_baseline=[5.0, 5.0],
    )


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["sofa"].append(5.0), r"sofa has 3 entries, expected 2"),
        (lambda d: d["values"]["f1"].pop(), r"values\['f1'\] has 1 entries, expected 2"),
        (lambda d: d.update(offsets=[1, 2]), "offsets must start at 0"),
        (lambda d: (_two_patients(d), d.update(offsets=[0, 2, 1])), "patient 'p2': offsets decrease"),
        (lambda d: (_two_patients(d), d.update(patient_id=["p1", "p1"])), "'p1' appears more"),
        (lambda d: d["patient_id"].__setitem__(0, 7), "patient_id must be a string"),
        (lambda d: d.update(staleness={}), "values and staleness must have the same"),
        (lambda d: d.update(actions=[]), "actions must be an object"),
        (lambda d: d["feature_schema"]["f1"].update(feature_type="Flat"), "unknown feature_type"),
        (lambda d: d["action_schema"].update(drug_a={"max": "4"}), "max must be a number"),
        (lambda d: d.update(format="3"), '"format": 3'),
    ],
)
def test_malformed_document_names_the_row(tmp_path, mutate, message):
    with pytest.raises(FormatError, match=message):
        load_dataset(_write_doc(tmp_path, mutate))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(sofa=[5.0, 5.0]), "sofa must be a base64 string"),
        (lambda d: d["values"].update(f1=0), r"values\['f1'\] must be a base64 string"),
        (lambda d: d.update(t="AAAA!AAA"), "t is not valid base64"),
        (lambda d: d.update(t="AAAAAA"), "t is not valid base64"),
        (lambda d: d.update(t="AAAAAAA="), r"t has 5 bytes, expected 2 \(<i4"),
        (lambda d: d.update(offsets="AAAAAA=="), r"offsets has 1 entries, expected 2"),
        (lambda d: d.update(sofa_baseline=""), "sofa_baseline has 0 entries, expected 1"),
        (lambda d: d.update(survived=""), "survived has 0 bytes, expected 1 for 1 flags"),
        (lambda d: d["mask"].update(f1="AAA="), r"mask\['f1'\] has 2 bytes, expected 1"),
        (lambda d: d["mask"].pop("f1"), "values and staleness must have the same feature columns"),
        (lambda d: d.update(action_mask={"drug_a": "AA=="}), "actions must have the same action"),
        (lambda d: d.pop("t"), "missing key 't'"),
        (lambda d: d.update(offsets=d["sofa_baseline"]), r"t has 2 entries, expected \d{10}"),
        (lambda d: d.update(t=base64.b64encode(bytes(4 * 1_000_001)).decode()),
         r"t has 1000001 entries, expected 2 \("),
    ],
    ids=["non-string-buffer", "non-string-group-buffer", "bad-character", "bad-padding",
         "partial-entry", "short-offsets", "empty-buffer", "empty-bitmap", "long-bitmap",
         "missing-mask", "mask-without-column", "missing-t", "offsets-of-another-dtype",
         "long-buffer-counted-exactly"],
)
def test_malformed_column_is_format_error(tmp_path, mutate, message):
    path = _write_doc(tmp_path, lambda d: None)
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=message):
        load_dataset(path)


_FUZZ_DATASET = dataset_to_json(
    make_dataset(
        [
            Trajectory("p1", [make_step(0, {"f1": 0.5}, action={"drug_a": 1}),
                              make_step(2, {"f1": 0.6})], True, 5.0),
            Trajectory("p2", [make_step(0, {"f1": 0.1}, {"f1": 3}),
                              make_step(1, {"f1": 0.2}, action={"drug_a": 2}),
                              make_step(5, {"f1": 0.3})], False, 7.5),
        ]
    )
)


@settings(max_examples=300, deadline=None)
@given(mutated_documents(_FUZZ_DATASET))
def test_fuzzed_document_parses_or_raises_toolkit_error(doc):
    try:
        dataset_from_json(doc)
    except TridriveError:
        pass
