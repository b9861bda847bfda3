import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    COLUMN_MAGIC, binary_document, column_file, make_dataset, make_step, mutated_column_files,
    read_plain, split_column_file, write_plain,
)
from tridrive.errors import FormatError, TridriveError, ValidationError
from tridrive.model import (
    FeatureSpec,
    FeatureType,
    Observation,
    Step,
    Trajectory,
    dataset_from_json,
    dataset_to_json,
    load_dataset,
    save_dataset,
)
from tridrive.synth import CohortConfig, generate


def test_a_step_is_frozen_with_read_only_copies_of_its_mappings():
    observations, action = {"f1": Observation(0.5, 0)}, {"dose": 1}
    step = Step(0, 5.0, observations, action)
    observations["f1"], action["dose"] = Observation(0.9, 2), 3
    assert step == Step(0, 5.0, {"f1": Observation(0.5, 0)}, {"dose": 1})
    with pytest.raises(dataclasses.FrozenInstanceError):
        step.sofa = 9.0
    with pytest.raises(TypeError):
        step.action["dose"] = 2
    with pytest.raises(TypeError):
        step.observations["f2"] = Observation(0.5, 0)
    assert Step(1, 5.0, {}).action == {}
    changed = dataclasses.replace(step, action={**step.action, "flow": 2.5})
    assert (changed.action, step.action) == ({"dose": 1, "flow": 2.5}, {"dose": 1})


def test_a_trajectory_holds_a_copy_of_its_steps():
    steps = [make_step(t, {"f1": 0.5}) for t in range(2)]
    traj = Trajectory("p", steps, True, 5.0)
    dataset = make_dataset([traj])
    steps[1] = dataclasses.replace(steps[1], sofa=9.0)
    assert traj.steps == tuple(make_step(t, {"f1": 0.5}) for t in range(2))
    assert [s.sofa for s in dataset.trajectories[0].steps] == dataset.columns.sofa.tolist()
    assert dataset.columns.sofa.tolist() == [5.0, 5.0]
    assert dataset.columns.steps(0) == traj.steps


def test_round_trip_equality(two_patient_dataset, tmp_path):
    path = tmp_path / "data.json"
    save_dataset(two_patient_dataset, path)
    assert load_dataset(path) == two_patient_dataset


def test_round_trip_is_byte_stable(two_patient_dataset, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_dataset(two_patient_dataset, p1)
    save_dataset(load_dataset(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    raw = p1.read_bytes()
    assert raw.startswith(COLUMN_MAGIC) and raw.count(b"\n", 0, raw.index(b"\n") + 1) == 1
    assert raw == column_file(*binary_document(read_plain(p1)))


def test_round_trip_500_patient_cohort(tmp_path):
    dataset = generate(CohortConfig(n_patients=500, seed=11))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_dataset(dataset, p1)
    reloaded = load_dataset(p1)
    assert reloaded == dataset
    save_dataset(reloaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    # Format 4 is smaller than format 3 was (2,436,787 bytes for a 500-patient
    # seed-0 cohort; format 2, 2,749,184 bytes for this one).
    assert p1.stat().st_size < 2_000_000


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
    actions), apply mutate to the plain form of its file (see
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
    doc = read_plain(path)
    mutate(doc)
    write_plain(path, doc)
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
    path.write_bytes(COLUMN_MAGIC + b'{"feature_schema": {,}      \n')
    with pytest.raises(FormatError, match="invalid header.*line 1"):
        load_dataset(path)


def test_missing_key_reported(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(column_file(*binary_document(
        {"feature_schema": {}, "patient_id": [], "offsets": [0], "t": []}
    )))
    with pytest.raises(FormatError, match="missing key 'action_schema'"):
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
            make_step(1, {"f1": 0.5}, {"f1": -1}),
        ],
        True,
        5.0,
    )
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
    with pytest.raises(FormatError, match="one-object-per-row format.*regenerate it in format 4"):
        load_dataset(path)


def test_format_2_file_rejected(tmp_path):
    path = tmp_path / "v2.json"
    path.write_text(json.dumps({"format": 2, "feature_schema": {}, "action_schema": {},
                                "patient_id": [], "offsets": [0], "t": []}))
    with pytest.raises(FormatError, match="format-2 file .numbers as JSON text.*regenerate"):
        load_dataset(path)


def test_format_3_file_rejected(tmp_path):
    path = tmp_path / "v3.json"
    path.write_text('{"format":3,"feature_schema":{},"action_schema":{},"patient_id":[],'
                    '"offsets":"AAAAAA==","t":""}\n')
    with pytest.raises(FormatError, match="format-3 file .columns as base64 text in JSON.*"
                                          "regenerate it in format 4"):
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
        (lambda d: d["feature_schema"]["f1"].update(feature_type="Flat"),
         r"^feature_schema\['f1'\]: unknown feature_type 'Flat'$"),
        (lambda d: d["action_schema"].update(drug_a={"max": "4"}), "max must be a number"),
        (lambda d: d.update(action_schema=[]), "action_schema must be an object"),
        (lambda d: d.pop("patient_id"), "missing key 'patient_id'"),
    ],
)
def test_malformed_document_names_the_row(tmp_path, mutate, message):
    with pytest.raises(FormatError, match=message):
        load_dataset(_write_doc(tmp_path, mutate))


def _entry(header, name, cid=None):
    """The column table entry of column name (or name[cid])."""
    return next(e for e in header["columns"] if (e["name"], e.get("id")) == (name, cid))


def _shifted(header, data, name, by):
    """header and data with column name's buffer longer by `by` bytes (a
    multiple of 8), the columns after it moved along."""
    entry = _entry(header, name)
    end = entry["offset"] + entry["length"]
    entry["length"] += by
    for later in header["columns"]:
        if later["offset"] >= end and later is not entry:
            later["offset"] += by
    return header, data[:end] + bytes(by) + data[end:]


def _duplicated_last(header, data):
    last = dict(header["columns"][-1])
    header["columns"].append({**last, "offset": len(data)})
    return header, data + data[last["offset"] :]


@pytest.mark.parametrize(
    "mutate, edit, message",
    [
        (lambda d: d.update(t=bytes(5)), None, r"t has 5 bytes, expected 2 \(<i4"),
        (lambda d: d.update(offsets=bytes(4)), None, r"offsets has 1 entries, expected 2"),
        (lambda d: d.update(sofa_baseline=b""), None, "sofa_baseline has 0 entries, expected 1"),
        (lambda d: d.update(survived=b""), None, "survived has 0 bytes, expected 1 for 1 flags"),
        (lambda d: d.update(mask={"f1": bytes(2)}), None,
         r"mask\['f1'\] has 2 bytes, expected 1"),
        (lambda d: d.update(mask={}), None,
         "values and staleness must have the same feature columns"),
        (lambda d: d.update(action_mask={"drug_a": [True, False]}), None,
         "actions must have the same action columns as action_mask"),
        (lambda d: d.pop("t"), None, "missing column t"),
        (lambda d: d.update(offsets=np.array([5.0]).tobytes()), None,
         r"t has 2 entries, expected \d{10}"),
        (lambda d: d.update(t=bytes(4 * 1_000_001)), None, r"t has 1000001 entries, expected 2 \("),
        (None, lambda h, d: (_entry(h, "sofa").update(dtype="<i4"), (h, d))[1],
         "sofa has dtype <i4, expected <f8"),
        (None, lambda h, d: (_entry(h, "mask", "f1").update(dtype="<f8"), (h, d))[1],
         r"mask\['f1'\] has dtype <f8, expected bitmap"),
        (None, lambda h, d: (_entry(h, "t").update(dtype="<i8"), (h, d))[1],
         "t has dtype '<i8', not <i4, <f8 or bitmap"),
        (None, lambda h, d: (_entry(h, "sofa").update(offset=_entry(h, "t")["offset"]), (h, d))[1],
         r"sofa starts at byte \d+ of the buffers, expected \d+"),
        (None, lambda h, d: (_entry(h, "sofa").update(offset=_entry(h, "sofa")["offset"] + 4),
                             (h, d))[1], r"sofa starts at byte \d+ of the buffers, expected \d+"),
        (None, lambda h, d: (h["columns"][-1].update(length=2**40), (h, d))[1],
         r"mask\['f1'\] ends at byte \d{13} of the buffers, past their end at byte \d+"),
        (None, lambda h, d: (_entry(h, "t").update(length=-8), (h, d))[1],
         "t offset and length must be whole numbers >= 0"),
        (None, lambda h, d: (_entry(h, "t").update(offset=True), (h, d))[1],
         "t offset and length must be whole numbers >= 0"),
        (None, lambda h, d: (h, d + bytes(8)),
         r"the columns fill \d+ bytes of buffers, the file has"),
        (None, lambda h, d: (h, d[:-8]), r"mask\['f1'\] ends at byte \d+ of the buffers, past"),
        (None, lambda h, d: _shifted(h, d, "sofa", 8), r"sofa has 3 entries, expected 2"),
        (None, _duplicated_last, r"column mask\['f1'\] appears more than once"),
        (None, lambda h, d: (h.update(columns={}), (h, d))[1], "columns must be an array"),
        (None, lambda h, d: (h.pop("columns"), (h, d))[1], "missing key 'columns'"),
        (None, lambda h, d: (h["columns"].__setitem__(0, "t"), (h, d))[1],
         r"columns\[0\] must be an object of name, dtype, offset, length"),
        (None, lambda h, d: (h["columns"][0].update(rows=2), (h, d))[1],
         r"columns\[0\] must be an object"),
        (None, lambda h, d: (h["columns"][0].update(id=3), (h, d))[1],
         r"columns\[0\] name and id must be strings"),
        (None, lambda h, d: (h["columns"][0].update(id=None), (h, d))[1],
         r"columns\[0\] name and id must be strings"),
    ],
    ids=["partial-entry", "short-offsets", "empty-buffer", "empty-bitmap", "long-bitmap",
         "missing-mask", "mask-without-column", "missing-t", "offsets-of-another-dtype", "long-buffer-counted-exactly",
         "wrong-dtype", "bitmap-of-another-dtype", "unknown-dtype", "overlapping-columns",
         "misaligned-column", "length-past-the-end", "negative-length", "offset-not-a-number",
         "trailing-bytes", "truncated-buffers", "long-buffer-moved-along", "duplicate-column",
         "columns-not-an-array", "no-column-table", "entry-not-an-object", "entry-extra-key",
         "id-not-a-string", "id-null"],
)
def test_malformed_column_is_format_error(tmp_path, mutate, edit, message):
    path = _write_doc(tmp_path, mutate or (lambda d: None))
    header, data = split_column_file(path.read_bytes())
    if edit is not None:
        header, data = edit(header, data)
    path.write_bytes(column_file(header, data))
    with pytest.raises(FormatError, match=message):
        load_dataset(path)


@pytest.mark.parametrize(
    "raw, message",
    [
        (COLUMN_MAGIC + b'{"columns": []}', "the header line has no end"),
        (COLUMN_MAGIC + b'{"columns": []}\n', "the buffers start at byte 35, not a multiple of 8"),
        (COLUMN_MAGIC + b"[]" + b" " * 2 + b"\n", "the header must be a JSON object"),
        (COLUMN_MAGIC + b'{"\xff": 1}    \n', "invalid header"),
        (COLUMN_MAGIC + b"[" * 100_004 + b"\n", "invalid header"),
        (b"TRIDRIVE COLUMNS 5\n", "not a format-4 column file"),
        (b"", "not a format-4 column file"),
    ],
    ids=["header-without-end", "unpadded-header", "header-not-an-object", "header-not-utf8",
         "header-nested-too-deep", "later-format", "empty-file"],
)
def test_malformed_header_is_format_error(tmp_path, raw, message):
    path = tmp_path / "d.json"
    path.write_bytes(raw)
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
@given(mutated_column_files(*_FUZZ_DATASET))
def test_fuzzed_document_parses_or_raises_toolkit_error(file):
    try:
        dataset_from_json(*file)
    except TridriveError:
        pass
