"""Format 4, the column files of datasets and probability tables.

Both kinds share one reader (tridrive.model.RaggedColumns), so each test
runs on both: whatever bytes a file holds, a load gives the file's value or
a TridriveError, never an IndexError, ValueError or MemoryError, and a
header that claims more than the file holds is refused before anything is
allocated for it. What a load gives is the saved value bit for bit, and
saving it again gives the same bytes.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    COLUMN_MAGIC,
    column_file,
    make_dataset,
    make_step,
    mutated_column_files,
    read_plain,
    split_column_file,
    write_plain,
)
from tridrive.errors import FormatError, TridriveError
from tridrive.model import Trajectory, load_dataset, save_dataset
from tridrive.ope import PolicyProbTable, load_prob_table, save_prob_table
from tridrive.synth import CohortConfig, generate

# Three patients of 3, 2 and 2 rows: 7 rows, an odd count, so that every
# row buffer of I4 and every bitmap ends in padding.
_DATASET = make_dataset(
    [
        Trajectory("p1", [make_step(0, {"f1": 0.5, "f2": 0.25}, action={"drug_a": 1}),
                          make_step(2, {"f1": 0.6, "f2": 0.5}, {"f2": 2}),
                          make_step(3, {"f1": 0.7, "f2": 0.5}, {"f2": 3}, action={"drug_a": 3})],
                   True, 5.0),
        Trajectory("p2", [make_step(0, {"f1": 0.1, "f2": 0.9}, sofa=7.5),
                          make_step(1, {"f1": 0.2, "f2": 0.8}, action={"drug_a": 2})], False, 7.5),
        Trajectory("p3", [make_step(4, {"f1": 1.0, "f2": 0.0}),
                          make_step(9, {"f1": 0.0, "f2": 1.0})], True, 0.0),
    ],
    action_max={"drug_a": 4.0},
)
_TABLE = PolicyProbTable({("p1", 0): (0.5, 0.5), ("p1", 2): (0.25, 0.75), ("p2", 0): (1.0, 1.0)})

KINDS = {
    "dataset": (save_dataset, load_dataset, _DATASET),
    "table": (save_prob_table, load_prob_table, _TABLE),
}
kinds = pytest.mark.parametrize("kind", list(KINDS))


def _saved(tmp_path, kind):
    save, _, value = KINDS[kind]
    path = tmp_path / f"{kind}.json"
    save(value, path)
    return path


def _loads_or_refuses(load, path):
    """load(path), or None where it raises a TridriveError."""
    try:
        return load(path)
    except TridriveError:
        return None


# -- round trips ------------------------------------------------------------


@kinds
def test_save_load_save_is_byte_stable(tmp_path, kind):
    save, load, value = KINDS[kind]
    path = _saved(tmp_path, kind)
    loaded = load(path)
    assert loaded == value
    save(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


@kinds
def test_buffers_are_aligned_and_padded_with_zeros(tmp_path, kind):
    raw = _saved(tmp_path, kind).read_bytes()
    header, data = split_column_file(raw)
    assert raw.startswith(COLUMN_MAGIC) and (len(raw) - len(data)) % 8 == 0
    end = 0
    for entry in header["columns"]:
        assert entry["offset"] % 8 == 0
        assert data[end : entry["offset"]] == bytes(entry["offset"] - end)
        end = entry["offset"] + entry["length"]
    assert data[end:] == bytes(len(data) - end) and len(data) % 8 == 0
    # The odd row count leaves padding after the I4 and bitmap row columns.
    assert any(e["length"] % 8 for e in header["columns"] if e["name"] == "t")


def test_loaded_dataset_columns_equal_the_originals_bit_for_bit(tmp_path):
    dataset = generate(CohortConfig(n_patients=9, seed=4))
    save_dataset(dataset, tmp_path / "d.json")
    original, loaded = dataset.columns, load_dataset(tmp_path / "d.json").columns
    for name in ("t", "sofa", "values", "staleness", "mask", "actions", "action_mask",
                 "offsets"):
        a, b = getattr(original, name), getattr(loaded, name)
        assert a.dtype.kind == b.dtype.kind and a.shape == b.shape, name
        assert np.asarray(a, b.dtype).tobytes() == b.tobytes(), name
    assert (loaded.feature_ids, loaded.action_ids, loaded.whole) == (
        original.feature_ids, original.action_ids, original.whole)


def test_loaded_table_columns_equal_the_originals_bit_for_bit(tmp_path):
    save_prob_table(_TABLE, tmp_path / "t.json")
    loaded = load_prob_table(tmp_path / "t.json").columns
    assert loaded.spans == _TABLE.columns.spans
    for a, b in zip(_TABLE.columns[1:], loaded[1:]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_empty_dataset_round_trips(tmp_path):
    empty = dataclasses.replace(_DATASET, trajectories=[])
    save_dataset(empty, tmp_path / "a.json")
    loaded = load_dataset(tmp_path / "a.json")
    assert loaded.trajectories == () and loaded.feature_schema == _DATASET.feature_schema
    save_dataset(loaded, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_table_patient_with_no_rows_round_trips(tmp_path):
    path = tmp_path / "a.json"
    write_plain(path, {"patient_id": ["p2", "p0", "p1"], "offsets": [0, 1, 1, 3],
                       "t": [1, 0, 3], "p_eval": [0.5, 0.25, 1.0], "p_behavior": [0.5, 0.5, 1.0]})
    loaded = load_prob_table(path)
    assert loaded.columns.spans == {"p2": (0, 1), "p0": (1, 1), "p1": (1, 3)}
    save_prob_table(loaded, tmp_path / "b.json")
    again = load_prob_table(tmp_path / "b.json")
    assert again == loaded and read_plain(tmp_path / "b.json")["patient_id"] == ["p1", "p2"]
    save_prob_table(again, tmp_path / "c.json")
    assert (tmp_path / "b.json").read_bytes() == (tmp_path / "c.json").read_bytes()


# -- malformed files ----------------------------------------------------------


@kinds
def test_every_truncation_is_format_error(tmp_path, kind):
    _, load, _ = KINDS[kind]
    raw = _saved(tmp_path, kind).read_bytes()
    cut = tmp_path / "cut.json"
    # Every length short of the whole file: in the magic line, in the
    # header, and at and between the buffer boundaries.
    for size in range(len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(FormatError):
            load(cut)


@kinds
def test_header_claiming_2_to_the_40_rows_is_refused_before_allocating(tmp_path, kind):
    _, load, _ = KINDS[kind]
    path = _saved(tmp_path, kind)
    header, data = split_column_file(path.read_bytes())
    # Every row column claims 2**40 entries and follows the one before it,
    # as in a file that held them all.
    rows, end = 2**40, 0
    for entry in header["columns"]:
        if entry["name"] not in ("offsets", "survived", "sofa_baseline"):
            entry["length"] = int({"<i4": 4, "<f8": 8, "bitmap": 1 / 8}[entry["dtype"]] * rows)
        entry["offset"] = end + -end % 8
        end = entry["offset"] + entry["length"]
    path.write_bytes(column_file(header, data))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="past their end"):
            load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * len(path.read_bytes()) + 2**20


_FILE_SETTINGS = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@kinds
@_FILE_SETTINGS
@given(raw=st.binary(max_size=400) | st.binary(max_size=400).map(COLUMN_MAGIC.__add__))
def test_any_bytes_load_or_raise_toolkit_error(tmp_path, kind, raw):
    path = tmp_path / "any.json"
    path.write_bytes(raw)
    _loads_or_refuses(KINDS[kind][1], path)


@kinds
@_FILE_SETTINGS
@given(data=st.data())
def test_mutated_file_loads_or_raises_toolkit_error(tmp_path, kind, data):
    _, load, _ = KINDS[kind]
    path = _saved(tmp_path, kind)
    header, buffers = split_column_file(path.read_bytes())
    path.write_bytes(column_file(*data.draw(mutated_column_files(header, buffers))))
    _loads_or_refuses(load, path)
