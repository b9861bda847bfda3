from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tridrive.errors import FormatError
from tridrive.fitness import CompMetricConfig
from tridrive.jsonio import fields_from_json, from_json, to_json, write_bytes
from tridrive.llm import LlmClientConfig
from tridrive.model import ActionSpec, FeatureSpec, FeatureType
from tridrive.pipeline import SPLIT_NAMES, PipelineConfig, pipeline_config_from_json
from tridrive.rewards import (
    RewardSpec, SurvivalConfig, SurvivalForm, reward_spec_from_json, reward_spec_to_json,
    save_reward_spec,
)
from tridrive.synth import CohortConfig, reference_spec

DATA = Path(__file__).parent / "data"


@dataclass
class _Counted:
    x: int = 0


@dataclass
class _Named:
    x: str = ""


def test_each_class_is_checked_against_its_own_hints():
    # Same field name, different types: whichever class is parsed first, the
    # other must not be checked against its hints.
    for _ in range(2):
        assert fields_from_json(_Counted, {"x": 3}, "counted") == {"x": 3}
        assert fields_from_json(_Named, {"x": "s"}, "named") == {"x": "s"}
        with pytest.raises(FormatError, match="^counted: x must be an integer, got 's'$"):
            fields_from_json(_Counted, {"x": "s"}, "counted")
        with pytest.raises(FormatError, match="^named: x must be a string, got 3$"):
            fields_from_json(_Named, {"x": 3}, "named")


# ---------------------------------------------------------------------------
# The codec: to_json writes what from_json reads back
# ---------------------------------------------------------------------------

_positive = st.floats(min_value=1e-6, max_value=1e6)
_unit = st.floats(min_value=0.0, max_value=1.0)
_ids = st.text(alphabet="abcdefgh_0123", min_size=1, max_size=6)


@st.composite
def _survival(draw):
    form = draw(st.sampled_from(SurvivalForm))
    if form in (SurvivalForm.BELL, SurvivalForm.ASYMMETRIC_ABOVE):
        params = {"mu": draw(_unit), "sigma": draw(_positive)}
    else:
        params = {"tau": draw(_positive)}
    return SurvivalConfig(form, **params, weight=draw(_positive))


@st.composite
def _reward_specs(draw):
    fids = draw(st.lists(_ids, max_size=5, unique=True))
    return RewardSpec(
        survival={fid: draw(_survival()) for fid in fids},
        confidence_tau={fid: draw(_positive) for fid in fids},
        action_max=draw(st.dictionaries(_ids, _positive, max_size=3)),
        decay_half_life=draw(_positive),
        gamma=draw(st.floats(min_value=1e-6, max_value=1.0)),
        lam=draw(st.floats(min_value=0.0, max_value=1e6)),
        action_cost_scale=draw(st.floats(min_value=0.0, max_value=1e6)),
        normalize_potential=draw(st.booleans()),
    )


_finite = st.floats(allow_nan=False, allow_infinity=False)
_feature_specs = st.builds(
    FeatureSpec, _finite, _finite, st.sampled_from(FeatureType),
    st.none() | st.tuples(_unit, _unit),
)
_action_specs = st.builds(ActionSpec, _positive, st.booleans())
_text = st.text(max_size=8)
_configs = st.builds(
    PipelineConfig,
    dataset=_text,
    client=st.sampled_from(["stub", "http"]),
    llm=st.builds(
        LlmClientConfig, _text, _text, _finite, _positive, st.integers(0, 9),
        st.floats(min_value=0.0, max_value=1e6),
    ),
    rounds=st.integers(1, 99),
    threshold=st.floats(min_value=1e-6, max_value=1.0),
    k=st.integers(1, 99),
    candidates=st.integers(1, 99),
    task=_text,
    probs=st.lists(_text, max_size=3),
    bootstrap=st.integers(1, 10**6),
    level=st.floats(min_value=1e-6, max_value=0.999),
    bins=st.integers(1, 99),
    seed=st.integers(0, 2**40),
    split=st.none() | st.sampled_from(["all", *SPLIT_NAMES]),
    metric=st.builds(
        CompMetricConfig, _positive, _positive, st.floats(min_value=0.0, max_value=1e6),
        st.sampled_from(["mean", "sum"]),
    ),
)


def _through_a_file(value):
    """to_json(value) as a file holds it and reads it back."""
    return json.loads(json.dumps(to_json(value), indent=2))


@settings(max_examples=200, deadline=None)
@given(_reward_specs())
def test_a_reward_spec_reads_back_equal(spec):
    assert from_json(_through_a_file(spec), RewardSpec, "reward spec", finite=False) == spec
    assert reward_spec_from_json(_through_a_file(spec)) == spec


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_ids, _feature_specs, max_size=4),
       st.dictionaries(_ids, _action_specs, max_size=4))
def test_schema_maps_read_back_equal(features, actions):
    features_read = from_json(_through_a_file(features), dict[str, FeatureSpec], "feature_schema")
    actions_read = from_json(
        _through_a_file(actions), dict[str, ActionSpec], "action_schema", finite=False
    )
    assert (features_read, actions_read) == (features, actions)


@settings(max_examples=200, deadline=None)
@given(_configs)
def test_a_pipeline_config_reads_back_equal(config):
    doc = _through_a_file(config)
    assert from_json(doc, PipelineConfig, "pipeline config") == config
    assert pipeline_config_from_json(doc) == config


def test_a_field_is_written_under_its_json_key_and_none_is_left_out():
    assert to_json(ActionSpec(4.0)) == {"max": 4.0, "discrete": True}
    assert to_json({"b": FeatureSpec(0.0, 1.0, FeatureType.DIRECTIONAL_LOW), "a": (1, 2)}) == {
        "a": [1, 2],
        "b": {"declared_min": 0.0, "declared_max": 1.0, "feature_type": "DirectionalLow"},
    }
    assert list(to_json(RewardSpec({}, {}, {}, lam=0.5))) == [
        "survival", "confidence_tau", "action_max", "decay_half_life", "gamma", "lambda",
        "action_cost_scale", "normalize_potential",
    ]


def test_the_reference_spec_file_is_pinned(tmp_path):
    path = tmp_path / "spec.json"
    save_reward_spec(reference_spec(CohortConfig()), path)
    assert path.read_bytes() == (DATA / "reference_spec.golden.json").read_bytes()


# A valid document for each reader, made afresh for each test.
_DOCS = {
    reward_spec_from_json: lambda: reward_spec_to_json(reference_spec(CohortConfig())),
    pipeline_config_from_json: lambda: {"dataset": "d", "llm": {}, "metric": {}},
}


@pytest.mark.parametrize(
    "read, edit, message",
    [
        (reward_spec_from_json, lambda d: d["survival"]["hi0"].update(form="zig"),
         r"reward spec: survival\['hi0'\]: unknown form 'zig'"),
        (reward_spec_from_json, lambda d: d["survival"]["nr0"].update(shape=1),
         r"reward spec: survival\['nr0'\]: unknown keys \['shape'\]"),
        (pipeline_config_from_json, lambda d: d["llm"].update(model=3),
         r"pipeline config: llm: model must be a string, got 3"),
        (pipeline_config_from_json, lambda d: d["metric"].update(beta=1.0),
         r"pipeline config: metric: unknown keys \['beta'\]"),
    ],
    ids=["spec-enum", "spec-nested-key", "config-nested-type", "config-nested-key"],
)
def test_a_bad_nested_value_names_its_document(read, edit, message):
    doc = _DOCS[read]()
    edit(doc)
    with pytest.raises(FormatError, match=f"^{message}$"):
        read(doc)


def _count_mkdirs(monkeypatch) -> list:
    made, real = [], os.mkdir
    monkeypatch.setattr(os, "mkdir", lambda path, *a, **k: made.append(path) or real(path, *a, **k))
    return made


def test_a_write_into_a_missing_directory_makes_it(tmp_path, monkeypatch):
    made = _count_mkdirs(monkeypatch)
    path = tmp_path / "a" / "b" / "doc.json"
    assert write_bytes(path, b"x", b"y") == path
    assert path.read_bytes() == b"xy"
    assert made
    # Into a directory that is there, no directory is made or probed.
    made.clear()
    write_bytes(path, b"z")
    assert (path.read_bytes(), made) == (b"z", [])


@pytest.mark.parametrize("nested", [False, True], ids=["existing-dir", "missing-dir"])
def test_a_failed_write_leaves_no_temporary(tmp_path, nested):
    path = tmp_path / "a" / "doc.json" if nested else tmp_path / "doc.json"
    with pytest.raises(TypeError):
        write_bytes(path, b"x", "not bytes")
    assert not path.exists()
    assert list(path.parent.iterdir()) == []
