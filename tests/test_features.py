import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ScriptedLlmClient, make_dataset, make_step
from tridrive.errors import (
    ConfigError,
    FormatError,
    PipelineError,
    ValidationError,
)
from tridrive.features import (
    CohortSummary,
    FeatureMetadata,
    SelectionRound,
    build_feature_prompt,
    build_reward_prompt,
    compute_metadata,
    ensemble_vote,
    parse_reward_response,
    parse_selection_response,
    run_selection,
    summarize_dataset,
)
from tridrive.model import Trajectory

DATA = Path(__file__).parent / "data"

GOLDEN_METADATA = [
    FeatureMetadata("hr", 412, 0.512345, 0.101234, 0.0821, 0.4312, {"vaso": -0.1201}, 0.44, 0.51, 0.58, 0.14),
    FeatureMetadata("lactate", 398, 0.201111, 0.154321, 0.1504, -0.6105, {"vaso": 0.3307}, 0.09, 0.17, 0.31, 0.22),
    FeatureMetadata("map", 405, 0.498765, 0.087654, 0.0533, 0.2208, {"vaso": None}, 0.45, 0.5, 0.55, 0.1),
]
GOLDEN_SUMMARY = CohortSummary(n_patients=120, n_records=3600, mortality_rate=0.275)


def _selection_json(*names):
    return json.dumps(
        {"critical_state_features": [{"feature_name": n, "rationale": f"{n} matters"} for n in names]}
    )


class TestComputeMetadata:
    def _hand_dataset(self):
        # 2 patients x 2 steps; f1 takes the values 0.1, 0.2, 0.3, 0.4, all
        # fresh; f2 is constant with one stale (forward-filled) step
        t1 = Trajectory(
            "p1",
            [
                make_step(0, {"f1": 0.1, "f2": 0.7}, action={"drug_a": 0}),
                make_step(1, {"f1": 0.2, "f2": 0.7}, {"f2": 3}, action={"drug_a": 1}),
            ],
            True,
            5.0,
        )
        t2 = Trajectory(
            "p2",
            [
                make_step(0, {"f1": 0.3, "f2": 0.7}, action={"drug_a": 2}),
                make_step(1, {"f1": 0.4, "f2": 0.7}, action={"drug_a": 3}),
            ],
            False,
            5.0,
        )
        return make_dataset([t1, t2])

    def test_hand_computed_statistics(self):
        meta = {m.feature_id: m for m in compute_metadata(self._hand_dataset())}
        f1 = meta["f1"]
        assert f1.count == 4
        assert f1.mean == pytest.approx(0.25, abs=1e-12)
        # population standard deviation of {0.1, 0.2, 0.3, 0.4}
        assert f1.std == pytest.approx(math.sqrt(0.0125), abs=1e-12)
        assert (f1.q25, f1.median, f1.q75) == pytest.approx((0.175, 0.25, 0.325), abs=1e-12)
        assert f1.iqr == pytest.approx(0.15, abs=1e-12)
        assert f1.missingness == 0.0

    def test_missingness_from_staleness(self):
        meta = {m.feature_id: m for m in compute_metadata(self._hand_dataset())}
        assert meta["f2"].missingness == pytest.approx(0.25)
        assert meta["f2"].count == 3

    def test_constant_feature_has_undefined_correlations(self):
        meta = {m.feature_id: m for m in compute_metadata(self._hand_dataset())}
        assert meta["f2"].rho_outcome is None
        assert meta["f2"].rho_action["drug_a"] is None

    def test_feature_tracking_action_has_unit_correlation(self):
        meta = {m.feature_id: m for m in compute_metadata(self._hand_dataset())}
        # f1 = 0.1 * (drug_a level + 1): exactly linear in the dose
        assert meta["f1"].rho_action["drug_a"] == pytest.approx(1.0, abs=1e-12)

    def test_outcome_correlation_broadcasts_steps(self):
        meta = {m.feature_id: m for m in compute_metadata(self._hand_dataset())}
        # survivors carry the low f1 values: negative correlation
        assert meta["f1"].rho_outcome == pytest.approx(-0.894427190999916, abs=1e-9)

    def test_summary(self):
        summary = summarize_dataset(self._hand_dataset())
        assert summary.n_patients == 2
        assert summary.n_records == 4
        assert summary.mortality_rate == 0.5
        assert summary.avg_records == 2.0


class TestPrompts:
    def test_golden_feature_prompt(self):
        prompt = build_feature_prompt(GOLDEN_METADATA, "sepsis treatment", GOLDEN_SUMMARY, k=2)
        assert prompt == (DATA / "feature_prompt.golden.txt").read_text()

    def test_prompt_deterministic(self):
        a = build_feature_prompt(GOLDEN_METADATA, "sepsis treatment", GOLDEN_SUMMARY, k=2)
        b = build_feature_prompt(GOLDEN_METADATA, "sepsis treatment", GOLDEN_SUMMARY, k=2)
        assert a == b

    def test_action_section_omitted_without_actions(self):
        metadata = [
            FeatureMetadata("hr", 10, 0.5, 0.1, 0.0, 0.4, {}, 0.4, 0.5, 0.6, 0.2)
        ]
        prompt = build_feature_prompt(metadata, "care", GOLDEN_SUMMARY)
        assert "ACTION-FEATURE CORRELATIONS" not in prompt

    def test_reward_prompt_lists_actions_and_features(self):
        prompt = build_reward_prompt(
            GOLDEN_METADATA, "sepsis treatment", GOLDEN_SUMMARY,
            {"vaso": 4.0, "fluid": 4.0}, {"vaso": True, "fluid": True},
        )
        assert "- vaso: 0..4 (discrete levels)" in prompt
        assert "Feature: lactate" in prompt
        assert '"confidence_tau"' in prompt


class TestParseSelection:
    KNOWN = {"hr", "lactate", "map", "f1", "f2", "f3", "f4", "f5", "f6", "f7"}

    def test_well_formed(self):
        rnd = parse_selection_response(
            _selection_json("f1", "f2", "f3", "f4", "f5", "f6", "f7"), self.KNOWN
        )
        assert len(rnd.selected) == 7
        assert rnd.rationales["f1"] == "f1 matters"

    def test_preamble_rejected(self):
        text = "Sure! Here is the JSON:\n" + _selection_json("hr")
        with pytest.raises(FormatError, match="not valid JSON"):
            parse_selection_response(text, self.KNOWN)

    def test_unknown_feature_rejected(self):
        with pytest.raises(ValidationError, match="age"):
            parse_selection_response(_selection_json("hr", "age"), self.KNOWN)

    def test_duplicate_rejected(self):
        with pytest.raises(ValidationError, match="twice"):
            parse_selection_response(_selection_json("hr", "hr"), self.KNOWN)

    def test_missing_key_rejected(self):
        with pytest.raises(FormatError, match="critical_state_features"):
            parse_selection_response('{"features": []}', self.KNOWN)

    def test_empty_list_rejected(self):
        with pytest.raises(FormatError, match="nonempty"):
            parse_selection_response('{"critical_state_features": []}', self.KNOWN)


class TestParseReward:
    def test_valid_spec(self):
        doc = {
            "survival": {"hr": {"form": "bell", "mu": 0.5, "sigma": 0.1, "weight": 1.0}},
            "confidence_tau": {"hr": 6.0},
            "action_max": {"vaso": 4.0},
        }
        spec = parse_reward_response(json.dumps(doc))
        assert spec.gamma == 0.99

    def test_prose_rejected(self):
        with pytest.raises(FormatError):
            parse_reward_response("here you go: {}")

    def test_unknown_key_rejected(self):
        doc = {"survival": {}, "confidence_tau": {}, "action_max": {}, "bonus": 1}
        with pytest.raises(FormatError, match="unknown keys"):
            parse_reward_response(json.dumps(doc))


def _rounds(*sets):
    return [
        SelectionRound(i, sorted(s), {f: "" for f in s}) for i, s in enumerate(sets)
    ]


class TestEnsembleVote:
    def test_unanimous(self):
        rounds = _rounds(*[{"a", "b"}] * 20)
        assert ensemble_vote(rounds, 0.6)[0] == {"a", "b"}

    def test_fifteen_of_twenty(self):
        rounds = _rounds(*([{"a"}] * 15 + [{"b"}] * 5))
        assert ensemble_vote(rounds, 0.6)[0] == {"a"}

    def test_counts_every_feature_in_id_order(self):
        rounds = _rounds(*([{"b"}] * 15 + [{"a", "b"}] * 5))
        assert ensemble_vote(rounds, 0.6) == ({"b"}, {"a": 5, "b": 20})
        assert list(ensemble_vote(rounds, 0.6)[1]) == ["a", "b"]

    def test_eleven_of_twenty_excluded(self):
        rounds = _rounds(*([{"a"}] * 11 + [{"b"}] * 9))
        assert ensemble_vote(rounds, 0.6)[0] == set()

    def test_exact_threshold_included(self):
        rounds = _rounds(*([{"a"}] * 12 + [{"b"}] * 8))
        assert ensemble_vote(rounds, 0.6)[0] == {"a"}

    def test_threshold_validated(self):
        with pytest.raises(ConfigError):
            ensemble_vote(_rounds({"a"}), 1.5)

    @given(st.floats(min_value=0.05, max_value=1.0), st.floats(min_value=0.05, max_value=1.0))
    def test_monotone_in_threshold(self, t1, t2):
        lo, hi = sorted((t1, t2))
        rounds = _rounds({"a"}, {"a", "b"}, {"b", "c"}, {"a", "c"}, {"a"})
        assert ensemble_vote(rounds, hi)[0] <= ensemble_vote(rounds, lo)[0]


def _wide_dataset(n_features=14):
    fids = [f"f{i:02d}" for i in range(n_features)]
    rng = np.random.default_rng(0)
    trajs = []
    for p in range(4):
        steps = [
            make_step(t, {fid: float(rng.random()) for fid in fids}) for t in range(3)
        ]
        trajs.append(Trajectory(f"p{p}", steps, p % 2 == 0, 5.0))
    return make_dataset(trajs)


class TestRunSelection:
    def test_fixed_set_every_round(self, tmp_path):
        ds = _wide_dataset()
        fixed = ["f00", "f01", "f02", "f03", "f04", "f05", "f06"]
        client = ScriptedLlmClient([_selection_json(*fixed)])
        outcome = run_selection(ds, client, n_rounds=6, threshold=0.6, audit_dir=tmp_path)
        assert outcome.selected == set(fixed)

    def test_alternating_disjoint_sets_vote_empty(self):
        ds = _wide_dataset()
        a = [f"f{i:02d}" for i in range(7)]
        b = [f"f{i:02d}" for i in range(7, 14)]
        client = ScriptedLlmClient([_selection_json(*a), _selection_json(*b)])
        outcome = run_selection(ds, client, n_rounds=20, threshold=0.6)
        assert outcome.selected == set()

    def test_thirteen_of_twenty_included(self):
        ds = _wide_dataset()
        with_f0 = _selection_json("f00", "f01")
        without_f0 = _selection_json("f01")
        responses = [with_f0] * 13 + [without_f0] * 7
        client = ScriptedLlmClient(responses, cycle=False)
        outcome = run_selection(ds, client, n_rounds=20, threshold=0.6)
        assert "f00" in outcome.selected
        assert outcome.votes["f00"] == 13

    def test_audit_log_reconstructs_vote(self, tmp_path):
        ds = _wide_dataset()
        a = [f"f{i:02d}" for i in range(7)]
        b = [f"f{i:02d}" for i in range(5, 12)]
        client = ScriptedLlmClient([_selection_json(*a), _selection_json(*b)])
        outcome = run_selection(ds, client, n_rounds=10, threshold=0.6, audit_dir=tmp_path)
        files = sorted(tmp_path.glob("round_*.json"))
        assert len(files) == 10
        rebuilt = []
        for f in files:
            doc = json.loads(f.read_text())
            rnd = parse_selection_response(
                doc["response"], ds.feature_schema, round_index=doc["round_index"]
            )
            assert rnd.selected == doc["selected"]
            rebuilt.append(rnd)
        assert ensemble_vote(rebuilt, 0.6) == (outcome.selected, outcome.votes)

    def test_failed_round_leaves_audit_evidence(self, tmp_path):
        ds = _wide_dataset()
        client = ScriptedLlmClient([_selection_json("f00"), "garbage"], cycle=False)
        with pytest.raises(FormatError):
            run_selection(ds, client, n_rounds=2, threshold=0.6, audit_dir=tmp_path)
        doc = json.loads((tmp_path / "round_001.json").read_text())
        assert doc["response"] == "garbage"
        assert "error" in doc

    def test_client_failure_reports_partial_progress(self):
        ds = _wide_dataset()
        ok = _selection_json("f00", "f01")
        client = ScriptedLlmClient([ok, ok, ok], cycle=False)
        with pytest.raises(PipelineError, match="completed 3 of 5"):
            run_selection(ds, client, n_rounds=5, threshold=0.6)

    def test_round_count_validated(self):
        with pytest.raises(ConfigError):
            run_selection(_wide_dataset(), ScriptedLlmClient(["{}"]), n_rounds=0)
