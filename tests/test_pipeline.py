import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import ScriptedLlmClient
from tridrive import ope as ope_module
from tridrive import pipeline as pipeline_module
from tridrive.errors import ConfigError, FormatError, LlmClientError, PipelineError
from tridrive.llm import StubLlmClient
from tridrive.model import Observation, Trajectory, load_dataset, save_dataset
from tridrive.ope import identity_prob_table, save_prob_table
from tridrive.pipeline import (
    STAGES,
    PipelineConfig,
    assign_split,
    features_stage,
    filter_split,
    generate_candidates,
    load_feature_ids,
    load_spec_dir,
    ope_stage,
    pareto_from_rows,
    pipeline_config_from_json,
    run_digest,
    run_pipeline,
    score_specs,
    sha256_file,
)
from tridrive.rewards import reward_spec_to_json
from tridrive.synth import CohortConfig, generate, reference_spec

SMALL = CohortConfig(n_patients=60, horizon_min=12, horizon_max=24, seed=5)


@pytest.fixture(scope="module")
def small_dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "cohort.json"
    save_dataset(generate(SMALL), path)
    return path


def _config(dataset_path, **overrides):
    base = dict(
        dataset=str(dataset_path), rounds=4, candidates=6, bootstrap=80, bins=5, seed=3
    )
    base.update(overrides)
    return PipelineConfig(**base)


class TestSplits:
    def test_assignment_deterministic(self):
        assert assign_split("patient-1") == assign_split("patient-1")

    def test_partition_complete_and_disjoint(self, small_dataset_path):
        ds = load_dataset(small_dataset_path)
        parts = {
            name: {t.patient_id for t in filter_split(ds, name).trajectories}
            for name in ("policy_train", "reward_train", "policy_test", "reward_test")
        }
        ids = [pid for part in parts.values() for pid in part]
        assert sorted(ids) == sorted(t.patient_id for t in ds.trajectories)

    def test_proportions_roughly_7111(self):
        counts = {"policy_train": 0, "reward_train": 0, "policy_test": 0, "reward_test": 0}
        for i in range(4000):
            counts[assign_split(f"p{i}")] += 1
        assert 0.65 <= counts["policy_train"] / 4000 <= 0.75
        for name in ("reward_train", "policy_test", "reward_test"):
            assert 0.06 <= counts[name] / 4000 <= 0.14

    def test_split_owns_its_block(self, small_dataset_path):
        loaded = load_dataset(small_dataset_path)
        built = dataclasses.replace(loaded, trajectories=[
            Trajectory(t.patient_id, t.steps, t.survived, t.sofa_baseline)
            for t in loaded.trajectories
        ])
        for ds in (loaded, built):
            split = filter_split(ds, "reward_train")
            kept = [t for t in ds.trajectories if assign_split(t.patient_id) == "reward_train"]
            assert kept and split.trajectories == tuple(kept)
            block = split.columns
            assert [t.block for t in split.trajectories] == [(block, k) for k in range(len(kept))]
            assert len(block.t) == sum(len(t.steps) for t in kept)
        others = [t for t in loaded.trajectories if assign_split(t.patient_id) != "reward_train"]
        none = filter_split(dataclasses.replace(loaded, trajectories=others), "reward_train")
        assert none.trajectories == ()

    def test_unknown_split_rejected(self, small_dataset_path):
        with pytest.raises(ConfigError):
            filter_split(load_dataset(small_dataset_path), "validation")


class TestGenerateCandidates:
    def test_quarantine_with_diagnostics(self, small_dataset_path, tmp_path):
        ds = load_dataset(small_dataset_path)
        good = json.dumps(reward_spec_to_json(reference_spec(SMALL)))
        responses = [good, "not json", good, '{"survival": {}}', "{}"]
        client = ScriptedLlmClient(responses, cycle=False)
        valid, quarantined = generate_candidates(
            ds, ds.feature_ids(), client, 5, tmp_path / "specs"
        )
        assert [sid for sid, _ in valid] == ["spec_000", "spec_002"]
        assert quarantined == 3
        qfiles = sorted((tmp_path / "specs" / "quarantine").glob("*.json"))
        assert len(qfiles) == 3
        doc = json.loads(qfiles[0].read_text())
        assert doc["candidate_index"] == 1
        assert "reason" in doc and doc["response"] == "not json"

    def test_spec_must_cover_selected_features(self, small_dataset_path, tmp_path):
        ds = load_dataset(small_dataset_path)
        spec = reference_spec(SMALL)
        spec = dataclasses.replace(
            spec,
            survival={fid: cfg for fid, cfg in spec.survival.items() if fid != "nr0"},
            confidence_tau={fid: tau for fid, tau in spec.confidence_tau.items() if fid != "nr0"},
        )
        client = ScriptedLlmClient([json.dumps(reward_spec_to_json(spec))])
        valid, quarantined = generate_candidates(
            ds, ds.feature_ids(), client, 1, tmp_path / "specs"
        )
        assert valid == [] and quarantined == 1

    def test_identical_run_identical_hashes(self, small_dataset_path, tmp_path):
        ds = load_dataset(small_dataset_path)
        for sub in ("a", "b"):
            generate_candidates(ds, ds.feature_ids(), StubLlmClient(), 4, tmp_path / sub)
        hashes_a = {p.name: sha256_file(p) for p in (tmp_path / "a").glob("*.json")}
        hashes_b = {p.name: sha256_file(p) for p in (tmp_path / "b").glob("*.json")}
        assert hashes_a == hashes_b

    @pytest.mark.parametrize("index", [[], {"valid": "spec_000"}, {"valid": [0]}])
    def test_load_spec_dir_rejects_malformed_index(self, tmp_path, index):
        spec = reward_spec_to_json(reference_spec(SMALL))
        (tmp_path / "spec_000.json").write_text(json.dumps(spec))
        (tmp_path / "index.json").write_text(json.dumps(index))
        with pytest.raises(FormatError, match="index.json"):
            load_spec_dir(tmp_path)

    def test_load_spec_dir_round_trip(self, small_dataset_path, tmp_path):
        ds = load_dataset(small_dataset_path)
        valid, _ = generate_candidates(ds, ds.feature_ids(), StubLlmClient(), 3, tmp_path)
        loaded = load_spec_dir(tmp_path)
        assert [sid for sid, _ in loaded] == [sid for sid, _ in valid]
        assert [s for _, s in loaded] == [s for _, s in valid]


class TestScoreAndPareto:
    def test_degenerate_spec_flagged_not_fatal(self, small_dataset_path):
        ds = load_dataset(small_dataset_path)
        spec = reference_spec(SMALL)
        rows = score_specs(ds, [("good", spec)])
        assert "error" not in rows[0]
        # identical trajectories force a constant reward: craft by scoring a
        # dataset with two clones
        clone = dataclasses.replace(ds, trajectories=[ds.trajectories[0]] * 3)
        rows = score_specs(clone, [("deg", spec)])
        assert rows[0]["spec_id"] == "deg" and "error" in rows[0]

    def test_spec_with_foreign_feature_flagged(self, small_dataset_path):
        ds = load_dataset(small_dataset_path)
        spec = reference_spec(CohortConfig(n_normal=4))  # nr3 does not exist here
        rows = score_specs(ds, [("foreign", spec)])
        assert rows[0]["spec_id"] == "foreign" and "error" in rows[0]

    def test_non_finite_return_flagged_not_fatal(self, small_dataset_path):
        ds = load_dataset(small_dataset_path)
        trajs = list(ds.trajectories)
        trajs[1] = dataclasses.replace(trajs[1], steps=[
            dataclasses.replace(step, observations={**step.observations, "nr0": Observation(math.nan, 0)})
            for step in trajs[1].steps
        ])
        ds = dataclasses.replace(ds, trajectories=trajs)
        rows = score_specs(ds, [("nan", reference_spec(SMALL))])
        assert rows == [{
            "spec_id": "nan",
            "error": "cumulative reward has a non-finite value; correlation undefined",
        }]

    def test_absent_selected_feature_names_patient_and_t(self, small_dataset_path):
        ds = load_dataset(small_dataset_path)
        trajs = list(ds.trajectories)
        traj = trajs[2] = dataclasses.replace(trajs[2], steps=[
            dataclasses.replace(step, observations={
                fid: obs for fid, obs in step.observations.items() if fid != "lo1"
            })
            for step in trajs[2].steps
        ])
        ds = dataclasses.replace(ds, trajectories=trajs)
        rows = score_specs(ds, [("ref", reference_spec(SMALL))], feature_ids=["nr0", "lo1"])
        assert rows == [{
            "spec_id": "ref",
            "error": f"patient {traj.patient_id!r}: feature 'lo1' absent at t={traj.steps[0].t}",
        }]

    def test_undeclared_action_names_patient_and_t(self, small_dataset_path):
        ds = load_dataset(small_dataset_path)
        spec = reference_spec(SMALL)
        spec = dataclasses.replace(
            spec, action_max={aid: mx for aid, mx in spec.action_max.items() if aid != "drug_b"}
        )
        traj, step = next(
            (traj, step)
            for traj in ds.trajectories
            for step in traj.steps[:-1]
            if "drug_b" in step.action
        )
        rows = score_specs(ds, [("undeclared", spec)])
        assert rows == [{
            "spec_id": "undeclared",
            "error": f"patient {traj.patient_id!r}: action 'drug_b' not declared in the reward "
                     f"spec's action_max at t={step.t}",
        }]

    def test_pareto_from_rows_skips_invalid(self):
        rows = [
            {"spec_id": "a", "j_surv": 0.9, "j_conf": 0.1, "j_comp": 0.5},
            {"spec_id": "b", "error": "degenerate"},
            {"spec_id": "c", "j_surv": 0.2, "j_conf": 0.9, "j_comp": 0.6},
        ]
        result = pareto_from_rows(rows)
        assert set(result.crowding) == {"a", "c"}

    def test_all_invalid_is_pipeline_error(self):
        with pytest.raises(PipelineError):
            pareto_from_rows([{"spec_id": "a", "error": "x"}])


class TestPipelineRun:
    def test_full_run_produces_champion_and_outputs(self, small_dataset_path, tmp_path):
        manifest = run_pipeline(_config(small_dataset_path), tmp_path / "run")
        assert manifest["champion"] is not None
        assert all(
            manifest["stages"][s]["status"] == "complete"
            for s in ("stats", "features", "candidates", "fitness", "selection", "ope")
        )
        out = tmp_path / "run"
        for rel in (
            "manifest.json",
            "stats/metadata.json",
            "features/report.json",
            "candidates/index.json",
            "fitness/report.json",
            "selection/report.json",
            "ope/wis.json",
            "ope/mortality_curve.csv",
        ):
            assert (out / rel).exists(), rel

    def test_two_runs_hash_identical(self, small_dataset_path, tmp_path):
        run_pipeline(_config(small_dataset_path), tmp_path / "r1")
        run_pipeline(_config(small_dataset_path), tmp_path / "r2")
        assert run_digest(tmp_path / "r1") == run_digest(tmp_path / "r2")

    def test_identical_rerun_is_noop(self, small_dataset_path, tmp_path):
        out = tmp_path / "run"
        run_pipeline(_config(small_dataset_path), out)
        stamps = {
            p: p.stat().st_mtime_ns for p in out.rglob("*.json") if "timing" not in p.name
        }
        run_pipeline(_config(small_dataset_path), out)
        after = {p: p.stat().st_mtime_ns for p in out.rglob("*.json") if "timing" not in p.name}
        assert stamps == after

    def test_failed_stage_resumes_without_recompute(self, small_dataset_path, tmp_path):
        out = tmp_path / "run"
        probs_path = tmp_path / "probs.json"
        config = _config(small_dataset_path, probs=[str(probs_path)])
        with pytest.raises(FormatError):
            run_pipeline(config, out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stages"]["selection"]["status"] == "complete"
        assert manifest["stages"]["ope"]["status"] == "failed"

        early = [
            out / "stats/metadata.json",
            out / "features/report.json",
            out / "fitness/report.json",
            out / "selection/report.json",
        ]
        stamps = {p: p.stat().st_mtime_ns for p in early}

        save_prob_table(identity_prob_table(load_dataset(small_dataset_path)), probs_path)
        manifest = run_pipeline(config, out)
        assert manifest["stages"]["ope"]["status"] == "complete"
        assert {p: p.stat().st_mtime_ns for p in early} == stamps

    def test_timing_records_load_and_skipped_stages(self, small_dataset_path, tmp_path):
        out = tmp_path / "run"
        run_pipeline(_config(small_dataset_path), out)
        fresh = json.loads((out / "timing.json").read_text())
        assert list(fresh["stage_seconds"]) == list(STAGES)
        assert fresh["skipped"] == []
        assert fresh["load_seconds"] > 0.0
        run_pipeline(_config(small_dataset_path), out)
        resumed = json.loads((out / "timing.json").read_text())
        assert resumed["stage_seconds"] == {}
        assert resumed["skipped"] == list(STAGES)
        assert resumed["load_seconds"] is None

    def test_timing_records_dataset_shape(self, small_dataset_path, tmp_path):
        out = tmp_path / "run"
        run_pipeline(_config(small_dataset_path), out)
        digest = run_digest(out)
        dataset = load_dataset(small_dataset_path)
        fresh = json.loads((out / "timing.json").read_text())
        assert fresh["dataset_shape"] == {
            "patients": SMALL.n_patients,
            "steps": sum(len(t.steps) for t in dataset.trajectories),
        }
        run_pipeline(_config(small_dataset_path), out)
        resumed = json.loads((out / "timing.json").read_text())
        assert resumed["load_seconds"] is None and resumed["dataset_shape"] is None
        # timing.json is volatile: the run digest does not read it.
        assert "timing.json" in pipeline_module.VOLATILE_FILES
        assert run_digest(out) == digest

    def test_split_run_records_the_split_shape(self, small_dataset_path, tmp_path):
        out = tmp_path / "run"
        run_pipeline(_config(small_dataset_path, split="policy_train"), out)
        kept = filter_split(load_dataset(small_dataset_path), "policy_train").trajectories
        shape = json.loads((out / "timing.json").read_text())["dataset_shape"]
        assert shape == {"patients": len(kept), "steps": sum(len(t.steps) for t in kept)}

    def test_resume_with_nothing_to_run_reads_no_dataset(
        self, small_dataset_path, tmp_path, monkeypatch
    ):
        out = tmp_path / "run"
        run_pipeline(_config(small_dataset_path), out)
        digest, manifest = run_digest(out), (out / "manifest.json").read_bytes()

        def no_load(path):
            raise AssertionError("dataset loaded")

        monkeypatch.setattr(pipeline_module, "load_dataset", no_load)
        run_pipeline(_config(small_dataset_path), out)
        assert run_digest(out) == digest
        assert (out / "manifest.json").read_bytes() == manifest
        assert json.loads((out / "timing.json").read_text())["load_seconds"] is None

        # Rerunning selection reruns ope too, which loads the dataset once.
        (out / "selection/report.json").unlink()
        loads = []
        monkeypatch.setattr(pipeline_module, "load_dataset", lambda path: loads.append(path)
                            or load_dataset(path))
        run_pipeline(_config(small_dataset_path), out)
        assert run_digest(out) == digest
        assert loads == [str(small_dataset_path)]
        assert json.loads((out / "timing.json").read_text())["skipped"] == list(STAGES[:4])

    def test_stale_stage_loads_dataset_once(self, small_dataset_path, tmp_path, monkeypatch):
        run_pipeline(_config(small_dataset_path), tmp_path / "whole")
        out = tmp_path / "run"
        run_pipeline(_config(small_dataset_path), out)
        (out / "ope/wis.json").unlink()
        loads = []

        def counted(path):
            loads.append(path)
            return load_dataset(path)

        monkeypatch.setattr(pipeline_module, "load_dataset", counted)
        run_pipeline(_config(small_dataset_path), out)
        assert loads == [str(small_dataset_path)]
        assert run_digest(out) == run_digest(tmp_path / "whole")
        timing = json.loads((out / "timing.json").read_text())
        assert list(timing["stage_seconds"]) == ["ope"]
        assert timing["load_seconds"] > 0.0

    def test_a_stage_that_runs_reruns_every_later_stage(
        self, small_dataset_path, tmp_path, monkeypatch
    ):
        out = tmp_path / "run"
        run_pipeline(_config(small_dataset_path), out)
        (out / "candidates/index.json").unlink()
        monkeypatch.setattr(
            pipeline_module, "build_client", lambda client, llm: StubLlmClient(generation_calls=1)
        )
        run_pipeline(_config(small_dataset_path), out)
        timing = json.loads((out / "timing.json").read_text())
        assert timing["skipped"] == ["stats", "features"]
        assert list(timing["stage_seconds"]) == list(STAGES[2:])
        rows = score_specs(
            load_dataset(small_dataset_path),
            load_spec_dir(out / "candidates"),
            feature_ids=load_feature_ids(out / "features/report.json"),
        )
        assert json.loads((out / "fitness/report.json").read_text()) == rows
        champion = json.loads((out / "manifest.json").read_text())["champion"]
        assert champion == pareto_from_rows(rows).champion

    def test_changed_inputs_rejected_in_same_directory(self, small_dataset_path, tmp_path):
        out = tmp_path / "run"
        run_pipeline(_config(small_dataset_path), out)
        with pytest.raises(ConfigError, match="fresh directory"):
            run_pipeline(_config(small_dataset_path, seed=4), out)

    def test_split_filtering_applies(self, small_dataset_path, tmp_path):
        config = _config(small_dataset_path, split="policy_train", bins=3)
        manifest = run_pipeline(config, tmp_path / "run")
        stats = json.loads((tmp_path / "run/stats/metadata.json").read_text())
        expected = len(
            filter_split(load_dataset(small_dataset_path), "policy_train").trajectories
        )
        assert stats["summary"]["n_patients"] == expected
        assert manifest["champion"]


class TestHttpPipeline:
    def test_full_run_through_http_client(self, small_dataset_path, tmp_path):
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        from tridrive.llm import StubLlmClient

        stub = StubLlmClient()

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                prompt = json.loads(body)["prompt"]
                text = stub.complete(prompt).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "text/plain")
                self.end_headers()
                self.wfile.write(text)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            config = pipeline_config_from_json(
                {
                    "dataset": str(small_dataset_path),
                    "client": "http",
                    "llm": {
                        "endpoint": f"http://127.0.0.1:{server.server_port}/complete",
                        "backoff": 0.01,
                    },
                    "rounds": 3,
                    "candidates": 4,
                    "bootstrap": 60,
                    "bins": 4,
                    "seed": 2,
                }
            )
            manifest = run_pipeline(config, tmp_path / "run")
        finally:
            server.shutdown()
            server.server_close()
        assert manifest["champion"]
        assert all(s["status"] == "complete" for s in manifest["stages"].values())

    def test_resume_builds_no_client(self, small_dataset_path, tmp_path, monkeypatch):
        """A finished run whose endpoint came from the environment resumes
        with the variable unset, as no stage calls the model."""
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        from tridrive.llm import ENDPOINT_ENV

        stub = StubLlmClient()

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                text = stub.complete(json.loads(body)["prompt"]).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "text/plain")
                self.end_headers()
                self.wfile.write(text)

            def log_message(self, *args):
                pass

        config = pipeline_config_from_json(
            {
                "dataset": str(small_dataset_path),
                "client": "http",
                "llm": {"backoff": 0.01},
                "rounds": 3,
                "candidates": 4,
                "bootstrap": 60,
                "bins": 4,
                "seed": 2,
            }
        )
        out = tmp_path / "run"
        server = HTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            monkeypatch.setenv(ENDPOINT_ENV, f"http://127.0.0.1:{server.server_port}/complete")
            run_pipeline(config, out)
        finally:
            server.shutdown()
            server.server_close()
        digest, manifest = run_digest(out), (out / "manifest.json").read_bytes()

        monkeypatch.delenv(ENDPOINT_ENV)
        run_pipeline(config, out)
        assert (out / "manifest.json").read_bytes() == manifest
        assert run_digest(out) == digest

        (out / "ope/wis.json").unlink()
        run_pipeline(config, out)
        timing = json.loads((out / "timing.json").read_text())
        assert list(timing["stage_seconds"]) == ["ope"]
        assert (out / "manifest.json").read_bytes() == manifest
        assert run_digest(out) == digest


class TestPipelineSeries:
    def test_multiple_prob_tables_emit_series(self, small_dataset_path, tmp_path):
        ds = load_dataset(small_dataset_path)
        p1, p2 = tmp_path / "ckpt1.json", tmp_path / "ckpt2.json"
        save_prob_table(identity_prob_table(ds), p1)
        save_prob_table(identity_prob_table(ds), p2)
        config = _config(small_dataset_path, probs=[str(p1), str(p2)])
        run_pipeline(config, tmp_path / "run")
        series = (tmp_path / "run/ope/wis_series.csv").read_text().splitlines()
        assert series[0] == "checkpoint,policy,value,ci_low,ci_high"
        assert len(series) == 3


    @pytest.mark.parametrize("tables", [0, 2])
    def test_weights_called_once_per_trajectory_per_table(
        self, small_dataset_path, tmp_path, monkeypatch, tables
    ):
        # perfbench's traced run patches tridrive.ope.trajectory_weight and
        # fails when a patched call site goes uncalled.
        ds = load_dataset(small_dataset_path)
        paths = [tmp_path / f"ckpt{i}.json" for i in range(tables)]
        for path in paths:
            save_prob_table(identity_prob_table(ds), path)
        calls = []
        weight = ope_module.trajectory_weight

        def counted(traj, probs, max_ratio=None):
            calls.append(traj.patient_id)
            return weight(traj, probs, max_ratio)

        monkeypatch.setattr(ope_module, "trajectory_weight", counted)
        ope_stage(
            ds, reference_spec(SMALL), [str(p) for p in paths], tmp_path / "ope",
            level=0.9, resamples=20, seed=0, bins=2,
        )
        assert calls == [traj.patient_id for traj in ds.trajectories] * max(tables, 1)


@pytest.mark.parametrize("size", [0, 1, 2**20, 2**20 + 1, 3 * 2**20 + 12345])
def test_sha256_file_matches_whole_file_digest(tmp_path, size):
    path = tmp_path / "blob"
    path.write_bytes(os.urandom(size))
    assert sha256_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()


class TestPipelineConfigIO:
    def test_unknown_keys_rejected(self):
        with pytest.raises(FormatError, match="unknown keys"):
            pipeline_config_from_json({"dataset": "d.json", "model": "x"})
        with pytest.raises(FormatError, match="llm"):
            pipeline_config_from_json({"dataset": "d.json", "llm": {"url": "x"}})
        with pytest.raises(FormatError, match="metric"):
            pipeline_config_from_json({"dataset": "d.json", "metric": {"beta": 1}})

    def test_threshold_validated(self):
        with pytest.raises(ConfigError):
            pipeline_config_from_json({"dataset": "d.json", "threshold": 1.01})

    def test_probs_string_promoted_to_list(self):
        config = pipeline_config_from_json({"dataset": "d.json", "probs": "p.json"})
        assert config.probs == ["p.json"]

    def test_integer_widens_for_float_keys(self):
        config = pipeline_config_from_json(
            {"dataset": "d.json", "threshold": 1, "metric": {"epsilon": 2}}
        )
        assert type(config.threshold) is float and type(config.metric.epsilon) is float
        assert config.canonical_json() == pipeline_config_from_json(
            {"dataset": "d.json", "threshold": 1.0, "metric": {"epsilon": 2.0}}
        ).canonical_json()

    @pytest.mark.parametrize(
        "doc",
        [
            {"dataset": "d.json", "seed": True},
            {"dataset": "d.json", "bins": 4.0},
            {"dataset": "d.json", "level": "0.9"},
            {"dataset": "d.json", "level": float("nan")},
            {"dataset": "d.json", "task": 3},
            {"dataset": "d.json", "probs": [1]},
            {"dataset": "d.json", "llm": []},
            {"dataset": "d.json", "metric": {"action_max": {}}},
            {"seed": 1},
            ["d.json"],
        ],
    )
    def test_mistyped_values_rejected(self, doc):
        with pytest.raises(FormatError):
            pipeline_config_from_json(doc)


# Recorded at the commit before the config hash was computed with asdict,
# then without the dataset path (the run id hashes the dataset's bytes); a
# change to either string moves the run id of every run.
DEFAULT_CANONICAL = (
    '{"bins":10,"bootstrap":1000,"candidates":20,"client":"stub",'
    '"k":7,"level":0.95,"llm":{"backoff":1.0,"endpoint":"","model":"default","retries":2,'
    '"temperature":0.7,"timeout":30.0},"metric":{"aggregation":"mean","alpha":0.1,'
    '"epsilon":2.0,"k":10.0},"probs":[],"rounds":20,"seed":0,"split":null,'
    '"task":"intensive care treatment","threshold":0.6}'
)
EVERY_KEY_CANONICAL = (
    '{"bins":8,"bootstrap":400,"candidates":12,"client":"http",'
    '"k":5,"level":0.9,"llm":{"backoff":0.5,"endpoint":"http://localhost:8000/v1",'
    '"model":"clinician-7b","retries":4,"temperature":0.25,"timeout":12.5},'
    '"metric":{"aggregation":"sum","alpha":0.2,"epsilon":1.5,"k":7.5},'
    '"probs":["ckpt_a.json","ckpt_b.json"],"rounds":9,"seed":42,"split":"policy_train",'
    '"task":"sepsis resuscitation","threshold":0.75}'
)


class TestRunIdPins:
    def test_default_config(self):
        assert PipelineConfig(dataset="cohort.json").canonical_json() == DEFAULT_CANONICAL
        assert pipeline_config_from_json({"dataset": "cohort.json"}).canonical_json() == (
            DEFAULT_CANONICAL
        )

    def test_config_setting_every_key(self):
        doc = {
            "dataset": "data/cohort.json",
            "client": "http",
            "llm": {
                "endpoint": "http://localhost:8000/v1",
                "model": "clinician-7b",
                "temperature": 0.25,
                "timeout": 12.5,
                "retries": 4,
                "backoff": 0.5,
            },
            "rounds": 9,
            "threshold": 0.75,
            "k": 5,
            "candidates": 12,
            "task": "sepsis resuscitation",
            "probs": ["ckpt_a.json", "ckpt_b.json"],
            "bootstrap": 400,
            "level": 0.9,
            "bins": 8,
            "seed": 42,
            "split": "policy_train",
            "metric": {"epsilon": 1.5, "k": 7.5, "alpha": 0.2, "aggregation": "sum"},
        }
        assert pipeline_config_from_json(doc).canonical_json() == EVERY_KEY_CANONICAL


class TestRunId:
    def test_same_bytes_at_two_paths_share_a_run_id(self, small_dataset_path, tmp_path):
        moved = tmp_path / "elsewhere" / "renamed.json"
        moved.parent.mkdir()
        moved.write_bytes(small_dataset_path.read_bytes())
        ids = [
            pipeline_module.PipelineRun(_config(path), tmp_path / name).run_id
            for path, name in ((small_dataset_path, "a"), (moved, "b"))
        ]
        assert ids[0] == ids[1]
        assert pipeline_module.PipelineRun(_config(moved, seed=4), tmp_path / "c").run_id != ids[0]

    def test_finished_run_resumes_after_its_dataset_moves(self, small_dataset_path, tmp_path):
        original = tmp_path / "cohort.json"
        original.write_bytes(small_dataset_path.read_bytes())
        out = tmp_path / "run"
        run_pipeline(_config(original), out)
        digest, manifest = run_digest(out), (out / "manifest.json").read_bytes()
        moved = original.rename(tmp_path / "moved.json")
        run_pipeline(_config(moved), out)
        assert json.loads((out / "timing.json").read_text())["skipped"] == list(STAGES)
        assert (out / "manifest.json").read_bytes() == manifest
        assert run_digest(out) == digest

    def test_a_whole_cohort_run_resumes_without_its_split_key(
        self, small_dataset_path, tmp_path
    ):
        out = tmp_path / "run"
        doc = {"dataset": str(small_dataset_path), "rounds": 4, "candidates": 6, "bootstrap": 80}
        run_pipeline(pipeline_config_from_json({**doc, "split": "all"}), out)
        digest = run_digest(out)
        run_pipeline(pipeline_config_from_json(doc), out)
        assert json.loads((out / "timing.json").read_text())["skipped"] == list(STAGES)
        assert run_digest(out) == digest


class TestStages:
    def test_empty_vote_fails_the_features_stage(self, small_dataset_path, tmp_path):
        ds = load_dataset(small_dataset_path)
        picks = [json.dumps({"critical_state_features": [{"feature_name": f}]})
                 for f in ("nr0", "lo0")]
        with pytest.raises(PipelineError, match="selected no features"):
            features_stage(
                ds, ScriptedLlmClient(picks), tmp_path, rounds=2, threshold=1.0, k=1,
                task="t",
            )
        assert not (tmp_path / "report.json").exists()


class TestCrashSafety:
    def test_crash_in_manifest_write_resumes_to_same_digest(
        self, small_dataset_path, tmp_path, monkeypatch
    ):
        config = _config(small_dataset_path)
        run_pipeline(config, tmp_path / "whole")
        out = tmp_path / "run"
        real_replace = os.replace

        def replace(src, dst):
            # The manifest write that records the fitness stage as complete.
            if Path(dst).name == "manifest.json" and (
                json.loads(Path(src).read_text())["stages"]["fitness"]["status"] == "complete"
            ):
                raise OSError("injected failure")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="injected"):
            run_pipeline(config, out)
        monkeypatch.undo()

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stages"]["candidates"]["status"] == "complete"
        assert manifest["stages"]["fitness"]["status"] == "pending"
        assert [p for p in out.rglob("*") if p.name.endswith(".tmp")] == []
        run_pipeline(config, out)
        assert run_digest(out) == run_digest(tmp_path / "whole")

    def test_process_killed_in_manifest_write_resumes_to_same_digest(
        self, small_dataset_path, tmp_path, whole_run
    ):
        """A process killed inside the manifest write that records the
        fitness stage as complete leaves that write's temporary in the run
        root; the resume removes it and ends where an uninterrupted run
        does."""
        config = _config(small_dataset_path)
        out = tmp_path / "run"
        doc = {**json.loads(config.canonical_json()), "dataset": config.dataset}
        code = (
            "import json, os\n"
            "from pathlib import Path\n"
            "from tridrive.pipeline import pipeline_config_from_json, run_pipeline\n"
            "real_replace = os.replace\n"
            "def replace(src, dst):\n"
            "    doc = json.loads(Path(src).read_text())\n"
            "    if Path(dst).name == 'manifest.json' and (\n"
            "        doc['stages']['fitness']['status'] == 'complete'\n"
            "    ):\n"
            "        os._exit(9)\n"
            "    real_replace(src, dst)\n"
            "os.replace = replace\n"
            f"run_pipeline(pipeline_config_from_json({doc!r}), {str(out)!r})\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 9, done.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stages"]["fitness"]["status"] == "pending"
        assert [p.name for p in out.glob(".manifest.json.*.tmp")] != []
        run_pipeline(config, out)
        assert run_digest(out) == whole_run
        _assert_owned(out)


def _assert_owned(out: Path) -> None:
    """The root holds the manifest, timing.json, hashes.json and the stage
    directories alone, and each stage records exactly the files under its
    directory."""
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["manifest.json", "timing.json", "hashes.json", *STAGES]
    )
    manifest = json.loads((out / "manifest.json").read_text())
    for name in STAGES:
        on_disk = {
            p.relative_to(out).as_posix() for p in (out / name).rglob("*") if p.is_file()
        }
        assert set(manifest["stages"][name]["outputs"]) == on_disk, name


class _LosesEndpoint(StubLlmClient):
    """The stub, except that its second candidate is not JSON (so it is
    quarantined) and its third call raises, as an endpoint that went down."""

    def complete(self, prompt: str) -> str:
        if '"confidence_tau"' in prompt and self.generation_calls == 1:
            self.generation_calls += 1
            return "not json"
        if '"confidence_tau"' in prompt and self.generation_calls == 2:
            raise LlmClientError("endpoint went down")
        return super().complete(prompt)


@pytest.fixture(scope="module")
def whole_run(small_dataset_path, tmp_path_factory):
    """The digest of an uninterrupted run of _config."""
    out = tmp_path_factory.mktemp("whole") / "run"
    run_pipeline(_config(small_dataset_path), out)
    return run_digest(out)


class TestStageOwnership:
    def _assert_failed_at(self, out: Path, failed: str, champion_kept: bool) -> None:
        manifest = json.loads((out / "manifest.json").read_text())
        at = STAGES.index(failed)
        assert [manifest["stages"][s]["status"] for s in STAGES] == (
            ["complete"] * at + ["failed"] + ["pending"] * (len(STAGES) - at - 1)
        )
        assert [s for s in STAGES[at + 1:] if (out / s).exists()] == []
        assert (manifest["champion"] is not None) == champion_kept

    @pytest.mark.parametrize("rerun", [False, True], ids=["fresh", "rerun"])
    @pytest.mark.parametrize("name", STAGES)
    def test_failed_stage_resets_later_stages_and_resumes(
        self, small_dataset_path, tmp_path, monkeypatch, whole_run, name, rerun
    ):
        """A stage that fails after writing its files (and one stray file)
        leaves every later stage pending with no directory, and the resume
        ends where an uninterrupted run does."""
        config = _config(small_dataset_path)
        out = tmp_path / "run"
        if rerun:
            run_pipeline(config, out)
            manifest = json.loads((out / "manifest.json").read_text())
            (out / next(iter(manifest["stages"][name]["outputs"]))).unlink()
        real = getattr(pipeline_module, f"{name}_stage")

        def fails_part_way(*args, **kwargs):
            real(*args, **kwargs)
            (out / name / "stray.txt").write_text("left by a failed attempt\n")
            raise PipelineError("injected failure")

        monkeypatch.setattr(pipeline_module, f"{name}_stage", fails_part_way)
        with pytest.raises(PipelineError, match="injected"):
            run_pipeline(config, out)
        monkeypatch.undo()
        self._assert_failed_at(out, name, champion_kept=name == "ope")

        run_pipeline(config, out)
        assert run_digest(out) == whole_run
        _assert_owned(out)

    def test_interrupted_candidates_leave_no_quarantine_behind(
        self, small_dataset_path, tmp_path, monkeypatch, whole_run
    ):
        config = _config(small_dataset_path)
        out = tmp_path / "run"
        monkeypatch.setattr(pipeline_module, "build_client", lambda client, llm: _LosesEndpoint())
        with pytest.raises(LlmClientError):
            run_pipeline(config, out)
        monkeypatch.undo()
        self._assert_failed_at(out, "candidates", champion_kept=False)
        assert (out / "candidates/quarantine/candidate_001.json").exists()

        run_pipeline(config, out)
        assert not (out / "candidates/quarantine").exists()
        assert json.loads((out / "candidates/index.json").read_text())["quarantined"] == 0
        assert run_digest(out) == whole_run
        _assert_owned(out)

    def test_ope_reads_only_the_champion_spec(
        self, small_dataset_path, tmp_path, monkeypatch, whole_run
    ):
        config = _config(small_dataset_path)
        out = tmp_path / "run"
        run_pipeline(config, out)
        manifest = json.loads((out / "manifest.json").read_text())
        (out / next(iter(manifest["stages"]["ope"]["outputs"]))).unlink()
        read, real = [], pipeline_module.load_reward_spec
        monkeypatch.setattr(
            pipeline_module, "load_reward_spec", lambda path: read.append(path) or real(path)
        )
        run_pipeline(config, out)
        champion = out / "candidates" / f"{manifest['champion']}.json"
        assert read == [champion]
        assert run_digest(out) == whole_run
        # A champion the index does not list is refused, even with a file.
        (out / "candidates/spec_999.json").write_bytes(champion.read_bytes())
        run = pipeline_module.PipelineRun(config, out)
        run.manifest["champion"] = "spec_999"
        with pytest.raises(FormatError, match="champion 'spec_999' is not a candidate$"):
            run._run_ope(load_dataset(small_dataset_path))

    @pytest.mark.parametrize("kind", ["resume", "split", "series"])
    def test_run_directory_holds_only_stage_outputs(self, small_dataset_path, tmp_path, kind):
        overrides = {}
        if kind == "split":
            overrides = {"split": "policy_train", "bins": 3}
        elif kind == "series":
            ds = load_dataset(small_dataset_path)
            overrides["probs"] = [str(tmp_path / f"ckpt{i}.json") for i in range(2)]
            for path in overrides["probs"]:
                save_prob_table(identity_prob_table(ds), path)
        out = tmp_path / "run"
        run_pipeline(_config(small_dataset_path, **overrides), out)
        _assert_owned(out)
        if kind == "resume":
            (out / "ope/mortality_curve.csv").unlink()
            run_pipeline(_config(small_dataset_path, **overrides), out)
            _assert_owned(out)
        if kind == "series":
            assert (out / "ope/wis_series.csv").exists()


def test_fresh_pipeline_process_does_not_import_numpy_ma(small_dataset_path, tmp_path):
    """numpy.ma costs every fresh process 14-22 ms to import; np.quantile
    reaches it through np.unique, so the stages take quantiles without it."""
    code = (
        "import sys\n"
        "from tridrive.pipeline import PipelineConfig, run_pipeline\n"
        f"run_pipeline(PipelineConfig(dataset={str(small_dataset_path)!r}, rounds=2, candidates=3,"
        f" bootstrap=40, bins=2), {str(tmp_path / 'run')!r})\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
