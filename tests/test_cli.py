import csv
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutated_documents, read_plain, write_plain
from tridrive import __version__
from tridrive.cli import main
from tridrive.errors import ValidationError
from tridrive.model import load_dataset
from tridrive.ope import identity_prob_table, save_prob_table


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory with a small generated cohort and the pipeline prerequisites."""
    root = tmp_path_factory.mktemp("cli")
    runner = CliRunner()
    cohort_cfg = root / "cohort_config.json"
    cohort_cfg.write_text(json.dumps({"n_patients": 50, "horizon": [10, 18], "seed": 5}))
    result = runner.invoke(
        main,
        ["synth", "--config", str(cohort_cfg), "--out", str(root / "cohort.json"),
         "--reference-spec", str(root / "ref_spec.json")],
    )
    assert result.exit_code == 0, result.output
    return root


def _invoke(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


class TestSynth:
    def test_deterministic_output(self, workdir, tmp_path):
        cfg = workdir / "cohort_config.json"
        r1 = _invoke("synth", "--config", cfg, "--out", tmp_path / "a.json")
        r2 = _invoke("synth", "--config", cfg, "--out", tmp_path / "b.json")
        assert r1.exit_code == r2.exit_code == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_seed_override(self, workdir, tmp_path):
        cfg = workdir / "cohort_config.json"
        _invoke("synth", "--config", cfg, "--seed", "9", "--out", tmp_path / "a.json")
        assert (tmp_path / "a.json").read_bytes() != (workdir / "cohort.json").read_bytes()

    def test_bad_config_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n_patients": 1}')
        result = _invoke("synth", "--config", bad, "--out", tmp_path / "x.json")
        assert result.exit_code == 2


class TestStats:
    def test_report_written(self, workdir, tmp_path):
        out = tmp_path / "stats.json"
        result = _invoke("stats", "--dataset", workdir / "cohort.json", "--out", out)
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        assert len(doc["features"]) == 6

    def test_missing_file_is_exit_2(self, tmp_path):
        result = _invoke("stats", "--dataset", tmp_path / "nope.json", "--out", tmp_path / "o")
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "doc, named",
        [
            ({"feature_schema": {}, "action_schema": {}, "trajectories": []},
             "one-object-per-row format"),
            ({"format": 2, "feature_schema": {}, "action_schema": {}, "patient_id": [],
              "offsets": [0], "t": []}, "a format-2 file (numbers as JSON text)"),
            ({"format": 3, "feature_schema": {}, "action_schema": {}, "patient_id": [],
              "offsets": "AAAAAA==", "t": ""}, "a format-3 file (columns as base64 text in JSON)"),
        ],
        ids=["format-1", "format-2", "format-3"],
    )
    def test_earlier_format_dataset_is_exit_2(self, tmp_path, doc, named):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
        result = _invoke("stats", "--dataset", path, "--out", tmp_path / "o")
        _assert_usage_error(result)
        assert named in result.output
        assert "regenerate it in format 4" in result.output

    @pytest.mark.parametrize("level", [2.7, -0.5, math.inf, math.nan])
    def test_a_discrete_level_not_whole_is_exit_2(self, workdir, tmp_path, level):
        """Exit 2 with the message validation gives the same cohort in
        memory, naming the patient, action, level and t: not truncated."""
        doc = read_plain(workdir / "cohort.json")
        aid = min(doc["actions"])
        assert doc["action_schema"][aid]["discrete"]
        row = next(i for i, x in enumerate(doc["actions"][aid]) if x is not None)
        doc["actions"][aid][row] = level
        path = tmp_path / "bad.json"
        write_plain(path, doc)
        result = _invoke("stats", "--dataset", path, "--out", tmp_path / "o.json")
        _assert_usage_error(result)
        cohort = load_dataset(workdir / "cohort.json")
        k = sum(1 for end in doc["offsets"][1:] if end <= row)
        traj = cohort.trajectories[k]
        steps = list(traj.steps)
        i = row - doc["offsets"][k]
        steps[i] = dataclasses.replace(steps[i], action={**steps[i].action, aid: level})
        trajs = list(cohort.trajectories)
        trajs[k] = dataclasses.replace(traj, steps=steps)
        with pytest.raises(ValidationError) as built:
            dataclasses.replace(cohort, trajectories=trajs).validate()
        message = str(built.value)
        assert message.startswith(f"patient {traj.patient_id!r}: ")
        assert f"action {aid!r} level {level} " in message and message.endswith(f"t={steps[i].t}")
        assert result.stderr == f"error: {message}\n"

    def test_rerun_identical_bytes(self, workdir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        _invoke("stats", "--dataset", workdir / "cohort.json", "--out", a)
        _invoke("stats", "--dataset", workdir / "cohort.json", "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_output_is_runtime_failure(self, workdir, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        result = _invoke("stats", "--dataset", workdir / "cohort.json", "--out", out)
        assert result.exit_code == 1
        assert result.stderr.startswith("error:")
        assert "Traceback" not in result.output
        assert [p.name for p in tmp_path.iterdir()] == ["out"]


class TestSelectFeatures:
    def test_stub_selection(self, workdir, tmp_path):
        out = tmp_path / "sel"
        result = _invoke(
            "select-features", "--dataset", workdir / "cohort.json",
            "--rounds", 3, "--out", out,
        )
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert report["selected_features"]
        assert len(list((out / "rounds").glob("round_*.json"))) == 3

    def test_invalid_threshold_is_exit_2(self, workdir, tmp_path):
        result = _invoke(
            "select-features", "--dataset", workdir / "cohort.json",
            "--threshold", "1.01", "--out", tmp_path / "sel",
        )
        assert result.exit_code == 2
        assert result.output == "error: consensus threshold must lie in (0, 1]\n"

    def test_stub_selection_matches_frozen_golden(self, workdir, tmp_path):
        # frozen once from the deterministic stub on this fixture cohort
        out = tmp_path / "sel"
        result = _invoke(
            "select-features", "--dataset", workdir / "cohort.json",
            "--rounds", 3, "--out", out,
        )
        assert result.exit_code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["selected_features"] == ["hi0", "lo0", "lo1", "nr0", "nr1", "nr2"]

    def test_single_round_vote_equals_round(self, workdir, tmp_path):
        out = tmp_path / "sel"
        result = _invoke(
            "select-features", "--dataset", workdir / "cohort.json",
            "--rounds", 1, "--out", out,
        )
        assert result.exit_code == 0
        report = json.loads((out / "report.json").read_text())
        rnd = json.loads((out / "rounds/round_000.json").read_text())
        assert sorted(report["selected_features"]) == sorted(rnd["selected"])


@pytest.fixture(scope="module")
def artifacts(workdir, tmp_path_factory):
    root = tmp_path_factory.mktemp("chain")
    sel = root / "sel"
    assert _invoke(
        "select-features", "--dataset", workdir / "cohort.json",
        "--rounds", 2, "--out", sel,
    ).exit_code == 0
    specs = root / "specs"
    assert _invoke(
        "generate", "--dataset", workdir / "cohort.json",
        "--features", sel / "report.json", "--candidates", 5, "--out", specs,
    ).exit_code == 0
    return root, sel, specs


class TestGenerateScorePareto:
    def test_generate_writes_numbered_specs(self, artifacts):
        _, _, specs = artifacts
        names = sorted(p.name for p in specs.glob("spec_*.json"))
        assert names == [f"spec_{i:03d}.json" for i in range(5)]

    def test_score_and_pareto(self, workdir, artifacts, tmp_path):
        root, sel, specs = artifacts
        fitness = tmp_path / "fitness.json"
        result = _invoke(
            "score", "--dataset", workdir / "cohort.json", "--specs", specs,
            "--features", sel / "report.json", "--out", fitness,
        )
        assert result.exit_code == 0, result.output
        rows = json.loads(fitness.read_text())
        assert len(rows) == 5
        selection = tmp_path / "selection.json"
        result = _invoke("pareto", "--fitness", fitness, "--out", selection)
        assert result.exit_code == 0
        doc = json.loads(selection.read_text())
        assert doc["champion"] in {r["spec_id"] for r in rows}

    def test_score_rows_follow_the_candidate_index(self, workdir, tmp_path):
        specs = tmp_path / "specs"
        specs.mkdir()
        for sid in ("spec_101", "spec_1000"):
            (specs / f"{sid}.json").write_text((workdir / "ref_spec.json").read_text())

        def scored():
            out = tmp_path / "fitness.json"
            result = _invoke("score", "--dataset", workdir / "cohort.json", "--specs", specs,
                             "--out", out)
            assert result.exit_code == 0, result.output
            return [row["spec_id"] for row in json.loads(out.read_text())]

        assert scored() == ["spec_1000", "spec_101"]
        (specs / "index.json").write_text(json.dumps({"valid": ["spec_101", "spec_1000"]}))
        assert scored() == ["spec_101", "spec_1000"]


class TestOpe:
    def test_logged_policy_default(self, workdir, tmp_path):
        out = tmp_path / "ope"
        result = _invoke(
            "ope", "--dataset", workdir / "cohort.json", "--spec", workdir / "ref_spec.json",
            "--bootstrap", 60, "--bins", 4, "--out", out,
        )
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "wis.json").read_text())
        assert doc["policy"] == "logged-policy"
        assert doc["ci_low"] <= doc["value"] <= doc["ci_high"]
        lines = (out / "mortality_curve.csv").read_text().splitlines()
        assert lines[0] == "bin,reward_low,reward_high,mortality,count"
        assert len(lines) == 5

    def test_series_output(self, workdir, tmp_path):
        probs = tmp_path / "probs.json"
        save_prob_table(identity_prob_table(load_dataset(workdir / "cohort.json")), probs)
        out = tmp_path / "ope"
        result = _invoke(
            "ope", "--dataset", workdir / "cohort.json", "--spec", workdir / "ref_spec.json",
            "--probs", probs, "--probs", probs, "--bootstrap", 50, "--bins", 4, "--out", out,
        )
        assert result.exit_code == 0, result.output
        series = (out / "wis_series.csv").read_text().splitlines()
        assert len(series) == 3


    def test_series_csv_quotes_paths_with_commas(self, workdir, tmp_path):
        table = identity_prob_table(load_dataset(workdir / "cohort.json"))
        paths = [tmp_path / "ckpt,1.json", tmp_path / "ckpt,2.json"]
        for path in paths:
            save_prob_table(table, path)
        out = tmp_path / "ope"
        result = _invoke(
            "ope", "--dataset", workdir / "cohort.json", "--spec", workdir / "ref_spec.json",
            "--probs", paths[0], "--probs", paths[1], "--bootstrap", 50, "--bins", 4,
            "--out", out,
        )
        assert result.exit_code == 0, result.output
        with (out / "wis_series.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["checkpoint", "policy", "value", "ci_low", "ci_high"]
        assert [row[:2] for row in rows[1:]] == [["0", str(paths[0])], ["1", str(paths[1])]]
        assert all(len(row) == 5 for row in rows)
        assert json.loads((out / "wis.json").read_text())["policy"] == str(paths[1])

    def test_malformed_table_is_usage_error(self, workdir, tmp_path):
        bad = tmp_path / "bad.json"
        plain = {"patient_id": ["p1"], "offsets": [0, 2], "t": [3, 3],
                 "p_eval": [0.5, 0.5], "p_behavior": [0.5, 0.5]}
        write_plain(bad, plain)
        result = _invoke(
            "ope", "--dataset", workdir / "cohort.json", "--spec", workdir / "ref_spec.json",
            "--probs", bad, "--bootstrap", 20, "--bins", 4, "--out", tmp_path / "ope",
        )
        _assert_usage_error(result)
        assert "patient 'p1'" in result.output

    @pytest.mark.parametrize(
        "args",
        [["--seed", -1], ["--max-ratio", "nan"], ["--max-ratio", -1], ["--max-ratio", 0],
         ["--bins", 0], ["--bins", 51]],
        ids=["seed", "max-ratio-nan", "max-ratio-negative", "max-ratio-zero", "no-bins",
             "more-bins-than-patients"],
    )
    def test_bad_option_is_usage_error_and_writes_nothing(self, workdir, tmp_path, args):
        out = tmp_path / "ope"
        result = _invoke(
            "ope", "--dataset", workdir / "cohort.json", "--spec", workdir / "ref_spec.json",
            "--bootstrap", 20, *args, "--out", out,
        )
        _assert_usage_error(result)
        assert not out.exists() or not any(out.iterdir())


class TestPipelineCommand:
    def test_end_to_end_and_exit_codes(self, workdir, tmp_path):
        config = tmp_path / "pipe.json"
        config.write_text(json.dumps({
            "dataset": str(workdir / "cohort.json"),
            "rounds": 2, "candidates": 4, "bootstrap": 50, "bins": 4, "seed": 1,
        }))
        result = _invoke("pipeline", "--config", config, "--out", tmp_path / "run")
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "run/manifest.json").read_text())
        assert manifest["champion"]

    def test_stage_directory_without_manifest_is_refused(self, workdir, tmp_path):
        """A run removes a stage's directory before the stage runs, so it
        refuses a directory whose stage files it cannot have written."""
        config = tmp_path / "pipe.json"
        config.write_text(json.dumps({"dataset": str(workdir / "cohort.json"), "rounds": 2}))
        run = tmp_path / "run"
        (run / "stats").mkdir(parents=True)
        (run / "stats/metadata.json").write_text("kept\n")
        result = _invoke("pipeline", "--config", config, "--out", run)
        _assert_usage_error(result)
        assert "no manifest.json (use a fresh directory)" in result.output
        assert [p.relative_to(run).as_posix() for p in sorted(run.rglob("*"))] == [
            "stats", "stats/metadata.json"
        ]
        assert (run / "stats/metadata.json").read_text() == "kept\n"

    def test_bad_config_exit_2(self, tmp_path):
        config = tmp_path / "pipe.json"
        config.write_text(json.dumps({"dataset": "missing.json"}))
        result = _invoke("pipeline", "--config", config, "--out", tmp_path / "run")
        assert result.exit_code == 2

    @pytest.mark.parametrize("threshold", ["0", "1.01", "nan"])
    def test_invalid_threshold_override_is_usage_error(self, workdir, tmp_path, threshold):
        config = tmp_path / "pipe.json"
        config.write_text(json.dumps({"dataset": str(workdir / "cohort.json")}))
        result = _invoke(
            "pipeline", "--config", config, "--threshold", threshold, "--out", tmp_path / "run"
        )
        _assert_usage_error(result)
        assert result.output == "error: threshold must lie in (0, 1]\n"
        assert not (tmp_path / "run").exists()

    def test_oversized_bins_is_usage_error(self, workdir, tmp_path):
        config = tmp_path / "pipe.json"
        config.write_text(json.dumps({
            "dataset": str(workdir / "cohort.json"),
            "rounds": 2, "candidates": 3, "bootstrap": 40, "bins": 500, "seed": 1,
        }))
        result = _invoke("pipeline", "--config", config, "--out", tmp_path / "run")
        assert result.exit_code == 2

    def test_empty_split_is_runtime_failure(self, workdir, tmp_path):
        from tridrive.pipeline import assign_split

        ds = load_dataset(workdir / "cohort.json")
        taken = {assign_split(t.patient_id) for t in ds.trajectories}
        empty = next(
            (s for s in ("reward_test", "policy_test", "reward_train") if s not in taken),
            None,
        )
        if empty is None:
            ds = dataclasses.replace(ds, trajectories=ds.trajectories[:2])
            taken = {assign_split(t.patient_id) for t in ds.trajectories}
            empty = next(s for s in ("reward_test", "policy_test", "reward_train")
                         if s not in taken)
            small = tmp_path / "small.json"
            from tridrive.model import save_dataset

            save_dataset(ds, small)
            dataset_path = small
        else:
            dataset_path = workdir / "cohort.json"
        config = tmp_path / "pipe.json"
        config.write_text(json.dumps({
            "dataset": str(dataset_path), "rounds": 2, "candidates": 3,
            "bootstrap": 40, "bins": 2, "seed": 1, "split": empty,
        }))
        result = _invoke("pipeline", "--config", config, "--out", tmp_path / "run")
        assert result.exit_code == 1
        assert "no trajectories" in result.output


def _nan_dataset(workdir, tmp_path):
    doc = read_plain(workdir / "cohort.json")
    doc["sofa"][1] = float("nan")
    path = tmp_path / "nan_cohort.json"
    write_plain(path, doc)
    return path


def _assert_usage_error(result):
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


class TestNonFiniteInputs:
    def test_score_nan_dataset(self, workdir, artifacts, tmp_path):
        _, _, specs = artifacts
        _assert_usage_error(_invoke(
            "score", "--dataset", _nan_dataset(workdir, tmp_path), "--specs", specs,
            "--out", tmp_path / "fitness.json",
        ))

    @pytest.mark.parametrize("key", ["confidence_tau", "action_max"])
    def test_score_nan_spec(self, workdir, tmp_path, key):
        doc = json.loads((workdir / "ref_spec.json").read_text())
        first = sorted(doc[key])[0]
        doc[key][first] = float("nan")
        specs = tmp_path / "specs"
        specs.mkdir()
        (specs / "spec_000.json").write_text(json.dumps(doc))
        _assert_usage_error(_invoke(
            "score", "--dataset", workdir / "cohort.json", "--specs", specs,
            "--out", tmp_path / "fitness.json",
        ))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--epsilon", "--sigmoid-k", "--alpha"])
    def test_score_non_finite_setting(self, workdir, artifacts, tmp_path, flag, value):
        _, _, specs = artifacts
        result = _invoke(
            "score", "--dataset", workdir / "cohort.json", "--specs", specs,
            "--out", tmp_path / "fitness.json", flag, value,
        )
        _assert_usage_error(result)
        assert result.output.startswith("error: ")
        assert not (tmp_path / "fitness.json").exists()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(survival=list(d["survival"])),
            lambda d: d["survival"][sorted(d["survival"])[0]].update(sigma="x"),
            lambda d: d.update(gamma=[0.99]),
        ],
        ids=["survival-list", "sigma-string", "gamma-list"],
    )
    def test_score_mistyped_spec(self, workdir, tmp_path, mutate):
        doc = json.loads((workdir / "ref_spec.json").read_text())
        mutate(doc)
        specs = tmp_path / "specs"
        specs.mkdir()
        (specs / "spec_000.json").write_text(json.dumps(doc))
        result = _invoke(
            "score", "--dataset", workdir / "cohort.json", "--specs", specs,
            "--out", tmp_path / "fitness.json",
        )
        _assert_usage_error(result)
        assert "error: " in result.output

    def test_pipeline_nan_dataset(self, workdir, tmp_path):
        config = tmp_path / "pipe.json"
        config.write_text(json.dumps({
            "dataset": str(_nan_dataset(workdir, tmp_path)),
            "rounds": 2, "candidates": 3, "bootstrap": 40, "bins": 2, "seed": 1,
        }))
        _assert_usage_error(_invoke("pipeline", "--config", config, "--out", tmp_path / "run"))


def test_truncated_manifest_is_usage_error(workdir, tmp_path):
    config = tmp_path / "pipe.json"
    config.write_text(json.dumps({
        "dataset": str(workdir / "cohort.json"),
        "rounds": 2, "candidates": 3, "bootstrap": 40, "bins": 2, "seed": 1,
    }))
    run = tmp_path / "run"
    assert _invoke("pipeline", "--config", config, "--out", run).exit_code == 0
    manifest = run / "manifest.json"
    manifest.write_text(manifest.read_text()[:40])
    result = _invoke("pipeline", "--config", config, "--out", run)
    _assert_usage_error(result)
    assert "manifest.json" in result.output


@pytest.fixture(scope="module")
def finished_run(workdir, tmp_path_factory):
    """(config path, run directory, manifest) of a completed pipeline run."""
    root = tmp_path_factory.mktemp("finished")
    config = root / "pipe.json"
    config.write_text(json.dumps({
        "dataset": str(workdir / "cohort.json"),
        "rounds": 2, "candidates": 3, "bootstrap": 40, "bins": 2, "seed": 1,
    }))
    run = root / "run"
    assert _invoke("pipeline", "--config", config, "--out", run).exit_code == 0
    return config, run, json.loads((run / "manifest.json").read_text())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fuzzed_manifest_resumes_or_is_usage_error(finished_run, data):
    config, run, manifest = finished_run
    doc = data.draw(mutated_documents(manifest))
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "run"
        shutil.copytree(run, copy)
        (copy / "manifest.json").write_text(json.dumps(doc))
        result = _invoke("pipeline", "--config", config, "--out", copy)
    assert result.exit_code in (0, 2), result.output
    assert isinstance(result.exception, (SystemExit, type(None))), repr(result.exception)
    assert "Traceback" not in result.output


def test_manifest_champion_not_a_candidate_is_usage_error(finished_run, tmp_path):
    config, run, manifest = finished_run
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    (copy / "manifest.json").write_text(json.dumps({**manifest, "champion": "spec_999"}))
    (copy / "ope/wis.json").unlink()
    result = _invoke("pipeline", "--config", config, "--out", copy)
    _assert_usage_error(result)
    assert "champion 'spec_999' is not a candidate" in result.output


def test_cli_import_loads_no_network_stack():
    """Only the HTTP client needs urllib.request and what it loads, so a
    fresh CLI process, which may never make a request, leaves them out."""
    code = (
        "import sys\n"
        "import tridrive.cli\n"
        "print(sorted({'requests', 'urllib3', 'http.client', 'ssl'} & set(sys.modules)))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_help_lists_commands():
    result = _invoke("--help")
    assert result.exit_code == 0
    for cmd in ("synth", "stats", "select-features", "generate", "score", "pareto", "ope", "pipeline"):
        assert cmd in result.output


@pytest.mark.parametrize(
    "command, flag, text",
    [
        ("generate", "--features", '{"foo": 1}'),
        ("generate", "--features", "{not json"),
        ("score", "--features", '{"foo": 1}'),
        ("score", "--features", "{not json"),
        ("pareto", "--fitness", '{"x": 1}'),
        ("pareto", "--fitness", '[{"spec_id": "a"}]'),
        ("pareto", "--fitness", '[{"spec_id": "a", "j_surv": "0.1", "j_conf": 0, "j_comp": 0}]'),
        ("pareto", "--fitness", "{not json"),
        ("synth", "--config", '{"n_patients": "abc"}'),
        ("synth", "--config", '{"action_levels": [1]}'),
        ("synth", "--config", '{"horizon": ["a", 3]}'),
        ("synth", "--config", '{"seed": true}'),
        ("synth", "--config", '{"seed": -1}'),
        ("pipeline", "--config", '{"dataset": "@", "rounds": "abc"}'),
        ("pipeline", "--config", '{"dataset": "@", "rounds": 2.5}'),
        ("pipeline", "--config", '{"dataset": "@", "rounds": true}'),
        ("pipeline", "--config", '{"dataset": "@", "threshold": false}'),
        ("pipeline", "--config", '{"dataset": "@", "metric": {"epsilon": "x"}}'),
        ("pipeline", "--config", '{"dataset": "@", "metric": {"iqr": {}}}'),
        ("pipeline", "--config", '{"dataset": "@", "llm": {"retries": 1e400}}'),
        ("pipeline", "--config", '{"dataset": "@", "seed": -1}'),
        ("pipeline", "--config", '{"dataset": "@", "llm": {"timeout": -1}}'),
    ],
)
def test_malformed_input_is_usage_error(workdir, artifacts, tmp_path, command, flag, text):
    dataset = workdir / "cohort.json"
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace('"@"', json.dumps(str(dataset))))
    rest = {
        "generate": ["--dataset", dataset, "--out", tmp_path / "out"],
        "score": ["--dataset", dataset, "--specs", artifacts[2], "--out", tmp_path / "o.json"],
        "pareto": ["--out", tmp_path / "o.json"],
        "synth": ["--out", tmp_path / "o.json"],
        "pipeline": ["--out", tmp_path / "run"],
    }[command]
    result = _invoke(command, flag, bad, *rest)
    _assert_usage_error(result)
    assert result.output.startswith("error: ")


@pytest.mark.parametrize(
    "command, flag, out",
    [("pipeline", "--config", "run"), ("synth", "--config", "o.json"),
     ("pareto", "--fitness", "o.json")],
)
def test_column_file_where_json_is_expected_is_usage_error(workdir, tmp_path, command, flag, out):
    # A dataset file is a column file, not JSON, whatever its name.
    result = _invoke(command, flag, workdir / "cohort.json", "--out", tmp_path / out)
    _assert_usage_error(result)
    assert result.output.startswith("error: ")
    assert "a column file (a dataset or probability table), not the JSON" in result.output


def test_version_is_package_version(workdir, tmp_path):
    assert _invoke("--version").output == f"tridrive, version {__version__}\n"
    config = tmp_path / "pipe.json"
    config.write_text(json.dumps({
        "dataset": str(workdir / "cohort.json"),
        "rounds": 2, "candidates": 2, "bootstrap": 20, "bins": 2,
    }))
    assert _invoke("pipeline", "--config", config, "--out", tmp_path / "run").exit_code == 0
    manifest = json.loads((tmp_path / "run/manifest.json").read_text())
    assert manifest["tool_version"] == __version__


def test_subcommands_write_what_the_pipeline_writes(workdir, tmp_path):
    """stats -> select-features -> generate -> score -> pareto -> ope with the
    pipeline's defaults leave the files a pipeline run leaves."""
    dataset = workdir / "cohort.json"
    cli = tmp_path / "cli"
    report = cli / "features/report.json"
    for args in (
        ("stats", "--dataset", dataset, "--out", cli / "stats/metadata.json"),
        ("select-features", "--dataset", dataset, "--out", cli / "features"),
        ("generate", "--dataset", dataset, "--features", report, "--out", cli / "candidates"),
        ("score", "--dataset", dataset, "--specs", cli / "candidates", "--features", report,
         "--out", cli / "fitness/report.json"),
        ("pareto", "--fitness", cli / "fitness/report.json", "--out", cli / "selection/report.json"),
    ):
        result = _invoke(*args)
        assert result.exit_code == 0, result.output
    champion = json.loads((cli / "selection/report.json").read_text())["champion"]
    result = _invoke("ope", "--dataset", dataset, "--spec", cli / f"candidates/{champion}.json",
                     "--out", cli / "ope")
    assert result.exit_code == 0, result.output

    config = tmp_path / "pipe.json"
    config.write_text(json.dumps({"dataset": str(dataset)}))
    run = tmp_path / "run"
    assert _invoke("pipeline", "--config", config, "--out", run).exit_code == 0

    def files(root):
        return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())

    run_only = ("manifest.json", "timing.json", "hashes.json")
    assert files(cli) == [f for f in files(run) if f not in run_only]
    assert len(list((cli / "features/rounds").iterdir())) == 20
    assert len(list((cli / "candidates").glob("spec_*.json"))) == 20
    for rel in files(cli):
        if rel == "ope/wis.json":
            continue
        assert (cli / rel).read_bytes() == (run / rel).read_bytes(), rel
    wis = json.loads((run / "ope/wis.json").read_text())
    assert wis.pop("champion") == champion
    assert (cli / "ope/wis.json").read_text() == json.dumps(wis, indent=2) + "\n"
