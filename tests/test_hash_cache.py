"""The run directory's digest cache (hashes.json) and the ope stage's hashed
probability tables.

A resume reuses a file's recorded sha256 only while the file's stat key
(size, mtime, ctime, inode, device) is unchanged and its mtime is older than
hashes.json's. These tests move hashes.json's timestamps with os.utime, so
none of them depends on how fine the filesystem's timestamps are.
"""

import json
import os
import shutil
import tempfile
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from tridrive import pipeline as pipeline_module
from tridrive.cli import main
from tridrive.errors import FormatError
from tridrive.model import load_dataset, save_dataset
from tridrive.ope import PolicyProbTable, identity_prob_table, save_prob_table
from tridrive.pipeline import (
    STAGES,
    PipelineConfig,
    PipelineRun,
    run_digest,
    run_pipeline,
    sha256_file,
)
from tridrive.synth import CohortConfig, generate

SMALL = CohortConfig(n_patients=60, horizon_min=12, horizon_max=24, seed=5)
MINUTE_NS = 60 * 10**9
SETTINGS = dict(rounds=4, candidates=6, bootstrap=80, bins=5, seed=3)


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "cohort.json"
    save_dataset(generate(SMALL), path)
    return path


@pytest.fixture(scope="module")
def tables(dataset_path):
    """The logged policy's table and one with every p_eval halved."""
    identity = identity_prob_table(load_dataset(dataset_path))
    halved = PolicyProbTable({key: (pe / 2, pb) for key, (pe, pb) in identity.probs.items()})
    return identity, halved


def _config(dataset_path, **overrides):
    return PipelineConfig(dataset=str(dataset_path), **{**SETTINGS, **overrides})


def _table_run(dataset_path, tables, root: Path):
    """A finished run over one table; returns its config and directory."""
    table = root / "probs.json"
    save_prob_table(tables[0], table)
    config = _config(dataset_path, probs=[str(table)])
    run_pipeline(config, root / "run")
    return config, root / "run"


def _settle(out: Path) -> None:
    """Move hashes.json's mtime a minute past every file it records, as a
    resume long after the run finds it."""
    cache = out / "hashes.json"
    newest = max(os.stat(path).st_mtime_ns for path in json.loads(cache.read_text()))
    os.utime(cache, ns=(newest + MINUTE_NS, newest + MINUTE_NS))


def _count_hashes(monkeypatch) -> list[str]:
    """The absolute path of every file tridrive.pipeline.sha256_file reads from now on."""
    hashed, real = [], pipeline_module.sha256_file
    monkeypatch.setattr(
        pipeline_module, "sha256_file", lambda path: hashed.append(os.path.abspath(path))
        or real(path)
    )
    return hashed


def _stat_key(path) -> list[int]:
    st = os.stat(path)
    return [st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino, st.st_dev]


def _rewrite_in_place(path: Path, edit) -> None:
    """Give the file new bytes of the same size on the same inode, and put
    its mtime back. ctime cannot be set, so wait until it has moved on."""
    before = os.stat(path)
    with open(path, "r+b") as fh:
        old = fh.read()
        new = edit(old)
        assert len(new) == len(old) and new != old
        fh.seek(0)
        fh.write(new)
    deadline = time.monotonic() + 10.0
    while True:
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        if after.st_ctime_ns != before.st_ctime_ns or time.monotonic() > deadline:
            break
        time.sleep(0.001)
    same = ("st_size", "st_mtime_ns", "st_ino", "st_dev")
    assert [getattr(after, k) for k in same] == [getattr(before, k) for k in same]
    assert after.st_ctime_ns != before.st_ctime_ns


def _flip_first_digit(data: bytes) -> bytes:
    at = next(i for i, byte in enumerate(data) if chr(byte).isdigit())
    return data[:at] + (b"1" if data[at : at + 1] != b"1" else b"2") + data[at + 1 :]


def _timing(out: Path) -> dict:
    return json.loads((out / "timing.json").read_text())


class TestHashCache:
    def test_a_run_records_the_key_and_digest_of_every_file_it_hashed(
        self, dataset_path, tables, tmp_path
    ):
        config, out = _table_run(dataset_path, tables, tmp_path)
        outputs = [p for name in STAGES for p in (out / name).rglob("*") if p.is_file()]
        files = [Path(config.dataset), Path(config.probs[0]), *outputs]
        assert json.loads((out / "hashes.json").read_text()) == {
            os.path.abspath(p): [_stat_key(p), sha256_file(p)] for p in files
        }
        assert "hashes.json" in pipeline_module.VOLATILE_FILES
        digest = run_digest(out)
        (out / "hashes.json").write_text("{}")
        assert run_digest(out) == digest

    def test_a_settled_resume_hashes_nothing(self, dataset_path, tables, tmp_path, monkeypatch):
        config, out = _table_run(dataset_path, tables, tmp_path)
        manifest = (out / "manifest.json").read_bytes()
        _settle(out)
        cache = os.stat(out / "hashes.json")
        hashed = _count_hashes(monkeypatch)
        run_pipeline(config, out)
        assert hashed == []
        assert _timing(out)["skipped"] == list(STAGES)
        assert (out / "manifest.json").read_bytes() == manifest
        # Nothing changed, so the cache is not written again.
        assert os.stat(out / "hashes.json").st_mtime_ns == cache.st_mtime_ns

    def test_a_file_as_new_as_the_cache_is_hashed_again(
        self, dataset_path, tables, tmp_path, monkeypatch
    ):
        config, out = _table_run(dataset_path, tables, tmp_path)
        stats = out / "stats/metadata.json"
        written = os.stat(stats).st_mtime_ns
        hashed = _count_hashes(monkeypatch)
        for cache_ns, rehashed in ((written + 1, False), (written, True)):
            os.utime(out / "hashes.json", ns=(cache_ns, cache_ns))
            hashed.clear()
            run_pipeline(config, out)
            assert (os.path.abspath(stats) in hashed) == rehashed
            assert _timing(out)["skipped"] == list(STAGES)

    def test_an_output_rewritten_with_its_mtime_put_back_reruns_its_stage(
        self, dataset_path, tmp_path
    ):
        run_pipeline(_config(dataset_path), tmp_path / "whole")
        out = tmp_path / "run"
        run_pipeline(_config(dataset_path), out)
        _settle(out)
        _rewrite_in_place(out / "fitness/report.json", _flip_first_digit)
        run_pipeline(_config(dataset_path), out)
        assert _timing(out)["skipped"] == list(STAGES[:3])
        assert list(_timing(out)["stage_seconds"]) == list(STAGES[3:])
        assert run_digest(out) == run_digest(tmp_path / "whole")

    def test_a_dataset_rewritten_with_its_mtime_put_back_is_another_run(
        self, dataset_path, tmp_path
    ):
        dataset = tmp_path / "cohort.json"
        shutil.copyfile(dataset_path, dataset)
        config = tmp_path / "pipe.json"
        config.write_text(json.dumps({"dataset": str(dataset), **SETTINGS}))
        args = ["pipeline", "--config", str(config), "--out", str(tmp_path / "run")]
        assert CliRunner().invoke(main, args).exit_code == 0
        _settle(tmp_path / "run")
        _rewrite_in_place(dataset, lambda data: data[:-1] + bytes([data[-1] ^ 1]))
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert "belongs to run" in result.output


class TestTableInputs:
    def test_a_table_rewritten_at_its_path_reruns_only_ope(self, dataset_path, tables, tmp_path):
        """Halving p_eval at the same path moves the WIS value; the resume
        reruns ope alone and ends where a fresh directory does."""
        config, out = _table_run(dataset_path, tables, tmp_path)
        before = json.loads((out / "ope/wis.json").read_text())["value"]
        save_prob_table(tables[1], config.probs[0])
        run_pipeline(config, out)
        assert _timing(out)["skipped"] == list(STAGES[:5])
        assert list(_timing(out)["stage_seconds"]) == ["ope"]
        run_pipeline(config, tmp_path / "fresh")
        value = json.loads((out / "ope/wis.json").read_text())["value"]
        assert value == json.loads((tmp_path / "fresh/ope/wis.json").read_text())["value"]
        assert value != before
        assert run_digest(out) == run_digest(tmp_path / "fresh")

    def test_a_touched_table_reruns_nothing(self, dataset_path, tables, tmp_path, monkeypatch):
        config, out = _table_run(dataset_path, tables, tmp_path)
        manifest = (out / "manifest.json").read_bytes()
        _settle(out)
        os.utime(config.probs[0])
        hashed = _count_hashes(monkeypatch)
        run_pipeline(config, out)
        assert hashed == [os.path.abspath(config.probs[0])]
        assert _timing(out)["skipped"] == list(STAGES)
        assert (out / "manifest.json").read_bytes() == manifest

    def test_the_ope_record_holds_each_table_hash_in_config_order(
        self, dataset_path, tables, tmp_path
    ):
        paths = [tmp_path / "halved.json", tmp_path / "identity.json"]
        save_prob_table(tables[1], paths[0])
        save_prob_table(tables[0], paths[1])
        for i, probs in enumerate(([], paths, paths[::-1])):
            config = _config(dataset_path, probs=[str(p) for p in probs])
            manifest = run_pipeline(config, tmp_path / f"run{i}")
            assert manifest["stages"]["ope"]["inputs"] == {"probs": list(map(sha256_file, probs))}
            assert all("inputs" not in manifest["stages"][name] for name in STAGES[:-1])

    def test_a_missing_table_fails_ope_as_before(self, dataset_path, tables, tmp_path):
        config, out = _table_run(dataset_path, tables, tmp_path)
        os.unlink(config.probs[0])
        with pytest.raises(FormatError, match="^cannot read probability table .*probs.json: "):
            run_pipeline(config, out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stages"]["ope"]["status"] == "failed"
        assert _timing(out)["skipped"] == list(STAGES[:5])

    def test_an_ope_record_without_table_hashes_reruns_ope(self, dataset_path, tables, tmp_path):
        """A manifest written before tables were hashed resumes by rerunning ope once."""
        config, out = _table_run(dataset_path, tables, tmp_path)
        digest = run_digest(out)
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest["stages"]["ope"]["inputs"]
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
        run_pipeline(config, out)
        assert list(_timing(out)["stage_seconds"]) == ["ope"]
        assert run_digest(out) == digest

    @pytest.mark.parametrize("inputs", [[], {"probs": "abc"}, {"probs": [1]}, {"probs": None}])
    def test_a_malformed_inputs_record_is_refused(self, dataset_path, tables, tmp_path, inputs):
        config, out = _table_run(dataset_path, tables, tmp_path)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["stages"]["ope"]["inputs"] = inputs
        (out / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="run manifest needs a stages object"):
            PipelineRun(config, out)


# ---------------------------------------------------------------------------
# Any hashes.json leaves a resume as it is without one
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def finished_run(dataset_path, tables, tmp_path_factory):
    """A finished run over one table with its hashes.json removed, its
    manifest bytes and its digest."""
    config, out = _table_run(dataset_path, tables, tmp_path_factory.mktemp("fuzz"))
    (out / "hashes.json").unlink()
    return config, out, (out / "manifest.json").read_bytes(), run_digest(out)


def _true_entries(config, out: Path) -> dict:
    outputs = [p for name in STAGES for p in (out / name).rglob("*") if p.is_file()]
    files = [Path(config.dataset), *map(Path, config.probs), *outputs]
    return {os.path.abspath(p): [_stat_key(p), sha256_file(p)] for p in files}


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=12,
)


@st.composite
def _cache_files(draw, true: dict):
    """hashes.json bytes, and whether to make every file racy (hashes.json's
    mtime at 0, so no file's mtime is older)."""
    paths = sorted(true)
    kind = draw(st.sampled_from(
        ["garbage", "json", "odd entries", "other paths", "truncated", "wrong digests"]
    ))
    if kind == "garbage":
        return draw(st.binary(max_size=64)), draw(st.booleans())
    if kind == "json":
        return json.dumps(draw(_JSON)).encode(), draw(st.booleans())
    if kind == "odd entries":
        doc = draw(st.dictionaries(st.sampled_from(paths), _JSON, max_size=len(paths)))
        return json.dumps(doc).encode(), draw(st.booleans())
    if kind == "other paths":
        entry = st.tuples(st.lists(st.integers(0, 2**64), min_size=5, max_size=5),
                          st.text("0123456789abcdef", min_size=64, max_size=64)).map(list)
        doc = draw(st.dictionaries(st.text(min_size=1, max_size=12), entry, max_size=4))
        return json.dumps({**true, **doc}).encode(), draw(st.booleans())
    if kind == "truncated":
        whole = json.dumps(true).encode()
        return whole[: draw(st.integers(0, len(whole)))], False
    # A matching key with a wrong digest is caught only because it is racy.
    wrong = draw(st.lists(st.sampled_from(paths), min_size=1, unique=True))
    digests = st.text(max_size=70).filter(lambda s: s not in {sha for _, sha in true.values()})
    return json.dumps({**true, **{p: [true[p][0], draw(digests)] for p in wrong}}).encode(), True


@pytest.mark.parametrize(
    "content", [b"", b"{", b"[]", b"null", b'{"x": 1}', b"\xff\xfe", b"[" * 100_000]
)
def test_an_unusable_cache_is_read_as_empty(finished_run, tmp_path, content):
    config, run, manifest, digest = finished_run
    out = tmp_path / "run"
    shutil.copytree(run, out)
    (out / "hashes.json").write_bytes(content)
    run_pipeline(config, out)
    assert (out / "manifest.json").read_bytes() == manifest
    assert run_digest(out) == digest
    assert json.loads((out / "hashes.json").read_text()) == _true_entries(config, out)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_cache_leaves_the_resume_as_it_is_without_one(finished_run, data):
    config, run, manifest, digest = finished_run
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        shutil.copytree(run, out)
        true = _true_entries(config, out)
        content, racy = data.draw(_cache_files(true))
        cache = out / "hashes.json"
        cache.write_bytes(content)
        if racy:
            os.utime(cache, ns=(0, 0))
        run_pipeline(config, out)
        assert (out / "manifest.json").read_bytes() == manifest
        assert run_digest(out) == digest
        assert _timing(out)["skipped"] == list(STAGES)
        assert json.loads(cache.read_text()) == true
