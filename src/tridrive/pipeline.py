"""End-to-end run orchestration: stage execution, run manifests, resumption.

A run directory holds one manifest plus one subdirectory per stage:

    manifest.json           deterministic run record (hashes, statuses, champion)
    timing.json             wall-clock info (dataset load and the loaded dataset's
                            shape, per-stage seconds, stages skipped as fresh)
    hashes.json             each hashed file's stat key and sha256 (_HashCache);
                            like timing.json, volatile and excluded from the
                            reproducibility digest
    stats/metadata.json
    features/report.json    features/rounds/round_XXX.json
    candidates/spec_XXX.json, candidates/index.json, candidates/quarantine/
    fitness/report.json
    selection/report.json
    ope/wis.json, ope/mortality_curve.csv, ope/wis_series.csv (multi-table runs)

The run id is derived from the dataset's bytes and the settings, so
re-running the same inputs resumes, wherever the dataset file lies. Each
stage owns the directory of its name, and the manifest records every file
under it. The stages before the first that is not fresh are skipped; that
stage and every later one are reset in one manifest write (pending,
directories removed) and run again, so no status or file of an earlier
attempt outlives it. The dataset is read only when a stage runs, so a resume
with nothing to run reads no dataset, writes no manifest and records
"load_seconds": null and "dataset_shape": null. Each stage is one function
(stats_stage ... ope_stage) that the matching CLI subcommand calls too, so
both write the same files.

The ope stage also records the sha256 of each probability table it read,
as "inputs": {"probs": [...]} in config order, and is fresh only while
those still match, so a table rewritten in place reruns ope alone. The
table paths stay in the run id, since wis.json and wis_series.csv name
each table by its path.

Every sha256 a run takes (the dataset's, the tables', the outputs') goes
through hashes.json: a file whose size, mtime, ctime, inode and device are
unchanged, and whose mtime is older than hashes.json's, is trusted to hold
the bytes last hashed, so a settled resume reads only the manifest and the
cache. ctime cannot be set from user space, so a rewrite that puts its
mtime back is still caught. Not caught: a rewrite within the same clock
tick between a file's stat and the cache write, a filesystem that keeps no
POSIX ctime, and tampering with the clock or the block device. A
missing or unreadable hashes.json only means hashing everything again.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import shutil
import time
from dataclasses import asdict, astuple, dataclass, field, replace
from pathlib import Path
from typing import Sequence

from . import __version__, defaults
from .errors import (
    ConfigError,
    DegenerateStatisticError,
    FormatError,
    PipelineError,
    SchemaError,
    TridriveError,
    ValidationError,
)
from .features import (
    CohortSummary,
    FeatureMetadata,
    build_reward_prompt,
    compute_metadata,
    parse_reward_response,
    run_selection,
    summarize_dataset,
)
from .fitness import CompMetricConfig, FitnessVector, fitness
from .jsonio import from_json, read_json, write_json, write_text
from .llm import HttpLlmClient, LlmClient, LlmClientConfig, StubLlmClient
from .model import TrajectoryDataset, load_dataset
from .ope import (
    WisEstimate,
    bootstrap_ci,
    identity_prob_table,
    load_prob_table,
    mortality_curve,
)
from .pareto import Candidate, ParetoResult, pareto_result_to_json, select_champion
from .rewards import RewardSpec, load_reward_spec, reward_spec_to_json, trace

VOLATILE_FILES = {"timing.json", "hashes.json"}

SPLIT_NAMES = ("policy_train", "reward_train", "policy_test", "reward_test")


def assign_split(patient_id: str) -> str:
    """Deterministic 7:1:1:1 patient-level partition by hashed id."""
    digest = hashlib.sha256(patient_id.encode("utf-8")).digest()
    bucket = int.from_bytes(digest[:8], "big") % 10
    if bucket <= 6:
        return "policy_train"
    return SPLIT_NAMES[bucket - 6]


def filter_split(dataset: TrajectoryDataset, split: str | None) -> TrajectoryDataset:
    """The split's trajectories, as a dataset of their rows alone."""
    if split is None or split == "all":
        return dataset
    if split not in SPLIT_NAMES:
        raise ConfigError(f"unknown split {split!r}; expected one of {SPLIT_NAMES} or 'all'")
    kept = [traj for traj in dataset.trajectories if assign_split(traj.patient_id) == split]
    return replace(dataset, trajectories=kept)


# ---------------------------------------------------------------------------
# Hash helpers
# ---------------------------------------------------------------------------


_HASH_CHUNK = 1 << 20


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str | Path) -> str:
    """Digest of the file at path, read in 1 MB chunks so memory stays flat."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_HASH_CHUNK):
            h.update(chunk)
    return h.hexdigest()


class _HashCache:
    """Each file's sha256, reused while the file's stat key is unchanged.

    The cache file maps a file's absolute path to [[st_size, st_mtime_ns,
    st_ctime_ns, st_ino, st_dev], sha256]. A recorded digest is reused only
    when the key is equal and the file's mtime is older than the cache
    file's own (git's "racy git" rule: a file changed within the tick the
    cache was written is hashed again). A cache file that cannot be read or
    is not a JSON object is read as empty.
    """

    def __init__(self, path: Path):
        self.path = path
        self.loaded: dict = {}
        self.written_ns = 0
        self.seen: dict = {}
        try:
            with open(path, "rb") as fh:
                written_ns = os.fstat(fh.fileno()).st_mtime_ns
                doc = json.loads(fh.read())
        except (OSError, ValueError, RecursionError):  # missing, unreadable, not JSON
            return
        if isinstance(doc, dict):
            self.loaded, self.written_ns = doc, written_ns

    def sha256(self, path: str | Path) -> str:
        """The file's digest; raises OSError when it cannot be read. The file
        is stat'ed before it is hashed, so a change during the hash shows as
        a new key next time."""
        st = os.stat(path)
        key = [st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino, st.st_dev]
        name = os.path.abspath(path)
        entry = self.loaded.get(name)
        if (
            isinstance(entry, list) and len(entry) == 2 and entry[0] == key
            and isinstance(entry[1], str) and st.st_mtime_ns < self.written_ns
        ):
            digest = entry[1]
        else:
            digest = sha256_file(path)
        self.seen[name] = [key, digest]
        return digest

    def save(self) -> None:
        """Write the entries of the files looked up, unless they are the loaded ones."""
        if self.seen != self.loaded:
            write_json(self.path, self.seen)


def run_digest(run_dir: str | Path) -> str:
    """Digest of the whole run directory, skipping the volatile files."""
    root = Path(run_dir)
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        if rel in VOLATILE_FILES:
            continue
        h.update(rel.encode("utf-8"))
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def metadata_to_json(metadata: list[FeatureMetadata], summary: CohortSummary) -> dict:
    return {"summary": asdict(summary), "features": [asdict(m) for m in metadata]}


def metadata_from_json(doc: dict) -> list[FeatureMetadata]:
    return [FeatureMetadata(**row) for row in doc["features"]]


def load_feature_ids(path: str | Path) -> list[str]:
    """The selected features of a features report, or a JSON list of feature ids."""
    doc = read_json(path, "feature selection")
    ids = doc.get("selected_features") if isinstance(doc, dict) else doc
    if not (isinstance(ids, list) and all(isinstance(fid, str) for fid in ids)):
        raise FormatError(
            f"{path}: expected a features report with selected_features or a list of feature ids"
        )
    return ids


def _csv(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Candidate generation
# ---------------------------------------------------------------------------


def generate_candidates(
    dataset: TrajectoryDataset,
    feature_ids: list[str],
    client: LlmClient,
    n_candidates: int,
    out_dir: str | Path,
    task_description: str = defaults.TASK_DESCRIPTION,
    metadata: list[FeatureMetadata] | None = None,
) -> tuple[list[tuple[str, RewardSpec]], int]:
    """Ask the client for n candidate specs; invalid responses are quarantined
    with their diagnostics and valid specs are numbered in generation order."""
    if n_candidates < 1:
        raise ConfigError("need at least one candidate")
    if not feature_ids:
        raise ValidationError("candidate generation needs a nonempty feature set")
    out = Path(out_dir)
    if metadata is None:
        metadata = compute_metadata(dataset)
    by_id = {m.feature_id: m for m in metadata}
    missing = [fid for fid in feature_ids if fid not in by_id]
    if missing:
        raise ValidationError(f"no metadata for selected features {missing}")
    subset = [by_id[fid] for fid in sorted(feature_ids)]
    prompt = build_reward_prompt(
        subset,
        task_description,
        summarize_dataset(dataset),
        {aid: s.max_value for aid, s in dataset.action_schema.items()},
        {aid: s.discrete for aid, s in dataset.action_schema.items()},
    )

    valid: list[tuple[str, RewardSpec]] = []
    for i in range(n_candidates):
        response = client.complete(prompt)
        try:
            spec = parse_reward_response(response)
            missing_feats = set(feature_ids) - set(spec.survival)
            if missing_feats:
                raise ValidationError(f"spec omits selected features {sorted(missing_feats)}")
        except TridriveError as exc:
            doc = {"candidate_index": i, "reason": str(exc), "response": response}
            write_json(out / "quarantine" / f"candidate_{i:03d}.json", doc)
            continue
        spec_id = f"spec_{i:03d}"
        write_json(out / f"{spec_id}.json", reward_spec_to_json(spec))
        valid.append((spec_id, spec))
    quarantined = n_candidates - len(valid)
    write_json(out / "index.json", {
        "valid": [sid for sid, _ in valid], "quarantined": quarantined, "requested": n_candidates
    })
    return valid, quarantined


def _spec_ids(root: Path) -> list[str]:
    """The ids (file stems) of a directory's reward specs: the "valid" list
    of its index.json, as generate_candidates writes, or else every *.json
    file's, in file-name order."""
    index_path = root / "index.json"
    if not index_path.exists():
        return [file.stem for file in sorted(root.glob("*.json"))]
    index = read_json(index_path, "candidate index")
    ids = index.get("valid") if isinstance(index, dict) else None
    if not (isinstance(ids, list) and all(isinstance(sid, str) for sid in ids)):
        raise FormatError(f"{index_path}: expected a 'valid' list of spec ids")
    return ids


def load_spec_dir(path: str | Path) -> list[tuple[str, RewardSpec]]:
    """The reward specs of a directory as (id, spec), in _spec_ids order."""
    root = Path(path)
    specs = [(sid, load_reward_spec(root / f"{sid}.json")) for sid in _spec_ids(root)]
    if not specs:
        raise ConfigError(f"no reward specs found in {path}")
    return specs


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


def score_specs(
    dataset: TrajectoryDataset,
    specs: list[tuple[str, RewardSpec]],
    cfg: CompMetricConfig | None = None,
    feature_ids: list[str] | None = None,
) -> list[dict]:
    """Fitness rows per spec; degenerate candidates are flagged, not fatal."""
    targets = (cfg or CompMetricConfig()).prepare(dataset)
    rows = []
    for spec_id, spec in specs:
        try:
            vec = fitness(dataset, spec, feature_ids, targets)
            rows.append({"spec_id": spec_id, **asdict(vec)})
        except (DegenerateStatisticError, SchemaError, ValidationError) as exc:
            rows.append({"spec_id": spec_id, "error": str(exc)})
    return rows


def pareto_from_rows(rows: list[dict]) -> ParetoResult:
    """Rank the rows of a fitness report; rows carrying an error are skipped."""
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise FormatError("fitness report must be a JSON array of objects")
    candidates = []
    for row in rows:
        if "error" in row:
            continue
        values = [row.get(axis) for axis in ("j_surv", "j_conf", "j_comp")]
        if type(row.get("spec_id")) is not str or any(type(v) not in (int, float) for v in values):
            raise FormatError(f"fitness row {row}: needs a spec_id, j_surv, j_conf and j_comp")
        candidates.append(Candidate(spec_id=row["spec_id"], fitness=FitnessVector(*values)))
    if not candidates:
        raise PipelineError("no valid candidates to rank")
    return select_champion(candidates)


# ---------------------------------------------------------------------------
# Stages. Each is shared by its CLI subcommand and PipelineRun, and returns
# its result; PipelineRun records every file under the stage's directory.
# ---------------------------------------------------------------------------


def stats_stage(dataset: TrajectoryDataset, out_path: Path) -> list[FeatureMetadata]:
    metadata = compute_metadata(dataset)
    write_json(out_path, metadata_to_json(metadata, summarize_dataset(dataset)))
    return metadata


def features_stage(
    dataset: TrajectoryDataset,
    client: LlmClient,
    out_dir: Path,
    *,
    rounds: int,
    threshold: float,
    k: int,
    task: str,
    metadata: list[FeatureMetadata] | None = None,
) -> list[str]:
    """The vote, with each round's response under out_dir/rounds; fails when
    no feature reaches the threshold."""
    outcome = run_selection(
        dataset,
        client,
        n_rounds=rounds,
        threshold=threshold,
        k=k,
        task_description=task,
        audit_dir=out_dir / "rounds",
        metadata=metadata,
    )
    if not outcome.selected:
        raise PipelineError(
            "ensemble vote selected no features; lower the threshold or inspect the rounds"
        )
    selected = sorted(outcome.selected)
    report = {
        "selected_features": selected,
        "votes": outcome.votes,
        "rounds": rounds,
        "threshold": threshold,
        "k": k,
    }
    write_json(out_dir / "report.json", report)
    return selected


def candidates_stage(
    dataset: TrajectoryDataset,
    feature_ids: list[str],
    client: LlmClient,
    out_dir: Path,
    *,
    n_candidates: int,
    task: str,
    metadata: list[FeatureMetadata] | None = None,
) -> list[tuple[str, RewardSpec]]:
    """generate_candidates into out_dir; fails when every candidate was quarantined."""
    valid, _ = generate_candidates(
        dataset,
        feature_ids,
        client,
        n_candidates,
        out_dir,
        task_description=task,
        metadata=metadata,
    )
    if not valid:
        raise PipelineError("every generated candidate was quarantined")
    return valid


def fitness_stage(
    dataset: TrajectoryDataset,
    specs: list[tuple[str, RewardSpec]],
    out_path: Path,
    *,
    cfg: CompMetricConfig,
    feature_ids: list[str] | None,
) -> list[dict]:
    rows = score_specs(dataset, specs, cfg, feature_ids)
    write_json(out_path, rows)
    return rows


def selection_stage(fitness_path: Path, out_path: Path) -> ParetoResult:
    result = pareto_from_rows(read_json(fitness_path, "fitness report"))
    write_json(out_path, pareto_result_to_json(result))
    return result


def ope_stage(
    dataset: TrajectoryDataset,
    spec: RewardSpec,
    probs_paths: Sequence[str],
    out_dir: Path,
    *,
    level: float,
    resamples: int,
    seed: int,
    bins: int,
    max_ratio: float | None = None,
    champion: str | None = None,
) -> WisEstimate:
    """Evaluates each policy table in order (the logged policy when there are
    none) with a bootstrap WIS interval. Tables are loaded, evaluated and
    dropped one at a time, so memory does not grow with the table count.
    Writes wis.json (the last table, headed by the champion when given),
    wis_series.csv (several tables) and mortality_curve.csv into out_dir,
    only once every estimate and the curve are computed, so a bad input
    leaves no file. Returns the last estimate.
    """
    traces = [trace(traj, spec) for traj in dataset.trajectories]
    series: list[tuple[str, WisEstimate]] = []
    for path in probs_paths or [None]:
        table = identity_prob_table(dataset) if path is None else load_prob_table(path)
        est = bootstrap_ci(
            dataset, traces, table, level=level, resamples=resamples, seed=seed,
            max_ratio=max_ratio,
        )
        del table  # before the next table loads
        series.append(("logged-policy" if path is None else str(path), est))

    curve = [astuple(row) for row in mortality_curve(dataset, traces, bins)]
    label, est = series[-1]
    doc = {} if champion is None else {"champion": champion}
    doc.update(
        policy=label,
        value=est.value,
        ci_low=est.ci_low,
        ci_high=est.ci_high,
        level=level,
        resamples=resamples,
        n_effective=est.n_effective,
        skipped_resamples=est.skipped_resamples,
    )
    write_json(out_dir / "wis.json", doc)
    if len(series) > 1:
        rows = [(i, policy, e.value, e.ci_low, e.ci_high) for i, (policy, e) in enumerate(series)]
        header = ["checkpoint", "policy", "value", "ci_low", "ci_high"]
        write_text(out_dir / "wis_series.csv", _csv(header, rows))
    header = ["bin", "reward_low", "reward_high", "mortality", "count"]
    write_text(out_dir / "mortality_curve.csv", _csv(header, curve))
    return est


# ---------------------------------------------------------------------------
# Pipeline configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineConfig:
    dataset: str
    client: str = "stub"
    llm: LlmClientConfig = field(default_factory=LlmClientConfig)
    rounds: int = defaults.CANDIDATE_COUNT
    threshold: float = defaults.CONSENSUS_THRESHOLD
    k: int = defaults.FEATURE_COUNT
    candidates: int = defaults.CANDIDATE_COUNT
    task: str = defaults.TASK_DESCRIPTION
    probs: list[str] = field(default_factory=list)
    bootstrap: int = defaults.BOOTSTRAP_RESAMPLES
    level: float = defaults.BOOTSTRAP_LEVEL
    bins: int = defaults.MORTALITY_BINS
    seed: int = 0
    split: str | None = None
    metric: CompMetricConfig = field(default_factory=CompMetricConfig)

    def __post_init__(self):
        if self.client not in ("stub", "http"):
            raise ConfigError("client must be 'stub' or 'http'")
        if not (0.0 < self.threshold <= 1.0):
            raise ConfigError("threshold must lie in (0, 1]")
        if self.rounds < 1 or self.candidates < 1 or self.k < 1:
            raise ConfigError("rounds, candidates, and k must be positive")
        if not (0.0 < self.level < 1.0):
            raise ConfigError("level must lie in (0, 1)")
        if self.bootstrap < 1 or self.bins < 1:
            raise ConfigError("bootstrap and bins must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.split is not None and self.split != "all" and self.split not in SPLIT_NAMES:
            raise ConfigError(f"unknown split {self.split!r}")

    def canonical_json(self) -> str:
        """Every setting but the dataset's path: the run id hashes its bytes."""
        doc = {key: value for key, value in asdict(self).items() if key != "dataset"}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def pipeline_config_from_json(doc: dict) -> PipelineConfig:
    """The keys are PipelineConfig's fields, with llm and metric objects;
    probs may be one path instead of a list."""
    if isinstance(doc, dict) and isinstance(doc.get("probs"), str):
        doc = {**doc, "probs": [doc["probs"]]}
    return from_json(doc, PipelineConfig, "pipeline config")


def load_pipeline_config(path: str | Path) -> PipelineConfig:
    return pipeline_config_from_json(read_json(path, "pipeline config"))


def build_client(client: str, llm: LlmClientConfig) -> LlmClient:
    """The client named "stub" or "http"; llm configures the HTTP one."""
    return StubLlmClient() if client == "stub" else HttpLlmClient(llm)


# ---------------------------------------------------------------------------
# The pipeline runner
# ---------------------------------------------------------------------------

STAGES = ("stats", "features", "candidates", "fitness", "selection", "ope")


def _stage_record_ok(record) -> bool:
    """Whether a manifest stage record has the shape _stage_fresh reads."""
    if not isinstance(record, dict) or not isinstance(record.get("status"), str):
        return False
    outputs, inputs = record.get("outputs", {}), record.get("inputs", {})
    return (
        isinstance(outputs, dict) and all(isinstance(sha, str) for sha in outputs.values())
        and isinstance(inputs, dict) and all(
            isinstance(shas, list) and all(isinstance(sha, str) for sha in shas)
            for shas in inputs.values()
        )
    )


class PipelineRun:
    """Executes the staged pipeline inside one run directory."""

    def __init__(self, config: PipelineConfig, out_dir: str | Path):
        self.config = config
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.out / "manifest.json"
        self.hashes = _HashCache(self.out / "hashes.json")
        try:
            dataset_sha = self.hashes.sha256(config.dataset)
        except OSError as exc:
            raise ConfigError(f"cannot read dataset {config.dataset}: {exc}") from exc
        config_sha = sha256_bytes(config.canonical_json().encode("utf-8"))
        self.run_id = sha256_bytes(f"{dataset_sha}:{config_sha}".encode("utf-8"))[:16]
        self.manifest = self._load_or_init_manifest(dataset_sha, config_sha)

    # -- manifest -------------------------------------------------------

    def _load_or_init_manifest(self, dataset_sha: str, config_sha: str) -> dict:
        if self.manifest_path.exists():
            manifest = read_json(self.manifest_path, "run manifest")
            if not isinstance(manifest, dict):
                raise FormatError(f"{self.manifest_path}: run manifest must be a JSON object")
            if manifest.get("run_id") != self.run_id:
                raise ConfigError(
                    f"run directory {self.out} belongs to run {manifest.get('run_id')}; "
                    f"inputs now hash to run {self.run_id} (use a fresh directory)"
                )
            stages = manifest.get("stages")
            if not (
                isinstance(stages, dict)
                and all(map(_stage_record_ok, stages.values()))
                and "champion" in manifest
                and isinstance(manifest["champion"], (str, type(None)))
            ):
                raise FormatError(
                    f"{self.manifest_path}: run manifest needs a stages object of records, "
                    "each with a string status, any outputs as an object of file hashes and "
                    "any inputs as an object of hash lists, and a string or null champion"
                )
            return manifest
        # A reset removes stage directories; without a manifest, this run
        # did not write the ones here.
        if any((self.out / name).exists() for name in STAGES):
            raise ConfigError(
                f"run directory {self.out} holds stage outputs but no manifest.json "
                "(use a fresh directory)"
            )
        return {
            "run_id": self.run_id,
            "tool_version": __version__,
            "seed": self.config.seed,
            "inputs": {"dataset": dataset_sha, "config": config_sha},
            "stages": {name: {"status": "pending"} for name in STAGES},
            "champion": None,
        }

    def _stage_fresh(self, name: str) -> bool:
        """Complete, with every recorded output and input hash still current."""
        record = self.manifest["stages"].get(name, {})
        if record.get("status") != "complete":
            return False
        try:
            return all(
                self.hashes.sha256(self.out / rel) == sha
                for rel, sha in record.get("outputs", {}).items()
            ) and record.get("inputs") == self._inputs(name)
        except OSError:  # a recorded output or an input is gone or unreadable
            return False

    def _inputs(self, name: str) -> dict | None:
        """The hashed inputs the stage records beside its outputs: the ope
        stage's probability tables, in config order. Raises OSError when a
        table cannot be read."""
        if name != "ope":
            return None
        return {"probs": [self.hashes.sha256(path) for path in self.config.probs]}

    def _reset(self, names: Sequence[str]) -> None:
        """Mark the stages pending (and the champion unset when selection is
        among them) in one manifest write, then remove their directories."""
        for name in names:
            self.manifest["stages"][name] = {"status": "pending"}
        if "selection" in names:
            self.manifest["champion"] = None
        write_json(self.manifest_path, self.manifest)
        for name in names:
            if (self.out / name).exists():
                shutil.rmtree(self.out / name)

    def _record_outputs(self, name: str, inputs: dict | None) -> None:
        """Mark the stage complete with the hash of every file under its
        directory, and with its inputs' hashes when it has any."""
        files = sorted(p for p in (self.out / name).rglob("*") if p.is_file())
        outputs = {f.relative_to(self.out).as_posix(): self.hashes.sha256(f) for f in files}
        record = {"status": "complete", "outputs": outputs}
        if inputs is not None:
            record["inputs"] = inputs
        self.manifest["stages"][name] = record
        write_json(self.manifest_path, self.manifest)

    # -- stages ---------------------------------------------------------

    def execute(self) -> dict:
        """Run (or resume) every stage in order; returns the manifest.

        The first stage that is not fresh and every later one (each reads the
        outputs of those before it) are reset, then run after one dataset
        load, so a resume with every stage fresh reads no dataset and writes
        no manifest. Only the stages that call the model build an LLM client.
        """
        timing = {"load_seconds": None, "dataset_shape": None, "stage_seconds": {}, "skipped": []}
        try:
            todo = list(STAGES)
            while todo and self._stage_fresh(todo[0]):
                timing["skipped"].append(todo.pop(0))
            if todo:
                self._reset(todo)
                dataset = self._load_dataset(timing)
            for name in todo:
                start = time.perf_counter()
                try:
                    inputs = getattr(self, f"_run_{name}")(dataset)
                    self._record_outputs(name, inputs)
                except TridriveError as exc:
                    self.manifest["stages"][name] = {"status": "failed", "error": str(exc)}
                    write_json(self.manifest_path, self.manifest)
                    raise
                timing["stage_seconds"][name] = round(time.perf_counter() - start, 6)
        finally:
            written_at = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
            write_json(self.out / "timing.json", {"written_at": written_at, **timing})
            self.hashes.save()
        return self.manifest

    def _load_dataset(self, timing: dict) -> TrajectoryDataset:
        """The split's dataset; records the load seconds and shape in timing."""
        start = time.perf_counter()
        dataset = filter_split(load_dataset(self.config.dataset), self.config.split)
        shape = {"patients": len(dataset.trajectories), "steps": len(dataset.columns.t)}
        timing.update(load_seconds=round(time.perf_counter() - start, 6), dataset_shape=shape)
        if not dataset.trajectories:
            raise PipelineError("dataset (after split filtering) has no trajectories")
        return dataset

    # Each _run_<stage> calls its stage function, writing into its directory,
    # and returns the hashes of the inputs it read beyond earlier stages' (or None).

    def _run_stats(self, dataset: TrajectoryDataset) -> None:
        stats_stage(dataset, self.out / "stats/metadata.json")

    def _load_metadata(self) -> list[FeatureMetadata]:
        return metadata_from_json(read_json(self.out / "stats/metadata.json", "statistics"))

    def _run_features(self, dataset: TrajectoryDataset) -> None:
        features_stage(
            dataset,
            build_client(self.config.client, self.config.llm),
            self.out / "features",
            rounds=self.config.rounds,
            threshold=self.config.threshold,
            k=self.config.k,
            task=self.config.task,
            metadata=self._load_metadata(),
        )

    def _run_candidates(self, dataset: TrajectoryDataset) -> None:
        candidates_stage(
            dataset,
            load_feature_ids(self.out / "features/report.json"),
            build_client(self.config.client, self.config.llm),
            self.out / "candidates",
            n_candidates=self.config.candidates,
            task=self.config.task,
            metadata=self._load_metadata(),
        )

    def _run_fitness(self, dataset: TrajectoryDataset) -> None:
        fitness_stage(
            dataset,
            load_spec_dir(self.out / "candidates"),
            self.out / "fitness/report.json",
            cfg=self.config.metric,
            feature_ids=load_feature_ids(self.out / "features/report.json"),
        )

    def _run_selection(self, dataset: TrajectoryDataset) -> None:
        src, dst = self.out / "fitness/report.json", self.out / "selection/report.json"
        self.manifest["champion"] = selection_stage(src, dst).champion

    def _run_ope(self, dataset: TrajectoryDataset) -> dict:
        champion_id = self.manifest["champion"]
        candidates = self.out / "candidates"
        if champion_id not in _spec_ids(candidates):
            raise FormatError(f"{self.manifest_path}: champion {champion_id!r} is not a candidate")
        try:  # before the stage reads them, so a later rewrite reruns it
            inputs = self._inputs("ope")
        except OSError as exc:
            raise FormatError(f"cannot read probability table {exc.filename}: {exc}") from exc
        ope_stage(
            dataset,
            load_reward_spec(candidates / f"{champion_id}.json"),
            self.config.probs,
            self.out / "ope",
            level=self.config.level,
            resamples=self.config.bootstrap,
            seed=self.config.seed,
            bins=self.config.bins,
            champion=champion_id,
        )
        return inputs


def run_pipeline(config: PipelineConfig, out_dir: str | Path) -> dict:
    return PipelineRun(config, out_dir).execute()
