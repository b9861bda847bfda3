"""End-to-end run orchestration: stage execution, run manifests, resumption.

A run directory holds one manifest plus one subdirectory per stage:

    manifest.json           deterministic run record (hashes, statuses, champion)
    timing.json             wall-clock info (dataset load and the loaded dataset's
                            shape, per-stage seconds, stages skipped as fresh);
                            the only volatile file, excluded from the
                            reproducibility digest
    stats/metadata.json
    features/report.json    features/rounds/round_XXX.json
    candidates/spec_XXX.json, candidates/index.json, candidates/quarantine/
    fitness/report.json
    selection/report.json
    ope/wis.json, ope/mortality_curve.csv, ope/wis_series.csv (multi-table runs)

The run id is derived from the input hashes and the seed, so re-running the
same inputs resumes: stages whose recorded output hashes still match on
disk are skipped, and a failed stage leaves earlier outputs intact. The
dataset is read only when a stage that needs it runs, so a resume with
nothing to run reads no dataset and records "load_seconds": null and
"dataset_shape": null. Each stage is one function (stats_stage ...
ope_stage) that the matching CLI subcommand calls too, so both write the
same files.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
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
from .jsonio import fields_from_json, read_json, write_json, write_text
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

VOLATILE_FILES = {"timing.json"}

SPLIT_NAMES = ("policy_train", "reward_train", "policy_test", "reward_test")


def assign_split(patient_id: str) -> str:
    """Deterministic 7:1:1:1 patient-level partition by hashed id."""
    digest = hashlib.sha256(patient_id.encode("utf-8")).digest()
    bucket = int.from_bytes(digest[:8], "big") % 10
    if bucket <= 6:
        return "policy_train"
    return SPLIT_NAMES[bucket - 6]


def filter_split(dataset: TrajectoryDataset, split: str | None) -> TrajectoryDataset:
    """The split's trajectories, as views of a new block of their rows alone."""
    if split is None or split == "all":
        return dataset
    if split not in SPLIT_NAMES:
        raise ConfigError(f"unknown split {split!r}; expected one of {SPLIT_NAMES} or 'all'")
    trajs = dataset.trajectories
    ks = [k for k, traj in enumerate(trajs) if assign_split(traj.patient_id) == split]
    if not ks:
        return replace(dataset, trajectories=[])
    kept = [(trajs[k].patient_id, trajs[k].survived, trajs[k].sofa_baseline) for k in ks]
    return replace(dataset, trajectories=dataset.columns.take(ks).views(*zip(*kept)))


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


def run_digest(run_dir: str | Path) -> str:
    """Digest of the whole run directory, skipping the volatile timing file."""
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
    quarantined = 0
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
            quarantined += 1
            continue
        spec_id = f"spec_{i:03d}"
        write_json(out / f"{spec_id}.json", reward_spec_to_json(spec))
        valid.append((spec_id, spec))
    index = {
        "valid": [sid for sid, _ in valid],
        "quarantined": quarantined,
        "requested": n_candidates,
    }
    write_json(out / "index.json", index)
    return valid, quarantined


def load_spec_dir(path: str | Path) -> list[tuple[str, RewardSpec]]:
    """The reward specs of a directory as (id, spec), id = file stem. With an
    index.json (as generate_candidates writes), the specs its "valid" list
    names, in that order; otherwise every *.json file, in file-name order."""
    root = Path(path)
    index_path = root / "index.json"
    if index_path.exists():
        index = read_json(index_path, "candidate index")
        ids = index.get("valid") if isinstance(index, dict) else None
        if not (isinstance(ids, list) and all(isinstance(sid, str) for sid in ids)):
            raise FormatError(f"{index_path}: expected a 'valid' list of spec ids")
        files = [root / f"{sid}.json" for sid in ids]
    else:
        files = sorted(root.glob("*.json"))
    specs = [(file.stem, load_reward_spec(file)) for file in files]
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
# its result and the files it wrote.
# ---------------------------------------------------------------------------


def stats_stage(
    dataset: TrajectoryDataset, out_path: Path
) -> tuple[list[FeatureMetadata], list[Path]]:
    metadata = compute_metadata(dataset)
    doc = metadata_to_json(metadata, summarize_dataset(dataset))
    return metadata, [write_json(out_path, doc)]


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
) -> tuple[list[str], list[Path]]:
    """The vote, with each round's response under out_dir/rounds; fails when
    no feature reaches the threshold."""
    rounds_dir = out_dir / "rounds"
    outcome = run_selection(
        dataset,
        client,
        n_rounds=rounds,
        threshold=threshold,
        k=k,
        task_description=task,
        audit_dir=rounds_dir,
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
    path = write_json(out_dir / "report.json", report)
    return selected, [path] + sorted(rounds_dir.glob("round_*.json"))


def candidates_stage(
    dataset: TrajectoryDataset,
    feature_ids: list[str],
    client: LlmClient,
    out_dir: Path,
    *,
    n_candidates: int,
    task: str,
    metadata: list[FeatureMetadata] | None = None,
) -> tuple[list[tuple[str, RewardSpec]], list[Path]]:
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
    return valid, sorted(out_dir.rglob("*.json"))


def fitness_stage(
    dataset: TrajectoryDataset,
    specs: list[tuple[str, RewardSpec]],
    out_path: Path,
    *,
    cfg: CompMetricConfig,
    feature_ids: list[str] | None,
) -> tuple[list[dict], list[Path]]:
    rows = score_specs(dataset, specs, cfg, feature_ids)
    return rows, [write_json(out_path, rows)]


def selection_stage(fitness_path: Path, out_path: Path) -> tuple[ParetoResult, list[Path]]:
    result = pareto_from_rows(read_json(fitness_path, "fitness report"))
    return result, [write_json(out_path, pareto_result_to_json(result))]


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
) -> tuple[WisEstimate, list[Path]]:
    """Evaluates each policy table in order (the logged policy when there are
    none) with a bootstrap WIS interval. Tables are loaded, evaluated and
    dropped one at a time, so memory does not grow with the table count.
    Writes wis.json (the last table, headed by the champion when given),
    wis_series.csv (several tables) and mortality_curve.csv into out_dir,
    only once every estimate and the curve are computed, so a bad input
    leaves no file. Returns the last estimate and the files written.
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
    files = [write_json(out_dir / "wis.json", doc)]
    if len(series) > 1:
        rows = [(i, policy, e.value, e.ci_low, e.ci_high) for i, (policy, e) in enumerate(series)]
        header = ["checkpoint", "policy", "value", "ci_low", "ci_high"]
        files.append(write_text(out_dir / "wis_series.csv", _csv(header, rows)))
    header = ["bin", "reward_low", "reward_high", "mortality", "count"]
    files.append(write_text(out_dir / "mortality_curve.csv", _csv(header, curve)))
    return est, files


# ---------------------------------------------------------------------------
# Pipeline configuration
# ---------------------------------------------------------------------------

@dataclass
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

    def validate(self) -> None:
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
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


def pipeline_config_from_json(doc: dict) -> PipelineConfig:
    """The keys are PipelineConfig's fields, with llm and metric objects;
    probs may be one path instead of a list."""
    what = "pipeline config"
    if isinstance(doc, dict) and isinstance(doc.get("probs"), str):
        doc = {**doc, "probs": [doc["probs"]]}
    kwargs = fields_from_json(PipelineConfig, doc, what)
    llm = fields_from_json(LlmClientConfig, kwargs.get("llm", {}), f"{what}: llm")
    metric = fields_from_json(CompMetricConfig, kwargs.get("metric", {}), f"{what}: metric")
    config = PipelineConfig(
        **{**kwargs, "llm": LlmClientConfig(**llm), "metric": CompMetricConfig(**metric)}
    )
    config.validate()
    return config


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
    outputs = record.get("outputs", {})
    return isinstance(outputs, dict) and all(isinstance(sha, str) for sha in outputs.values())


class PipelineRun:
    """Executes the staged pipeline inside one run directory."""

    def __init__(self, config: PipelineConfig, out_dir: str | Path):
        config.validate()
        self.config = config
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.out / "manifest.json"
        try:
            dataset_sha = sha256_file(config.dataset)
        except OSError as exc:
            raise ConfigError(f"cannot read dataset {config.dataset}: {exc}") from exc
        config_sha = sha256_bytes(config.canonical_json().encode("utf-8"))
        self.run_id = sha256_bytes(
            f"{dataset_sha}:{config_sha}:{config.seed}".encode("utf-8")
        )[:16]
        self.manifest = self._load_or_init_manifest(dataset_sha, config_sha)
        self._load_seconds: float | None = None
        self._dataset_shape: dict[str, int] | None = None
        self._timing: dict[str, float] = {}
        self._skipped: list[str] = []

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
                    "each with a string status and any outputs as an object of file hashes, "
                    "and a string or null champion"
                )
            return manifest
        return {
            "run_id": self.run_id,
            "tool_version": __version__,
            "seed": self.config.seed,
            "inputs": {"dataset": dataset_sha, "config": config_sha},
            "stages": {name: {"status": "pending"} for name in STAGES},
            "champion": None,
        }

    def _write_timing(self) -> None:
        doc = {
            "written_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            "load_seconds": self._load_seconds,
            "dataset_shape": self._dataset_shape,
            "stage_seconds": {k: round(v, 6) for k, v in self._timing.items()},
            "skipped": self._skipped,
        }
        write_json(self.out / "timing.json", doc)

    def _stage_fresh(self, name: str) -> bool:
        record = self.manifest["stages"].get(name, {})
        if record.get("status") != "complete":
            return False
        for rel, sha in record.get("outputs", {}).items():
            path = self.out / rel
            if not path.exists() or sha256_file(path) != sha:
                return False
        return True

    def _record_outputs(self, name: str, files: list[Path]) -> None:
        outputs = {
            f.relative_to(self.out).as_posix(): sha256_file(f) for f in sorted(files)
        }
        self.manifest["stages"][name] = {"status": "complete", "outputs": outputs}
        write_json(self.manifest_path, self.manifest)

    # -- stages ---------------------------------------------------------

    def execute(self) -> dict:
        """Run (or resume) every stage in order; returns the manifest.

        The dataset loads once, before the first stage that runs and reads
        it, so a resume with every stage fresh reads no dataset: run_id
        already pins its bytes, and freshness depends only on the manifest
        and the output hashes. Likewise only the stages that call the model
        build an LLM client.
        """
        self._timing, self._skipped = {}, []
        self._load_seconds = self._dataset_shape = None
        dataset = None
        for name in STAGES:
            if self._stage_fresh(name):
                self._skipped.append(name)
                continue
            if dataset is None and name != "selection":
                dataset = self._load_dataset()
            start = time.perf_counter()
            try:
                self._record_outputs(name, getattr(self, f"_run_{name}")(dataset))
            except TridriveError as exc:
                self.manifest["stages"][name] = {"status": "failed", "error": str(exc)}
                write_json(self.manifest_path, self.manifest)
                self._write_timing()
                raise
            self._timing[name] = time.perf_counter() - start
        self._write_timing()
        return self.manifest

    def _load_dataset(self) -> TrajectoryDataset:
        start = time.perf_counter()
        dataset = filter_split(load_dataset(self.config.dataset), self.config.split)
        self._load_seconds = round(time.perf_counter() - start, 6)
        self._dataset_shape = {
            "patients": len(dataset.trajectories),
            "steps": len(dataset.columns.t),
        }
        if not dataset.trajectories:
            raise PipelineError("dataset (after split filtering) has no trajectories")
        return dataset

    # Each _run_<stage> calls its stage function and returns the files written.
    # Selection reads only the fitness report, so no dataset is loaded for it.

    def _run_stats(self, dataset: TrajectoryDataset) -> list[Path]:
        return stats_stage(dataset, self.out / "stats/metadata.json")[1]

    def _load_metadata(self) -> list[FeatureMetadata]:
        return metadata_from_json(read_json(self.out / "stats/metadata.json", "statistics"))

    def _run_features(self, dataset: TrajectoryDataset) -> list[Path]:
        return features_stage(
            dataset,
            build_client(self.config.client, self.config.llm),
            self.out / "features",
            rounds=self.config.rounds,
            threshold=self.config.threshold,
            k=self.config.k,
            task=self.config.task,
            metadata=self._load_metadata(),
        )[1]

    def _run_candidates(self, dataset: TrajectoryDataset) -> list[Path]:
        return candidates_stage(
            dataset,
            load_feature_ids(self.out / "features/report.json"),
            build_client(self.config.client, self.config.llm),
            self.out / "candidates",
            n_candidates=self.config.candidates,
            task=self.config.task,
            metadata=self._load_metadata(),
        )[1]

    def _run_fitness(self, dataset: TrajectoryDataset) -> list[Path]:
        return fitness_stage(
            dataset,
            load_spec_dir(self.out / "candidates"),
            self.out / "fitness/report.json",
            cfg=self.config.metric,
            feature_ids=load_feature_ids(self.out / "features/report.json"),
        )[1]

    def _run_selection(self, dataset: TrajectoryDataset | None) -> list[Path]:
        result, files = selection_stage(
            self.out / "fitness/report.json", self.out / "selection/report.json"
        )
        self.manifest["champion"] = result.champion
        return files

    def _run_ope(self, dataset: TrajectoryDataset) -> list[Path]:
        champion_id = self.manifest["champion"]
        specs = dict(load_spec_dir(self.out / "candidates"))
        if champion_id not in specs:
            raise FormatError(f"{self.manifest_path}: champion {champion_id!r} is not a candidate")
        return ope_stage(
            dataset,
            specs[champion_id],
            self.config.probs,
            self.out / "ope",
            level=self.config.level,
            resamples=self.config.bootstrap,
            seed=self.config.seed,
            bins=self.config.bins,
            champion=champion_id,
        )[1]


def run_pipeline(config: PipelineConfig, out_dir: str | Path) -> dict:
    return PipelineRun(config, out_dir).execute()
