"""End-to-end run orchestration: stage execution, run manifests, resumption.

A run directory holds one manifest plus one subdirectory per stage:

    manifest.json           deterministic run record (hashes, statuses, champion)
    timing.json             wall-clock info (dataset load, per-stage seconds, stages
                            skipped as fresh); the only volatile file, excluded
                            from the reproducibility digest
    stats/metadata.json
    features/report.json    features/rounds/round_XXX.json
    candidates/spec_XXX.json, candidates/index.json, candidates/quarantine/
    fitness/report.json
    selection/report.json
    ope/wis.json, ope/mortality_curve.csv, ope/wis_series.csv (multi-table runs)

The run id is derived from the input hashes and the seed, so re-running the
same inputs resumes: stages whose recorded output hashes still match on
disk are skipped, and a failed stage leaves earlier outputs intact.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from . import defaults
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
    FeatureMetadata,
    build_reward_prompt,
    compute_metadata,
    parse_reward_response,
    run_selection,
    summarize_dataset,
)
from .fitness import CompMetricConfig, FitnessTargets, FitnessVector, fitness
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

TOOL_VERSION = "0.1.0"
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
    if split is None or split == "all":
        return dataset
    if split not in SPLIT_NAMES:
        raise ConfigError(f"unknown split {split!r}; expected one of {SPLIT_NAMES} or 'all'")
    kept = [t for t in dataset.trajectories if assign_split(t.patient_id) == split]
    return TrajectoryDataset(
        trajectories=kept,
        feature_schema=dataset.feature_schema,
        action_schema=dataset.action_schema,
    )


# ---------------------------------------------------------------------------
# Hash helpers
# ---------------------------------------------------------------------------


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str | Path) -> str:
    return sha256_bytes(Path(path).read_bytes())


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


def metadata_to_json(metadata: list[FeatureMetadata], summary) -> dict:
    return {
        "summary": {
            "n_patients": summary.n_patients,
            "n_records": summary.n_records,
            "mortality_rate": summary.mortality_rate,
        },
        "features": [
            {
                "feature_id": m.feature_id,
                "count": m.count,
                "mean": m.mean,
                "std": m.std,
                "missingness": m.missingness,
                "rho_outcome": m.rho_outcome,
                "rho_action": m.rho_action,
                "q25": m.q25,
                "median": m.median,
                "q75": m.q75,
                "iqr": m.iqr,
            }
            for m in metadata
        ],
    }


def metadata_from_json(doc: dict) -> list[FeatureMetadata]:
    return [
        FeatureMetadata(
            feature_id=row["feature_id"],
            count=row["count"],
            mean=row["mean"],
            std=row["std"],
            missingness=row["missingness"],
            rho_outcome=row["rho_outcome"],
            rho_action=row["rho_action"],
            q25=row["q25"],
            median=row["median"],
            q75=row["q75"],
            iqr=row["iqr"],
        )
        for row in doc["features"]
    ]


def mortality_rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["bin", "reward_low", "reward_high", "mortality", "count"])
    for r in rows:
        writer.writerow([r.bin_index, r.reward_low, r.reward_high, r.mortality, r.count])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Off-policy evaluation
# ---------------------------------------------------------------------------


def run_ope(
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
    """The OPE stage of `tridrive ope` and of a pipeline run.

    Evaluates each policy table in order (the logged policy when there are
    none) with a bootstrap WIS interval. Tables are loaded, evaluated and
    dropped one at a time, so memory does not grow with the table count.
    Writes wis.json (the last table, headed by the champion when given),
    wis_series.csv (several tables) and mortality_curve.csv into out_dir.
    Returns the last estimate and the files written.
    """
    traces = [trace(traj, spec) for traj in dataset.trajectories]
    out_dir.mkdir(parents=True, exist_ok=True)
    series: list[tuple[str, WisEstimate]] = []
    for path in probs_paths or [None]:
        table = identity_prob_table(dataset) if path is None else load_prob_table(path)
        est = bootstrap_ci(
            dataset, traces, table, level=level, resamples=resamples, seed=seed,
            max_ratio=max_ratio,
        )
        del table  # before the next table loads
        series.append(("logged-policy" if path is None else str(path), est))

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
    wis_path = out_dir / "wis.json"
    wis_path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    files = [wis_path]

    if len(series) > 1:
        series_path = out_dir / "wis_series.csv"
        with series_path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["checkpoint", "policy", "value", "ci_low", "ci_high"])
            for i, (policy, row) in enumerate(series):
                writer.writerow([i, policy, row.value, row.ci_low, row.ci_high])
        files.append(series_path)

    curve_path = out_dir / "mortality_curve.csv"
    curve_path.write_text(
        mortality_rows_to_csv(mortality_curve(dataset, traces, bins)), encoding="utf-8"
    )
    files.append(curve_path)
    return est, files


# ---------------------------------------------------------------------------
# Candidate generation
# ---------------------------------------------------------------------------


def generate_candidates(
    dataset: TrajectoryDataset,
    feature_ids: list[str],
    client: LlmClient,
    n_candidates: int,
    out_dir: str | Path,
    task_description: str = "intensive care treatment",
    metadata: list[FeatureMetadata] | None = None,
) -> tuple[list[tuple[str, RewardSpec]], int]:
    """Ask the client for n candidate specs; invalid responses are quarantined
    with their diagnostics and valid specs are numbered in generation order."""
    if n_candidates < 1:
        raise ConfigError("need at least one candidate")
    if not feature_ids:
        raise ValidationError("candidate generation needs a nonempty feature set")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    quarantine = out / "quarantine"
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
            quarantine.mkdir(parents=True, exist_ok=True)
            doc = {"candidate_index": i, "reason": str(exc), "response": response}
            (quarantine / f"candidate_{i:03d}.json").write_text(
                json.dumps(doc, indent=2) + "\n", encoding="utf-8"
            )
            quarantined += 1
            continue
        spec_id = f"spec_{i:03d}"
        (out / f"{spec_id}.json").write_text(
            json.dumps(reward_spec_to_json(spec), indent=2) + "\n", encoding="utf-8"
        )
        valid.append((spec_id, spec))
    index = {
        "valid": [sid for sid, _ in valid],
        "quarantined": quarantined,
        "requested": n_candidates,
    }
    (out / "index.json").write_text(json.dumps(index, indent=2) + "\n", encoding="utf-8")
    return valid, quarantined


def load_spec_dir(path: str | Path) -> list[tuple[str, RewardSpec]]:
    """Read every *.json reward spec in a directory, id = filename stem."""
    root = Path(path)
    specs = []
    for file in sorted(root.glob("*.json")):
        if file.name == "index.json":
            continue
        specs.append((file.stem, load_reward_spec(file)))
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
    cfg = (cfg or CompMetricConfig()).prepare(dataset)
    targets = FitnessTargets(dataset, cfg)
    rows = []
    for spec_id, spec in specs:
        try:
            vec = fitness(dataset, spec, cfg, feature_ids, targets)
            rows.append(
                {
                    "spec_id": spec_id,
                    "j_surv": vec.j_surv,
                    "j_conf": vec.j_conf,
                    "j_comp": vec.j_comp,
                }
            )
        except (DegenerateStatisticError, SchemaError, ValidationError) as exc:
            rows.append({"spec_id": spec_id, "error": str(exc)})
    return rows


def pareto_from_rows(rows: list[dict]) -> ParetoResult:
    candidates = [
        Candidate(
            spec_id=row["spec_id"],
            fitness=FitnessVector(row["j_surv"], row["j_conf"], row["j_comp"]),
        )
        for row in rows
        if "error" not in row
    ]
    if not candidates:
        raise PipelineError("no valid candidates to rank")
    return select_champion(candidates)


# ---------------------------------------------------------------------------
# Pipeline configuration
# ---------------------------------------------------------------------------

_PIPELINE_KEYS = {
    "dataset",
    "client",
    "llm",
    "rounds",
    "threshold",
    "k",
    "candidates",
    "task",
    "probs",
    "bootstrap",
    "level",
    "bins",
    "seed",
    "split",
    "metric",
}
_METRIC_KEYS = {"epsilon", "k", "alpha", "aggregation"}
_LLM_KEYS = {"endpoint", "model", "temperature", "timeout", "retries", "backoff"}


@dataclass
class PipelineConfig:
    dataset: str
    client: str = "stub"
    llm: LlmClientConfig = field(default_factory=LlmClientConfig)
    rounds: int = defaults.CANDIDATE_COUNT
    threshold: float = defaults.CONSENSUS_THRESHOLD
    k: int = defaults.FEATURE_COUNT
    candidates: int = defaults.CANDIDATE_COUNT
    task: str = "intensive care treatment"
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
        if self.split is not None and self.split != "all" and self.split not in SPLIT_NAMES:
            raise ConfigError(f"unknown split {self.split!r}")

    def canonical_json(self) -> str:
        doc = {
            "dataset": self.dataset,
            "client": self.client,
            "llm": {
                "endpoint": self.llm.endpoint,
                "model": self.llm.model,
                "temperature": self.llm.temperature,
                "timeout": self.llm.timeout,
                "retries": self.llm.retries,
                "backoff": self.llm.backoff,
            },
            "rounds": self.rounds,
            "threshold": self.threshold,
            "k": self.k,
            "candidates": self.candidates,
            "task": self.task,
            "probs": self.probs,
            "bootstrap": self.bootstrap,
            "level": self.level,
            "bins": self.bins,
            "seed": self.seed,
            "split": self.split,
            "metric": {
                "epsilon": self.metric.epsilon,
                "k": self.metric.k,
                "alpha": self.metric.alpha,
                "aggregation": self.metric.aggregation,
            },
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def pipeline_config_from_json(doc: dict) -> PipelineConfig:
    if not isinstance(doc, dict):
        raise FormatError("pipeline config must be a JSON object")
    unknown = set(doc) - _PIPELINE_KEYS
    if unknown:
        raise FormatError(f"pipeline config: unknown keys {sorted(unknown)}")
    if "dataset" not in doc:
        raise FormatError("pipeline config: missing 'dataset'")
    llm_doc = doc.get("llm", {})
    unknown_llm = set(llm_doc) - _LLM_KEYS
    if unknown_llm:
        raise FormatError(f"pipeline config: unknown llm keys {sorted(unknown_llm)}")
    metric_doc = doc.get("metric", {})
    unknown_metric = set(metric_doc) - _METRIC_KEYS
    if unknown_metric:
        raise FormatError(f"pipeline config: unknown metric keys {sorted(unknown_metric)}")
    probs = doc.get("probs", [])
    if isinstance(probs, str):
        probs = [probs]
    config = PipelineConfig(
        dataset=doc["dataset"],
        client=doc.get("client", "stub"),
        llm=LlmClientConfig(**llm_doc),
        rounds=int(doc.get("rounds", defaults.CANDIDATE_COUNT)),
        threshold=float(doc.get("threshold", defaults.CONSENSUS_THRESHOLD)),
        k=int(doc.get("k", defaults.FEATURE_COUNT)),
        candidates=int(doc.get("candidates", defaults.CANDIDATE_COUNT)),
        task=doc.get("task", "intensive care treatment"),
        probs=[str(p) for p in probs],
        bootstrap=int(doc.get("bootstrap", defaults.BOOTSTRAP_RESAMPLES)),
        level=float(doc.get("level", defaults.BOOTSTRAP_LEVEL)),
        bins=int(doc.get("bins", defaults.MORTALITY_BINS)),
        seed=int(doc.get("seed", 0)),
        split=doc.get("split"),
        metric=CompMetricConfig(**metric_doc) if metric_doc else CompMetricConfig(),
    )
    config.validate()
    return config


def load_pipeline_config(path: str | Path) -> PipelineConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise FormatError(f"cannot read pipeline config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return pipeline_config_from_json(doc)


def build_client(config: PipelineConfig) -> LlmClient:
    if config.client == "stub":
        return StubLlmClient()
    return HttpLlmClient(config.llm)


# ---------------------------------------------------------------------------
# The pipeline runner
# ---------------------------------------------------------------------------

STAGES = ("stats", "features", "candidates", "fitness", "selection", "ope")


class PipelineRun:
    """Executes the staged pipeline inside one run directory."""

    def __init__(self, config: PipelineConfig, out_dir: str | Path):
        config.validate()
        self.config = config
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        try:
            dataset_sha = sha256_file(config.dataset)
        except OSError as exc:
            raise ConfigError(f"cannot read dataset {config.dataset}: {exc}") from exc
        config_sha = sha256_bytes(config.canonical_json().encode("utf-8"))
        self.run_id = sha256_bytes(
            f"{dataset_sha}:{config_sha}:{config.seed}".encode("utf-8")
        )[:16]
        self.manifest = self._load_or_init_manifest(dataset_sha, config_sha)
        self._load_seconds = 0.0
        self._timing: dict[str, float] = {}
        self._skipped: list[str] = []

    # -- manifest -------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.out / "manifest.json"

    def _load_or_init_manifest(self, dataset_sha: str, config_sha: str) -> dict:
        if self.manifest_path.exists():
            try:
                manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                raise FormatError(f"{self.manifest_path}: unreadable run manifest: {exc}") from exc
            if not isinstance(manifest, dict):
                raise FormatError(f"{self.manifest_path}: run manifest must be a JSON object")
            if manifest.get("run_id") != self.run_id:
                raise ConfigError(
                    f"run directory {self.out} belongs to run {manifest.get('run_id')}; "
                    f"inputs now hash to run {self.run_id} (use a fresh directory)"
                )
            return manifest
        return {
            "run_id": self.run_id,
            "tool_version": TOOL_VERSION,
            "seed": self.config.seed,
            "inputs": {"dataset": dataset_sha, "config": config_sha},
            "stages": {name: {"status": "pending"} for name in STAGES},
            "champion": None,
        }

    def _write_manifest(self) -> None:
        self.manifest_path.write_text(
            json.dumps(self.manifest, indent=2) + "\n", encoding="utf-8"
        )

    def _write_timing(self) -> None:
        doc = {
            "written_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            "load_seconds": round(self._load_seconds, 6),
            "stage_seconds": {k: round(v, 6) for k, v in self._timing.items()},
            "skipped": self._skipped,
        }
        (self.out / "timing.json").write_text(
            json.dumps(doc, indent=2) + "\n", encoding="utf-8"
        )

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
        self._write_manifest()

    def _write_json(self, rel: str, doc) -> Path:
        path = self.out / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        return path

    # -- stages ---------------------------------------------------------

    def execute(self) -> dict:
        """Run (or resume) every stage in order; returns the manifest."""
        self._timing, self._skipped = {}, []
        start = time.perf_counter()
        dataset = filter_split(load_dataset(self.config.dataset), self.config.split)
        self._load_seconds = time.perf_counter() - start
        if not dataset.trajectories:
            raise PipelineError("dataset (after split filtering) has no trajectories")
        client = build_client(self.config)
        for name in STAGES:
            if self._stage_fresh(name):
                self._skipped.append(name)
                continue
            start = time.perf_counter()
            try:
                getattr(self, f"_run_{name}")(dataset, client)
            except TridriveError as exc:
                self.manifest["stages"][name] = {"status": "failed", "error": str(exc)}
                self._write_manifest()
                self._write_timing()
                raise
            self._timing[name] = time.perf_counter() - start
        self._write_timing()
        return self.manifest

    def _run_stats(self, dataset: TrajectoryDataset, client: LlmClient) -> None:
        metadata = compute_metadata(dataset)
        doc = metadata_to_json(metadata, summarize_dataset(dataset))
        path = self._write_json("stats/metadata.json", doc)
        self._record_outputs("stats", [path])

    def _load_metadata(self) -> list[FeatureMetadata]:
        doc = json.loads((self.out / "stats/metadata.json").read_text(encoding="utf-8"))
        return metadata_from_json(doc)

    def _run_features(self, dataset: TrajectoryDataset, client: LlmClient) -> None:
        rounds_dir = self.out / "features" / "rounds"
        outcome = run_selection(
            dataset,
            client,
            n_rounds=self.config.rounds,
            threshold=self.config.threshold,
            k=self.config.k,
            task_description=self.config.task,
            audit_dir=rounds_dir,
            metadata=self._load_metadata(),
        )
        if not outcome.selected:
            raise PipelineError(
                "ensemble vote selected no features; lower the threshold or inspect the rounds"
            )
        report = {
            "selected_features": sorted(outcome.selected),
            "votes": outcome.votes,
            "rounds": self.config.rounds,
            "threshold": self.config.threshold,
            "k": self.config.k,
        }
        path = self._write_json("features/report.json", report)
        files = [path] + sorted(rounds_dir.glob("round_*.json"))
        self._record_outputs("features", files)

    def _load_features(self) -> list[str]:
        doc = json.loads((self.out / "features/report.json").read_text(encoding="utf-8"))
        return doc["selected_features"]

    def _run_candidates(self, dataset: TrajectoryDataset, client: LlmClient) -> None:
        out = self.out / "candidates"
        valid, _ = generate_candidates(
            dataset,
            self._load_features(),
            client,
            self.config.candidates,
            out,
            task_description=self.config.task,
            metadata=self._load_metadata(),
        )
        if not valid:
            raise PipelineError("every generated candidate was quarantined")
        files = [p for p in out.rglob("*.json")]
        self._record_outputs("candidates", files)

    def _load_candidates(self) -> list[tuple[str, RewardSpec]]:
        index = json.loads((self.out / "candidates/index.json").read_text(encoding="utf-8"))
        return [
            (sid, load_reward_spec(self.out / "candidates" / f"{sid}.json"))
            for sid in index["valid"]
        ]

    def _run_fitness(self, dataset: TrajectoryDataset, client: LlmClient) -> None:
        rows = score_specs(
            dataset, self._load_candidates(), self.config.metric, self._load_features()
        )
        path = self._write_json("fitness/report.json", rows)
        self._record_outputs("fitness", [path])

    def _run_selection(self, dataset: TrajectoryDataset, client: LlmClient) -> None:
        rows = json.loads((self.out / "fitness/report.json").read_text(encoding="utf-8"))
        result = pareto_from_rows(rows)
        path = self._write_json("selection/report.json", pareto_result_to_json(result))
        self.manifest["champion"] = result.champion
        self._record_outputs("selection", [path])

    def _run_ope(self, dataset: TrajectoryDataset, client: LlmClient) -> None:
        champion_id = self.manifest["champion"]
        _, files = run_ope(
            dataset,
            dict(self._load_candidates())[champion_id],
            self.config.probs,
            self.out / "ope",
            level=self.config.level,
            resamples=self.config.bootstrap,
            seed=self.config.seed,
            bins=self.config.bins,
            champion=champion_id,
        )
        self._record_outputs("ope", files)


def run_pipeline(config: PipelineConfig, out_dir: str | Path) -> dict:
    return PipelineRun(config, out_dir).execute()
