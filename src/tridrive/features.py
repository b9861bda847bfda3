"""Per-feature statistics, prompt construction, and ensemble feature selection.

The selection loop asks an LLM (or an offline stub) to pick the most
informative dynamic features, several rounds in a row, and keeps the
features whose selection frequency clears a consensus threshold. Every
round's raw response is persisted so the vote can be audited and replayed.

The same client also serves reward-candidate generation: the generation
prompt requests a declarative JSON reward specification (never code), and
responses that fail the strict schema are treated as invalid candidates
rather than aborting the run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import defaults
from .errors import (
    ConfigError,
    DegenerateStatisticError,
    FormatError,
    LlmClientError,
    PipelineError,
    ValidationError,
)
from .fitness import _quantiles, pearson
from .jsonio import write_json
from .llm import LlmClient
from .model import TrajectoryDataset
from .rewards import RewardSpec, reward_spec_from_json


@dataclass(frozen=True)
class FeatureMetadata:
    """Statistical summary of one feature over its non-missing values."""

    feature_id: str
    count: int
    mean: float
    std: float
    missingness: float
    rho_outcome: float | None
    rho_action: dict[str, float | None]
    q25: float
    median: float
    q75: float
    iqr: float


@dataclass(frozen=True)
class CohortSummary:
    n_patients: int
    n_records: int
    mortality_rate: float

    @property
    def avg_records(self) -> float:
        return self.n_records / self.n_patients if self.n_patients else 0.0


@dataclass
class SelectionRound:
    round_index: int
    selected: list[str]
    rationales: dict[str, str]


@dataclass
class SelectionOutcome:
    selected: set[str]
    rounds: list[SelectionRound]
    votes: dict[str, int]


def summarize_dataset(dataset: TrajectoryDataset) -> CohortSummary:
    n_records = len(dataset.columns.t)
    deaths = sum(1 for t in dataset.trajectories if not t.survived)
    n = len(dataset.trajectories)
    return CohortSummary(
        n_patients=n,
        n_records=n_records,
        mortality_rate=deaths / n if n else 0.0,
    )


def _safe_pearson(xs: np.ndarray, ys: np.ndarray) -> float | None:
    """Correlation, or None when it is undefined (either side constant)."""
    if len(xs) < 2:
        return None
    try:
        return pearson(xs, ys)
    except DegenerateStatisticError:
        return None


def compute_metadata(dataset: TrajectoryDataset) -> list[FeatureMetadata]:
    """One summary record per schema feature, in feature-id order.

    Staleness > 0 is the only missingness rule: an observation carried
    forward from an earlier measurement is missing. Statistics use only
    non-missing values, in row order; the outcome correlation broadcasts
    the trajectory outcome to its steps, and an action a step does not
    set counts as level 0.
    """
    if not dataset.trajectories:
        raise ValidationError("compute_metadata needs a nonempty dataset")
    cols = dataset.columns
    outcome = np.repeat(
        [1.0 if traj.survived else 0.0 for traj in dataset.trajectories], np.diff(cols.offsets)
    )
    feature_column = {fid: j for j, fid in enumerate(cols.feature_ids)}
    action_column = {aid: j for j, aid in enumerate(cols.action_ids)}
    action_ids = sorted(dataset.action_schema)
    result = []
    for fid in dataset.feature_ids():
        j = feature_column.get(fid)
        if j is None:  # no step has the feature
            total = missing = 0
            fresh, arr = np.zeros(len(cols.t), dtype=bool), np.zeros(0)
        else:
            stale = cols.mask[:, j] & (cols.staleness[:, j] > 0)
            fresh = cols.mask[:, j] & ~stale
            total, missing = int(cols.mask[:, j].sum()), int(stale.sum())
            arr = cols.values[fresh, j]
        if arr.size:
            q25, median, q75 = _quantiles(arr, [0.25, 0.5, 0.75])
            mean, std = float(arr.mean()), float(arr.std())
        else:
            q25 = median = q75 = mean = std = 0.0
        levels = {
            aid: cols.actions[fresh, action_column[aid]] if aid in action_column
            else np.zeros(arr.size)
            for aid in action_ids
        }
        result.append(
            FeatureMetadata(
                feature_id=fid,
                count=int(arr.size),
                mean=mean,
                std=std,
                missingness=missing / total if total else 1.0,
                rho_outcome=_safe_pearson(arr, outcome[fresh]),
                rho_action={aid: _safe_pearson(arr, levels[aid]) for aid in action_ids},
                q25=q25,
                median=median,
                q75=q75,
                iqr=q75 - q25,
            )
        )
    return result


# ---------------------------------------------------------------------------
# Prompt construction. Text is deterministic: identical inputs produce
# byte-identical prompts, which the offline stub depends on.
# ---------------------------------------------------------------------------


def _feature_block(m: FeatureMetadata) -> str:
    return (
        f"Feature: {m.feature_id}\n"
        f"  Count: {m.count}\n"
        f"  Mean: {m.mean:.6f}\n"
        f"  Std: {m.std:.6f}\n"
        f"  Missing rate: {m.missingness:.4f}\n"
        f"  Median: {m.median:.6f}  Q25: {m.q25:.6f}  Q75: {m.q75:.6f}  IQR: {m.iqr:.6f}"
    )


def _corr_line(fid: str, r: float | None, n: int) -> str:
    r_text = "undefined" if r is None else f"{r:+.4f}"
    return f"  - {fid}: r={r_text} (n={n})"


def _summary_block(summary: CohortSummary) -> str:
    return (
        "DATASET SUMMARY:\n"
        f"Total records: {summary.n_records}\n"
        f"Total patients: {summary.n_patients}\n"
        f"Average records per patient: {summary.avg_records:.2f}\n"
        f"Mortality rate: {summary.mortality_rate:.4f}"
    )


def build_feature_prompt(
    metadata: Sequence[FeatureMetadata],
    task_description: str,
    summary: CohortSummary,
    k: int = defaults.FEATURE_COUNT,
) -> str:
    """Instantiate the feature-selection prompt for the given statistics."""
    if not metadata:
        raise ValidationError("build_feature_prompt needs metadata for at least one feature")
    lines = [
        "You are an expert clinical data scientist and intensivist specializing in "
        "offline reinforcement learning.",
        f"TASK: Select the top {k} critical state features for {task_description}, "
        "based on the statistical analysis provided below.",
        "SELECTION CRITERIA:",
        "- Select features that are strong indicators of patient condition and highly "
        "correlated with the outcome.",
        "- Exclude features that are direct proxies of interventions (high correlation "
        "with actions) to prevent reward hacking.",
        "- EXCLUDE all demographic and baseline features such as age, gender, weight, or "
        "readmission flags. Focus ONLY on dynamic physiological and clinical state "
        "features that change over time.",
        "- Prefer features with low missingness and strong predictive power for outcomes.",
        "OUTPUT FORMAT: Output ONLY valid JSON. Do not include any preamble, "
        "explanations, or text before or after the JSON.",
        "Return a JSON object ranking the features by importance for reward modeling, "
        "with a 1-sentence rationale per feature grounded in the provided statistics:",
        '{"critical_state_features": [{"feature_name": "...", "rationale": "..."}]}',
        _summary_block(summary),
        "FEATURE STATISTICS:",
    ]
    lines.extend(_feature_block(m) for m in metadata)
    lines.append("CORRELATIONS WITH OUTCOMES:")
    lines.append("Outcome: survival")
    lines.extend(_corr_line(m.feature_id, m.rho_outcome, m.count) for m in metadata)
    action_ids = sorted({aid for m in metadata for aid in m.rho_action})
    if action_ids:
        lines.append("ACTION-FEATURE CORRELATIONS (to identify action-dependent features):")
        for aid in action_ids:
            lines.append(f"Action: {aid}")
            lines.extend(
                _corr_line(m.feature_id, m.rho_action.get(aid), m.count) for m in metadata
            )
    return "\n".join(lines) + "\n"


def build_reward_prompt(
    metadata: Sequence[FeatureMetadata],
    task_description: str,
    summary: CohortSummary,
    action_max: dict[str, float],
    action_discrete: dict[str, bool],
) -> str:
    """Instantiate the reward-design prompt: statistics in, JSON spec out."""
    if not metadata:
        raise ValidationError("build_reward_prompt needs metadata for at least one feature")
    lines = [
        "You are an expert in clinical data science specializing in offline "
        "reinforcement learning. Design a reward function based on a potential "
        f"function for an agent learning {task_description}.",
        "The reward is difference-based with a discount factor:",
        "  R = gamma * Phi(s', t') - Phi(s, t) - lambda * C(a)",
        "Phi(s, t) scores the physiological state in [0, 1]: each critical feature "
        "gets a survival score weighted by a confidence weight exp(-dt / tau), where "
        "dt is the hours since the feature was last truly measured; the weighted mean "
        "is then multiplied by a strategic time decay 0.5 ** (t / decay_half_life). "
        "C(a) is the dose cost: action_cost_scale times the sum of the action levels "
        "normalized by their maxima.",
        "Design the logic for the three components:",
        '1. Survival: score physiology on [0, 1]. "Goldilocks" features need bell '
        "curves; directional features need decay curves.",
        "2. Confidence: trust must drop as the measurement gap increases; pick tau per "
        "feature in hours.",
        "3. Competence: a higher dose must mean a lower reward.",
        "Also pick the strategic decay half-life in time steps.",
        "OUTPUT FORMAT: Output ONLY a valid JSON reward specification, no preamble, no "
        "code, no text around it, with this schema:",
        '{"survival": {"<feature>": {"form": "bell" | "decay_low" | "decay_high" | '
        '"asymmetric_above", "mu": <0-1, bell/asymmetric only>, "sigma": <width, '
        'bell/asymmetric only>, "tau": <rate, decay only>, "weight": <positive>}},',
        ' "confidence_tau": {"<feature>": <hours>},',
        ' "action_max": {"<action>": <max>},',
        ' "decay_half_life": <steps>,',
        ' "gamma": <0-1>,',
        ' "lambda": <cost multiplier>,',
        ' "action_cost_scale": <scale>}',
        'Every feature listed below must appear in both "survival" and '
        '"confidence_tau"; "action_max" must cover exactly the action dimensions '
        "listed.",
        _summary_block(summary),
        "ACTION DIMENSIONS:",
    ]
    for aid, mx in sorted(action_max.items()):
        kind = "discrete levels" if action_discrete[aid] else "continuous magnitude"
        lines.append(f"- {aid}: 0..{mx:g} ({kind})")
    lines.append("FEATURE STATISTICS:")
    lines.extend(_feature_block(m) for m in metadata)
    lines.append("CORRELATIONS WITH OUTCOMES:")
    lines.append("Outcome: survival")
    lines.extend(_corr_line(m.feature_id, m.rho_outcome, m.count) for m in metadata)
    lines.append(
        "Use these statistics along with clinical knowledge to set targets reflecting "
        "healthy physiological ranges."
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Response parsing
# ---------------------------------------------------------------------------


def parse_selection_response(
    text: str, known_features: Iterable[str], round_index: int = 0
) -> SelectionRound:
    """Parse a selection response; the text must be the JSON document alone."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"selection response is not valid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict) or "critical_state_features" not in doc:
        raise FormatError('selection response must be an object with "critical_state_features"')
    entries = doc["critical_state_features"]
    if not isinstance(entries, list) or not entries:
        raise FormatError('"critical_state_features" must be a nonempty array')
    known = set(known_features)
    selected: list[str] = []
    rationales: dict[str, str] = {}
    unknown: list[str] = []
    for entry in entries:
        if not isinstance(entry, dict) or "feature_name" not in entry:
            raise FormatError("each selection entry needs a feature_name")
        name = entry["feature_name"]
        if name in selected:
            raise ValidationError(f"feature {name!r} selected twice in one round")
        if name not in known:
            unknown.append(name)
            continue
        selected.append(name)
        rationales[name] = str(entry.get("rationale", ""))
    if unknown:
        raise ValidationError(f"selection named features outside the schema: {sorted(unknown)}")
    return SelectionRound(round_index=round_index, selected=selected, rationales=rationales)


def parse_reward_response(text: str) -> RewardSpec:
    """Parse a generated reward spec; strict schema, no surrounding prose."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"reward response is not valid JSON: {exc.msg}") from exc
    return reward_spec_from_json(doc)


# ---------------------------------------------------------------------------
# Ensemble voting and the selection loop
# ---------------------------------------------------------------------------


def ensemble_vote(
    rounds: Sequence[SelectionRound], threshold: float
) -> tuple[set[str], dict[str, int]]:
    """The features picked in at least `threshold` of the rounds, and the
    number of rounds that picked each feature (in feature-id order)."""
    if not rounds:
        raise ValidationError("ensemble_vote needs at least one round")
    if not (0.0 < threshold <= 1.0):
        raise ConfigError("consensus threshold must lie in (0, 1]")
    votes: dict[str, int] = {}
    for rnd in rounds:
        for fid in set(rnd.selected):
            votes[fid] = votes.get(fid, 0) + 1
    selected = {fid for fid, n in votes.items() if n / len(rounds) >= threshold}
    return selected, dict(sorted(votes.items()))


def run_selection(
    dataset: TrajectoryDataset,
    client: LlmClient,
    n_rounds: int,
    threshold: float = defaults.CONSENSUS_THRESHOLD,
    k: int = defaults.FEATURE_COUNT,
    task_description: str = defaults.TASK_DESCRIPTION,
    audit_dir: str | Path | None = None,
    metadata: Sequence[FeatureMetadata] | None = None,
) -> SelectionOutcome:
    """Run the full prompt -> response -> parse -> vote loop.

    Each round's raw response is written to audit_dir (when given); a round
    that fails to parse still leaves its response and the error behind.
    """
    if n_rounds < 1:
        raise ConfigError("n_rounds must be at least 1")
    if not (0.0 < threshold <= 1.0):
        raise ConfigError("consensus threshold must lie in (0, 1]")
    if metadata is None:
        metadata = compute_metadata(dataset)
    summary = summarize_dataset(dataset)
    prompt = build_feature_prompt(metadata, task_description, summary, k)
    prompt_sha = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
    known = set(dataset.feature_schema)

    def persist(i: int, doc: dict) -> None:
        if audit_dir is not None:
            write_json(Path(audit_dir) / f"round_{i:03d}.json", doc)

    rounds: list[SelectionRound] = []
    for i in range(n_rounds):
        try:
            response = client.complete(prompt)
        except LlmClientError as exc:
            raise PipelineError(
                f"selection round {i} failed: {exc}; completed {len(rounds)} of {n_rounds} rounds"
            ) from exc
        doc = {"round_index": i, "prompt_sha256": prompt_sha, "response": response}
        try:
            rnd = parse_selection_response(response, known, round_index=i)
        except (FormatError, ValidationError) as exc:
            persist(i, {**doc, "error": str(exc)})
            raise
        rounds.append(rnd)
        persist(i, {**doc, "selected": rnd.selected, "rationales": rnd.rationales})

    selected, votes = ensemble_vote(rounds, threshold)
    return SelectionOutcome(selected=selected, rounds=rounds, votes=votes)
