"""Command-line interface.

Exit codes: 0 on success, 1 on runtime failure (pipeline, client, or
degenerate-statistic errors), 2 on usage or configuration errors
(including unreadable inputs and invalid documents).
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import click

from . import defaults
from .errors import (
    ConfigError,
    FormatError,
    SchemaError,
    TridriveError,
    ValidationError,
)
from .features import compute_metadata, run_selection, summarize_dataset
from .fitness import CompMetricConfig
from .llm import HttpLlmClient, LlmClientConfig, StubLlmClient
from .model import load_dataset, save_dataset
from .pipeline import (
    filter_split,
    generate_candidates,
    load_pipeline_config,
    load_spec_dir,
    metadata_to_json,
    pareto_from_rows,
    run_ope,
    run_pipeline,
    score_specs,
)
from .pareto import pareto_result_to_json
from .rewards import load_reward_spec
from .synth import CohortConfig, generate, load_cohort_config, reference_spec
from .rewards import save_reward_spec

_USAGE_ERRORS = (ConfigError, FormatError, ValidationError, SchemaError)


def _run(fn):
    """Map toolkit errors onto the exit-code contract."""
    try:
        fn()
    except _USAGE_ERRORS as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except TridriveError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


def _check_threshold(ctx, param, value):
    if value is not None and not (0.0 < value <= 1.0):
        raise click.BadParameter("must lie in (0, 1]")
    return value


def _client_from_flags(client: str, endpoint: str | None):
    if client == "stub":
        return StubLlmClient()
    return HttpLlmClient(LlmClientConfig(endpoint=endpoint or ""))


def _load_split(dataset_path: str, split: str | None):
    return filter_split(load_dataset(dataset_path), split)


_SPLIT_CHOICE = click.Choice(
    ["all", "policy_train", "reward_train", "policy_test", "reward_test"]
)


@click.group()
@click.version_option(version="0.1.0", prog_name="tridrive")
def main():
    """Reward engineering toolkit: generate, score, select, and verify
    potential-based reward functions on trajectory datasets."""


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="Cohort config JSON; defaults are used when omitted.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Dataset file to write.")
@click.option("--reference-spec", "spec_path", type=click.Path(), default=None,
              help="Also write the generator-aligned reward spec here.")
def synth(config_path, seed, out_path, spec_path):
    """Generate a synthetic cohort dataset."""

    def body():
        config = load_cohort_config(config_path) if config_path else CohortConfig()
        if seed is not None:
            config = dataclasses.replace(config, seed=seed)
        dataset = generate(config)
        save_dataset(dataset, out_path)
        click.echo(f"wrote {len(dataset.trajectories)} trajectories to {out_path}")
        if spec_path:
            save_reward_spec(reference_spec(config), spec_path)
            click.echo(f"wrote reference spec to {spec_path}")

    _run(body)


@main.command()
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--split", type=_SPLIT_CHOICE, default="all")
def stats(dataset_path, out_path, split):
    """Write the per-feature statistical metadata report."""

    def body():
        dataset = _load_split(dataset_path, split)
        metadata = compute_metadata(dataset)
        doc = metadata_to_json(metadata, summarize_dataset(dataset))
        Path(out_path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        click.echo(f"wrote statistics for {len(metadata)} features to {out_path}")

    _run(body)


@main.command("select-features")
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True))
@click.option("--client", type=click.Choice(["stub", "http"]), default="stub")
@click.option("--endpoint", default=None, help="HTTP client endpoint (or TRIDRIVE_LLM_ENDPOINT).")
@click.option("--rounds", type=int, default=defaults.CANDIDATE_COUNT, show_default=True)
@click.option("--threshold", type=float, default=defaults.CONSENSUS_THRESHOLD,
              show_default=True, callback=_check_threshold)
@click.option("--k", type=int, default=defaults.FEATURE_COUNT, show_default=True)
@click.option("--task", default="intensive care treatment", show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(),
              help="Directory for the report and per-round audit log.")
@click.option("--split", type=_SPLIT_CHOICE, default="all")
def select_features(dataset_path, client, endpoint, rounds, threshold, k, task, out_dir, split):
    """Run ensemble feature selection and write the consensus feature set."""

    def body():
        dataset = _load_split(dataset_path, split)
        outcome = run_selection(
            dataset,
            _client_from_flags(client, endpoint),
            n_rounds=rounds,
            threshold=threshold,
            k=k,
            task_description=task,
            audit_dir=Path(out_dir) / "rounds",
        )
        report = {
            "selected_features": sorted(outcome.selected),
            "votes": outcome.votes,
            "rounds": rounds,
            "threshold": threshold,
            "k": k,
        }
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        click.echo(f"selected features: {sorted(outcome.selected)}")

    _run(body)


@main.command("generate")
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True))
@click.option("--features", "features_path", required=True, type=click.Path(exists=True),
              help="Feature selection report (or a JSON list of feature ids).")
@click.option("--client", type=click.Choice(["stub", "http"]), default="stub")
@click.option("--endpoint", default=None)
@click.option("--candidates", type=int, default=defaults.CANDIDATE_COUNT, show_default=True)
@click.option("--task", default="intensive care treatment", show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--split", type=_SPLIT_CHOICE, default="all")
def generate_cmd(dataset_path, features_path, client, endpoint, candidates, task, out_dir, split):
    """Generate candidate reward specs into a directory."""

    def body():
        dataset = _load_split(dataset_path, split)
        doc = json.loads(Path(features_path).read_text(encoding="utf-8"))
        feature_ids = doc["selected_features"] if isinstance(doc, dict) else list(doc)
        valid, quarantined = generate_candidates(
            dataset,
            feature_ids,
            _client_from_flags(client, endpoint),
            candidates,
            out_dir,
            task_description=task,
        )
        click.echo(f"{len(valid)} valid specs, {quarantined} quarantined, in {out_dir}")

    _run(body)


@main.command()
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True))
@click.option("--specs", "specs_dir", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--features", "features_path", type=click.Path(exists=True), default=None,
              help="Restrict the metric feature set to a selection report.")
@click.option("--epsilon", type=float, default=defaults.STABILITY_EPSILON, show_default=True)
@click.option("--sigmoid-k", type=float, default=defaults.HOMEOSTASIS_K, show_default=True)
@click.option("--alpha", type=float, default=defaults.DOSE_ALPHA, show_default=True)
@click.option("--aggregation", type=click.Choice(["mean", "sum"]), default="mean")
@click.option("--split", type=_SPLIT_CHOICE, default="all")
def score(dataset_path, specs_dir, out_path, features_path, epsilon, sigmoid_k, alpha,
          aggregation, split):
    """Compute the three-part fitness vector for every spec in a directory."""

    def body():
        dataset = _load_split(dataset_path, split)
        feature_ids = None
        if features_path:
            doc = json.loads(Path(features_path).read_text(encoding="utf-8"))
            feature_ids = doc["selected_features"] if isinstance(doc, dict) else list(doc)
        cfg = CompMetricConfig(
            epsilon=epsilon, k=sigmoid_k, alpha=alpha, aggregation=aggregation
        )
        rows = score_specs(dataset, load_spec_dir(specs_dir), cfg, feature_ids)
        Path(out_path).write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
        bad = sum(1 for r in rows if "error" in r)
        click.echo(f"scored {len(rows) - bad} specs ({bad} invalid) -> {out_path}")

    _run(body)


@main.command()
@click.option("--fitness", "fitness_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
def pareto(fitness_path, out_path):
    """Rank a fitness report and select the utopia-nearest champion."""

    def body():
        rows = json.loads(Path(fitness_path).read_text(encoding="utf-8"))
        result = pareto_from_rows(rows)
        Path(out_path).write_text(
            json.dumps(pareto_result_to_json(result), indent=2) + "\n", encoding="utf-8"
        )
        click.echo(f"champion: {result.champion}")

    _run(body)


@main.command()
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True))
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--probs", "probs_paths", multiple=True, type=click.Path(exists=True),
              help="Policy probability table(s); repeat for a checkpoint series. "
              "Without it, the logged policy is evaluated (identity weights).")
@click.option("--bootstrap", type=int, default=defaults.BOOTSTRAP_RESAMPLES, show_default=True)
@click.option("--level", type=float, default=defaults.BOOTSTRAP_LEVEL, show_default=True)
@click.option("--bins", type=int, default=defaults.MORTALITY_BINS, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--max-ratio", type=float, default=None,
              help="Cap each per-step likelihood ratio; omit for the textbook estimator.")
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--split", type=_SPLIT_CHOICE, default="all")
def ope(dataset_path, spec_path, probs_paths, bootstrap, level, bins, seed, max_ratio,
        out_dir, split):
    """Off-policy evaluation of one reward spec: WIS with bootstrap CIs plus
    the mortality-vs-cumulative-reward curve."""

    def body():
        est, _ = run_ope(
            _load_split(dataset_path, split),
            load_reward_spec(spec_path),
            probs_paths,
            Path(out_dir),
            level=level,
            resamples=bootstrap,
            seed=seed,
            bins=bins,
            max_ratio=max_ratio,
        )
        click.echo(f"WIS {est.value:.4f} [{est.ci_low:.4f}, {est.ci_high:.4f}] -> {out_dir}")

    _run(body)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--dataset", "dataset_path", type=click.Path(exists=True), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--client", type=click.Choice(["stub", "http"]), default=None)
@click.option("--rounds", type=int, default=None)
@click.option("--threshold", type=float, default=None, callback=_check_threshold)
@click.option("--candidates", type=int, default=None)
@click.option("--bootstrap", type=int, default=None)
@click.option("--level", type=float, default=None)
@click.option("--split", type=_SPLIT_CHOICE, default=None)
def pipeline(config_path, out_dir, dataset_path, seed, client, rounds, threshold,
             candidates, bootstrap, level, split):
    """Run the full staged pipeline (stats -> features -> candidates ->
    fitness -> selection -> OPE) into a resumable run directory."""

    def body():
        config = load_pipeline_config(config_path)
        overrides = {
            "dataset": dataset_path,
            "seed": seed,
            "client": client,
            "rounds": rounds,
            "threshold": threshold,
            "candidates": candidates,
            "bootstrap": bootstrap,
            "level": level,
            "split": split,
        }
        for name, value in overrides.items():
            if value is not None:
                config = dataclasses.replace(config, **{name: value})
        config.validate()
        manifest = run_pipeline(config, out_dir)
        click.echo(f"run {manifest['run_id']} complete; champion: {manifest['champion']}")

    _run(body)


if __name__ == "__main__":
    main()
