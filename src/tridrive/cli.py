"""Command-line interface.

Exit codes: 0 on success, 1 on runtime failure (pipeline, client, or
degenerate-statistic errors, or an output that cannot be written), 2 on
usage or configuration errors (including unreadable inputs and invalid
documents).
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from pathlib import Path

import click

from . import __version__, defaults
from .errors import (
    ConfigError,
    FormatError,
    SchemaError,
    TridriveError,
    ValidationError,
)
from .fitness import CompMetricConfig
from .llm import LlmClientConfig
from .model import load_dataset, save_dataset
from .pipeline import (
    SPLIT_NAMES,
    build_client,
    candidates_stage,
    features_stage,
    filter_split,
    fitness_stage,
    load_feature_ids,
    load_pipeline_config,
    load_spec_dir,
    ope_stage,
    run_pipeline,
    selection_stage,
    stats_stage,
)
from .rewards import load_reward_spec, save_reward_spec
from .synth import CohortConfig, generate, load_cohort_config, reference_spec

_USAGE_ERRORS = (ConfigError, FormatError, ValidationError, SchemaError)


def _exit_codes(command):
    """The command, with toolkit errors mapped onto the exit-code contract."""

    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            command(*args, **kwargs)
        except _USAGE_ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except (TridriveError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return run


def _load_split(dataset_path: str, split: str | None):
    return filter_split(load_dataset(dataset_path), split)


_SPLIT_CHOICE = click.Choice(["all", *SPLIT_NAMES])


@click.group()
@click.version_option(version=__version__, prog_name="tridrive")
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
@_exit_codes
def synth(config_path, seed, out_path, spec_path):
    """Generate a synthetic cohort dataset."""
    config = load_cohort_config(config_path) if config_path else CohortConfig()
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    dataset = generate(config)
    save_dataset(dataset, out_path)
    click.echo(f"wrote {len(dataset.trajectories)} trajectories to {out_path}")
    if spec_path:
        save_reward_spec(reference_spec(config), spec_path)
        click.echo(f"wrote reference spec to {spec_path}")


@main.command()
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--split", type=_SPLIT_CHOICE, default="all")
@_exit_codes
def stats(dataset_path, out_path, split):
    """Write the per-feature statistical metadata report."""
    metadata = stats_stage(_load_split(dataset_path, split), Path(out_path))
    click.echo(f"wrote statistics for {len(metadata)} features to {out_path}")


@main.command("select-features")
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True))
@click.option("--client", type=click.Choice(["stub", "http"]), default="stub")
@click.option("--endpoint", default=None, help="HTTP client endpoint (or TRIDRIVE_LLM_ENDPOINT).")
@click.option("--rounds", type=int, default=defaults.CANDIDATE_COUNT, show_default=True)
@click.option("--threshold", type=float, default=defaults.CONSENSUS_THRESHOLD, show_default=True)
@click.option("--k", type=int, default=defaults.FEATURE_COUNT, show_default=True)
@click.option("--task", default=defaults.TASK_DESCRIPTION, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(),
              help="Directory for the report and per-round audit log.")
@click.option("--split", type=_SPLIT_CHOICE, default="all")
@_exit_codes
def select_features(dataset_path, client, endpoint, rounds, threshold, k, task, out_dir, split):
    """Run ensemble feature selection and write the consensus feature set."""
    selected = features_stage(
        _load_split(dataset_path, split),
        build_client(client, LlmClientConfig(endpoint=endpoint or "")),
        Path(out_dir),
        rounds=rounds,
        threshold=threshold,
        k=k,
        task=task,
    )
    click.echo(f"selected features: {selected}")


@main.command("generate")
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True))
@click.option("--features", "features_path", required=True, type=click.Path(exists=True),
              help="Feature selection report (or a JSON list of feature ids).")
@click.option("--client", type=click.Choice(["stub", "http"]), default="stub")
@click.option("--endpoint", default=None)
@click.option("--candidates", type=int, default=defaults.CANDIDATE_COUNT, show_default=True)
@click.option("--task", default=defaults.TASK_DESCRIPTION, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--split", type=_SPLIT_CHOICE, default="all")
@_exit_codes
def generate_cmd(dataset_path, features_path, client, endpoint, candidates, task, out_dir, split):
    """Generate candidate reward specs into a directory."""
    valid = candidates_stage(
        _load_split(dataset_path, split),
        load_feature_ids(features_path),
        build_client(client, LlmClientConfig(endpoint=endpoint or "")),
        Path(out_dir),
        n_candidates=candidates,
        task=task,
    )
    click.echo(f"{len(valid)} valid specs, {candidates - len(valid)} quarantined, in {out_dir}")


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
@_exit_codes
def score(dataset_path, specs_dir, out_path, features_path, epsilon, sigmoid_k, alpha,
          aggregation, split):
    """Compute the three-part fitness vector for every spec in a directory."""
    rows = fitness_stage(
        _load_split(dataset_path, split),
        load_spec_dir(specs_dir),
        Path(out_path),
        cfg=CompMetricConfig(
            epsilon=epsilon, k=sigmoid_k, alpha=alpha, aggregation=aggregation
        ),
        feature_ids=load_feature_ids(features_path) if features_path else None,
    )
    bad = sum(1 for r in rows if "error" in r)
    click.echo(f"scored {len(rows) - bad} specs ({bad} invalid) -> {out_path}")


@main.command()
@click.option("--fitness", "fitness_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@_exit_codes
def pareto(fitness_path, out_path):
    """Rank a fitness report and select the utopia-nearest champion."""
    result = selection_stage(Path(fitness_path), Path(out_path))
    click.echo(f"champion: {result.champion}")


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
@_exit_codes
def ope(dataset_path, spec_path, probs_paths, bootstrap, level, bins, seed, max_ratio,
        out_dir, split):
    """Off-policy evaluation of one reward spec: WIS with bootstrap CIs plus
    the mortality-vs-cumulative-reward curve."""
    est = ope_stage(
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


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--dataset", type=click.Path(exists=True), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--client", type=click.Choice(["stub", "http"]), default=None)
@click.option("--rounds", type=int, default=None)
@click.option("--threshold", type=float, default=None)
@click.option("--candidates", type=int, default=None)
@click.option("--bootstrap", type=int, default=None)
@click.option("--level", type=float, default=None)
@click.option("--split", type=_SPLIT_CHOICE, default=None)
@_exit_codes
def pipeline(config_path, out_dir, **overrides):
    """Run the full staged pipeline (stats -> features -> candidates ->
    fitness -> selection -> OPE) into a resumable run directory. Each flag
    given overrides the config key of its name."""
    config = dataclasses.replace(
        load_pipeline_config(config_path),
        **{key: value for key, value in overrides.items() if value is not None},
    )
    manifest = run_pipeline(config, out_dir)
    click.echo(f"run {manifest['run_id']} complete; champion: {manifest['champion']}")


if __name__ == "__main__":
    main()
