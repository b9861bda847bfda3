"""Potential-based reward engineering for offline clinical-style RL.

The toolkit covers the full loop: trajectory datasets, declarative reward
specifications and their evaluation, three-part offline fitness scoring,
Pareto ranking with utopia-point champion selection, weighted importance
sampling with bootstrap intervals, a synthetic cohort generator for
desk-scale verification, and a staged CLI pipeline tying it together.
"""

# Read by pyproject.toml, the CLI's --version and every run manifest.
__version__ = "0.1.0"

from .fitness import CompMetricConfig, FitnessVector, fitness
from .model import TrajectoryDataset, load_dataset, save_dataset
from .ope import bootstrap_ci, mortality_curve, wis
from .pareto import Candidate, ParetoResult, select_champion
from .rewards import RewardSpec, load_reward_spec, save_reward_spec, trace
from .synth import CohortConfig, generate, reference_spec

__all__ = [
    "CompMetricConfig",
    "FitnessVector",
    "fitness",
    "TrajectoryDataset",
    "load_dataset",
    "save_dataset",
    "bootstrap_ci",
    "mortality_curve",
    "wis",
    "Candidate",
    "ParetoResult",
    "select_champion",
    "RewardSpec",
    "load_reward_spec",
    "save_reward_spec",
    "trace",
    "CohortConfig",
    "generate",
    "reference_spec",
    "__version__",
]
