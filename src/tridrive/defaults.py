"""Canonical default hyperparameters, collected in one place.

Every tunable the toolkit exposes defaults to the values below; modules
import from here rather than hard-coding numbers.
"""

# Discount factor applied to per-step rewards.
GAMMA = 0.99

# Cost multiplier on the action penalty term of the reward.
LAMBDA = 0.1

# Per-dimension scale of the competence cost.
ACTION_COST_SCALE = 0.25

# Hours after which trust in a stale measurement has dropped to 1/e.
CONFIDENCE_TAU_HOURS = 6.0

# Time steps after which the strategic decay halves the potential.
DECAY_HALF_LIFE = 48.0

# Exponential rate of the directional survival decay curves.
DIRECTIONAL_TAU = 0.3

# Ensemble feature selection: features requested per round and the
# minimum selection frequency a feature needs to survive the vote.
FEATURE_COUNT = 7
CONSENSUS_THRESHOLD = 0.6

# Task named in the feature-selection and reward-design prompts.
TASK_DESCRIPTION = "intensive care treatment"

# Number of candidate reward specifications generated per run.
CANDIDATE_COUNT = 20

# Severity-stability band (raw score units) of the ground-truth score.
STABILITY_EPSILON = 2.0

# Sigmoid steepness of the homeostasis score.
HOMEOSTASIS_K = 10.0

# Dose penalty of the efficiency signal.
DOSE_ALPHA = 0.1

# Off-policy evaluation: bootstrap resamples and interval level.
BOOTSTRAP_RESAMPLES = 1000
BOOTSTRAP_LEVEL = 0.95

# Mortality-curve bins (deciles).
MORTALITY_BINS = 10
