import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cohort_digest, oracle_generate
from tridrive.errors import ConfigError, FormatError
from tridrive.fitness import CompMetricConfig, pearson
from tridrive.model import FeatureType, dataset_to_json, load_dataset, save_dataset
from tridrive.synth import (
    CohortConfig,
    cohort_config_from_json,
    generate,
    reference_spec,
)


def _mean_homeostasis(dataset):
    states = CompMetricConfig().prepare(dataset).homeostasis(dataset.feature_ids())
    return [float(np.mean(s)) for s in np.split(states, dataset.columns.offsets[1:-1])]


class TestGenerate:
    def test_generated_dataset_is_valid(self, cohort500):
        cohort500.validate()
        assert len(cohort500.trajectories) == 500

    def test_schema_matches_config(self, cohort500):
        types = [spec.feature_type for spec in cohort500.feature_schema.values()]
        assert types.count(FeatureType.NORMAL_RANGE) == 3
        assert types.count(FeatureType.DIRECTIONAL_LOW) == 2
        assert types.count(FeatureType.DIRECTIONAL_HIGH) == 1

    def test_seed_determinism_bytes(self, tmp_path):
        config = CohortConfig(n_patients=40, seed=42)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_dataset(generate(config), p1)
        save_dataset(generate(config), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seeds_differ(self):
        a = generate(CohortConfig(n_patients=10, seed=1))
        b = generate(CohortConfig(n_patients=10, seed=2))
        assert a != b

    def test_mortality_coupling_strong(self, cohort500):
        surv = [1.0 if t.survived else 0.0 for t in cohort500.trajectories]
        rho = pearson(_mean_homeostasis(cohort500), surv)
        assert rho > 0.5

    def test_no_spurious_coupling_without_beta(self):
        ds = generate(CohortConfig(n_patients=1000, seed=42, mortality_coupling=0.0))
        surv = [1.0 if t.survived else 0.0 for t in ds.trajectories]
        rho = pearson(_mean_homeostasis(ds), surv)
        assert abs(rho) < 0.1

    def test_overtreatment_arm_absent_at_zero(self, cohort500):
        # no patient doses at max level on every step
        for traj in cohort500.trajectories:
            maxed = all(
                all(step.action[aid] == cohort500.action_schema[aid].max_value
                    for aid in step.action)
                for step in traj.steps
            )
            assert not maxed

    def test_overtreatment_arm_present(self, cohort_overtreated):
        ds = cohort_overtreated
        maxed = 0
        for traj in ds.trajectories:
            if all(
                all(step.action[aid] == ds.action_schema[aid].max_value for aid in step.action)
                for step in traj.steps
            ):
                maxed += 1
        assert 0.4 <= maxed / len(ds.trajectories) <= 0.6

    def test_staleness_gradient_spreads_uncertainty(self, cohort500, cohort_stale):
        def mean_staleness(ds):
            return [
                float(np.mean([
                    obs.staleness for s in t.steps for obs in s.observations.values()
                ]))
                for t in ds.trajectories
            ]

        flat = np.std(mean_staleness(cohort500))
        spread = np.std(mean_staleness(cohort_stale))
        assert spread > 3 * flat

    def test_first_step_is_fresh(self, cohort500):
        for traj in cohort500.trajectories[:20]:
            assert all(o.staleness == 0 for o in traj.steps[0].observations.values())

    def test_stale_steps_carry_values_forward(self, cohort_stale):
        for traj in cohort_stale.trajectories[:30]:
            for prev, cur in zip(traj.steps, traj.steps[1:]):
                for fid, obs in cur.observations.items():
                    if obs.staleness > 0:
                        assert obs.value == prev.observations[fid].value

    def test_infeasible_config_rejected(self):
        with pytest.raises(ConfigError, match="feature"):
            generate(CohortConfig(n_normal=0, n_low=0, n_high=0))
        with pytest.raises(ConfigError, match="n_patients"):
            generate(CohortConfig(n_patients=1))
        with pytest.raises(ConfigError, match="horizon"):
            generate(CohortConfig(horizon_min=1, horizon_max=0))


# conftest.cohort_digest of CohortConfig(n_patients=50, seed=0), generated
# and loaded back from its file: the cohort's content, whatever the file
# format. Recorded from the format-2 file, before format 3.
_DIGEST_50_SEED_0 = "10a6145926940a462b14cad3b1e4e57c4307d7433b9ead0a2b9120192c24799f"
# sha256 of the format-3 file save_dataset writes for it.
_GOLDEN_50_SEED_0 = "17a86b8a90dcd82599392c23b09687d786cc0accb47505758a0caf3041d7cb7b"


def _json_bytes(dataset) -> bytes:
    return json.dumps(dataset_to_json(dataset), separators=(",", ":")).encode()


@st.composite
def small_configs(draw):
    horizon_min = draw(st.integers(2, 6))
    n_normal, n_low = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    lo, hi = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2, unique=True)))
    return CohortConfig(
        n_patients=draw(st.integers(2, 6)),
        horizon_min=horizon_min,
        horizon_max=draw(st.integers(horizon_min, 6)),
        n_normal=n_normal,
        n_low=n_low,
        n_high=draw(st.integers(0 if n_normal + n_low else 1, 2)),
        healthy_interval=(lo, hi),
        action_levels=draw(st.dictionaries(st.sampled_from(["a", "b", "drug_c"]),
                                           st.integers(1, 5), max_size=3)),
        mortality_coupling=draw(st.floats(0.0, 1.0)),
        staleness_gradient=draw(st.sampled_from([0.0, 2.0]) | st.floats(0.0, 20.0)),
        overtreatment_prob=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**32)),
    )


class TestMatchesScalarOracle:
    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param({"seed": 0}, id="seed-0"),
            pytest.param({"seed": 3}, id="seed-3"),
            pytest.param({"seed": 11}, id="seed-11"),
            pytest.param({"staleness_gradient": 2.0}, id="staleness-gradient-2"),
            pytest.param({"overtreatment_prob": 0.3}, id="overtreatment-0.3"),
            pytest.param({"overtreatment_prob": 1.0}, id="overtreatment-1"),
            pytest.param({"seed": 2**64 + 3}, id="seed-5-entropy-words"),
            pytest.param({"seed": 2**96 + 5, "overtreatment_prob": 0.5},
                         id="seed-6-entropy-words-overtreatment"),
            pytest.param({"mortality_coupling": 0.0}, id="no-mortality-coupling"),
            pytest.param({"horizon_min": 2, "horizon_max": 2}, id="horizon-2"),
            pytest.param({"n_normal": 0}, id="no-normal-features"),
            pytest.param({"action_levels": {}}, id="no-actions"),
            pytest.param({"action_levels": {"a": 1}}, id="one-single-level-action"),
            pytest.param({"n_patients": 2}, id="two-patients"),
        ],
    )
    def test_same_bytes_as_oracle(self, overrides):
        config = CohortConfig(**{"n_patients": 25, **overrides})
        assert _json_bytes(generate(config)) == _json_bytes(oracle_generate(config))

    @settings(max_examples=60, deadline=None)
    @given(small_configs())
    def test_small_configs_match_oracle(self, config):
        assert _json_bytes(generate(config)) == _json_bytes(oracle_generate(config))

    def test_output_pinned_by_golden_hash(self, tmp_path):
        path = tmp_path / "cohort.json"
        dataset = generate(CohortConfig(n_patients=50, seed=0))
        save_dataset(dataset, path)
        assert cohort_digest(dataset) == cohort_digest(load_dataset(path)) == _DIGEST_50_SEED_0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == _GOLDEN_50_SEED_0


class TestReferenceSpec:
    def test_validates_and_matches_generator(self):
        config = CohortConfig()
        spec = reference_spec(config)
        spec.validate()
        assert set(spec.survival) == set(generate(
            CohortConfig(n_patients=2, seed=0)).feature_schema)

    def test_default_parameter_values(self):
        spec = reference_spec(CohortConfig())
        assert spec.gamma == 0.99
        assert spec.decay_half_life == 48.0
        assert spec.lam == 0.1
        assert all(tau == 6.0 for tau in spec.confidence_tau.values())

    def test_bell_centered_on_interval(self):
        spec = reference_spec(CohortConfig(healthy_interval=(0.3, 0.7)))
        bell = spec.survival["nr0"]
        assert bell.mu == pytest.approx(0.5)
        assert bell.sigma == pytest.approx(0.2)

    def test_directional_taus(self):
        spec = reference_spec(CohortConfig())
        assert spec.survival["lo0"].tau == pytest.approx(0.3)
        assert spec.survival["hi0"].tau == pytest.approx(0.3)


class TestConfigIO:
    def test_from_json_round_trip_fields(self):
        doc = {
            "n_patients": 50,
            "horizon": [10, 20],
            "healthy_interval": [0.3, 0.7],
            "action_levels": {"x": 3},
            "mortality_coupling": 0.5,
            "seed": 9,
        }
        config = cohort_config_from_json(doc)
        assert config.n_patients == 50
        assert (config.horizon_min, config.horizon_max) == (10, 20)
        assert config.action_levels == {"x": 3}

    def test_unknown_key_rejected(self):
        with pytest.raises(FormatError, match="unknown"):
            cohort_config_from_json({"patients": 50})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            cohort_config_from_json({"mortality_coupling": 1.5})
