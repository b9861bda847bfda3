"""Trajectory data model, dataset container, and canonical JSON serialization.

A dataset is a cohort of per-patient trajectories with irregular
observations. Feature values arrive pre-normalized to [0, 1]; each
observation also carries its staleness (hours since the value was last
genuinely measured, 0 when fresh). Datasets are immutable after load and
safe to share across parallel workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError
from .jsonio import read_json, write_json


class FeatureType(str, Enum):
    NORMAL_RANGE = "NormalRange"
    DIRECTIONAL_LOW = "DirectionalLow"
    DIRECTIONAL_HIGH = "DirectionalHigh"


@dataclass(frozen=True)
class Observation:
    """One feature reading: normalized value plus hours of staleness."""

    value: float
    staleness: int


@dataclass(frozen=True)
class FeatureSpec:
    """Schema entry for one feature.

    declared_min/declared_max are the raw-unit bounds used to produce the
    normalized values; they are retained so reports can de-normalize for
    display. healthy_interval is on the normalized scale and is required
    for NormalRange features.
    """

    declared_min: float
    declared_max: float
    feature_type: FeatureType
    healthy_interval: tuple[float, float] | None = None


@dataclass(frozen=True)
class ActionSpec:
    """Schema entry for one action dimension: its maximum level/magnitude."""

    max_value: float
    discrete: bool = True


@dataclass
class Step:
    """One time step: absolute hour, severity score, observations, action."""

    t: int
    sofa: float
    observations: dict[str, Observation]
    action: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class TrajectoryColumns:
    """Column block of one trajectory: row i belongs to steps[i].

    Feature and action columns are in sorted id order. A feature absent at
    a step has mask False and holds 0 in values and staleness; an action a
    step does not set is 0.
    """

    feature_index: dict[str, int]
    values: np.ndarray  # [T, F]
    staleness: np.ndarray  # [T, F]
    mask: np.ndarray  # [T, F] bool
    t: np.ndarray  # [T]
    sofa: np.ndarray  # [T]
    action_index: dict[str, int]
    actions: np.ndarray  # [T, A]
    acting_ids: frozenset[str]  # action ids set on some step but the last

    @classmethod
    def of(cls, steps: list[Step]) -> "TrajectoryColumns":
        fids = sorted({fid for s in steps for fid in s.observations})
        aids = sorted({aid for s in steps for aid in s.action})
        mask = np.array(
            [[fid in s.observations for fid in fids] for s in steps], dtype=bool
        ).reshape(len(steps), len(fids))
        present = [s.observations[fid] for s in steps for fid in fids if fid in s.observations]
        values = np.zeros(mask.shape)
        values[mask] = [o.value for o in present]
        staleness = np.zeros(mask.shape)
        staleness[mask] = [o.staleness for o in present]
        return cls(
            feature_index={fid: j for j, fid in enumerate(fids)},
            values=values,
            staleness=staleness,
            mask=mask,
            t=np.array([s.t for s in steps], dtype=float),
            sofa=np.array([s.sofa for s in steps], dtype=float),
            action_index={aid: j for j, aid in enumerate(aids)},
            actions=np.array(
                [[s.action.get(aid, 0.0) for aid in aids] for s in steps], dtype=float
            ).reshape(len(steps), len(aids)),
            acting_ids=frozenset(aid for s in steps[:-1] for aid in s.action),
        )


@dataclass
class Trajectory:
    patient_id: str
    steps: list[Step]
    survived: bool
    sofa_baseline: float

    @cached_property
    def columns(self) -> TrajectoryColumns:
        """The steps as arrays, built on first use and kept: a trajectory
        must not change once its columns exist."""
        return TrajectoryColumns.of(self.steps)


@dataclass
class TrajectoryDataset:
    trajectories: list[Trajectory]
    feature_schema: dict[str, FeatureSpec]
    action_schema: dict[str, ActionSpec]

    def feature_ids(self) -> list[str]:
        return sorted(self.feature_schema)

    def validate(self) -> None:
        """Check every type invariant; raises ValidationError naming the offender."""
        for fid, spec in self.feature_schema.items():
            if spec.feature_type is FeatureType.NORMAL_RANGE:
                if spec.healthy_interval is None:
                    raise ValidationError(
                        f"feature {fid!r}: NormalRange requires a healthy_interval"
                    )
                lo, hi = spec.healthy_interval
                if not (0.0 <= lo <= hi <= 1.0):
                    raise ValidationError(
                        f"feature {fid!r}: healthy_interval [{lo}, {hi}] out of order or out of [0,1]"
                    )
        for aid, spec in self.action_schema.items():
            if not (0.0 < spec.max_value < math.inf):
                raise ValidationError(f"action {aid!r}: max {spec.max_value} not finite and > 0")
        for traj in self.trajectories:
            self._validate_trajectory(traj)

    def _validate_trajectory(self, traj: Trajectory) -> None:
        pid = traj.patient_id
        if len(traj.steps) < 2:
            raise ValidationError(f"patient {pid!r}: needs >= 2 steps (a reward requires a transition)")
        if not (0.0 <= traj.sofa_baseline < math.inf):
            raise ValidationError(
                f"patient {pid!r}: sofa_baseline {traj.sofa_baseline} not finite and >= 0"
            )
        prev_t = None
        feature_set = None
        for step in traj.steps:
            if prev_t is not None and step.t <= prev_t:
                raise ValidationError(
                    f"patient {pid!r}: non-increasing time index at t={step.t}"
                )
            prev_t = step.t
            if not (0.0 <= step.sofa < math.inf):
                raise ValidationError(
                    f"patient {pid!r}: sofa {step.sofa} not finite and >= 0 at t={step.t}"
                )
            ids = frozenset(step.observations)
            if feature_set is None:
                feature_set = ids
            elif ids != feature_set:
                raise ValidationError(
                    f"patient {pid!r}: feature set changes at t={step.t}"
                )
            for fid, obs in step.observations.items():
                if fid not in self.feature_schema:
                    raise ValidationError(
                        f"patient {pid!r}: feature {fid!r} not in feature_schema"
                    )
                if not (0.0 <= obs.value <= 1.0):
                    raise ValidationError(
                        f"patient {pid!r}: feature {fid!r} value out of [0,1] at t={step.t}"
                    )
                if not (obs.staleness >= 0):
                    raise ValidationError(
                        f"patient {pid!r}: feature {fid!r} staleness negative at t={step.t}"
                    )
            for aid, level in step.action.items():
                if aid not in self.action_schema:
                    raise ValidationError(
                        f"patient {pid!r}: action {aid!r} not in action_schema"
                    )
                if not (level >= 0):
                    raise ValidationError(
                        f"patient {pid!r}: action {aid!r} level {level} not >= 0 at t={step.t}"
                    )
                if level > self.action_schema[aid].max_value:
                    raise ValidationError(
                        f"patient {pid!r}: action {aid!r} level {level} exceeds max "
                        f"{self.action_schema[aid].max_value} at t={step.t}"
                    )


# ---------------------------------------------------------------------------
# Serialization. The on-disk form is a single UTF-8 JSON document; keys are
# emitted in a canonical order (trajectories in list order, feature ids
# lexicographic) so that load(save(d)) is byte-stable.
# ---------------------------------------------------------------------------


def _feature_to_json(spec: FeatureSpec) -> dict:
    doc = {
        "declared_min": spec.declared_min,
        "declared_max": spec.declared_max,
        "feature_type": spec.feature_type.value,
    }
    if spec.healthy_interval is not None:
        doc["healthy_interval"] = list(spec.healthy_interval)
    return doc


def _step_to_json(step: Step) -> dict:
    return {
        "t": step.t,
        "sofa": step.sofa,
        "obs": {
            fid: {"v": obs.value, "dt": obs.staleness}
            for fid, obs in sorted(step.observations.items())
        },
        "action": {aid: level for aid, level in sorted(step.action.items())},
    }


def dataset_to_json(dataset: TrajectoryDataset) -> dict:
    return {
        "feature_schema": {
            fid: _feature_to_json(spec) for fid, spec in sorted(dataset.feature_schema.items())
        },
        "action_schema": {
            aid: {"max": spec.max_value, "discrete": spec.discrete}
            for aid, spec in sorted(dataset.action_schema.items())
        },
        "trajectories": [
            {
                "patient_id": traj.patient_id,
                "survived": traj.survived,
                "sofa_baseline": traj.sofa_baseline,
                "steps": [_step_to_json(s) for s in traj.steps],
            }
            for traj in dataset.trajectories
        ],
    }


def save_dataset(dataset: TrajectoryDataset, path: str | Path) -> None:
    """Write the dataset; load_dataset reproduces it exactly."""
    dataset.validate()
    write_json(path, dataset_to_json(dataset))


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise FormatError(f"{where}: missing key {key!r}")
    return doc[key]


def _parse_feature(fid: str, doc: dict) -> FeatureSpec:
    where = f"feature_schema[{fid!r}]"
    try:
        ftype = FeatureType(_require(doc, "feature_type", where))
    except ValueError as exc:
        raise FormatError(f"{where}: unknown feature_type") from exc
    interval = doc.get("healthy_interval")
    if interval is not None:
        if not (isinstance(interval, list) and len(interval) == 2):
            raise FormatError(f"{where}: healthy_interval must be [lo, hi]")
        interval = (float(interval[0]), float(interval[1]))
    return FeatureSpec(
        declared_min=float(_require(doc, "declared_min", where)),
        declared_max=float(_require(doc, "declared_max", where)),
        feature_type=ftype,
        healthy_interval=interval,
    )


def _parse_step(doc: dict, where: str, action_schema: dict[str, ActionSpec]) -> Step:
    t = _require(doc, "t", where)
    if not isinstance(t, int) or isinstance(t, bool):
        raise FormatError(f"{where}: t must be an integer")
    obs = {}
    for fid, entry in _require(doc, "obs", where).items():
        dt = _require(entry, "dt", f"{where} obs[{fid!r}]")
        if not isinstance(dt, int) or isinstance(dt, bool):
            raise FormatError(f"{where} obs[{fid!r}]: dt must be an integer")
        obs[fid] = Observation(value=float(_require(entry, "v", f"{where} obs[{fid!r}]")), staleness=dt)
    action = {}
    for aid, level in doc.get("action", {}).items():
        spec = action_schema.get(aid)
        try:
            action[aid] = int(level) if spec is not None and spec.discrete else float(level)
        except (OverflowError, ValueError) as exc:  # int() of inf or NaN
            raise ValidationError(f"{where}: action {aid!r} level {level} not finite") from exc
    return Step(t=t, sofa=float(_require(doc, "sofa", where)), observations=obs, action=action)


def dataset_from_json(doc: dict) -> TrajectoryDataset:
    feature_schema = {
        fid: _parse_feature(fid, entry)
        for fid, entry in _require(doc, "feature_schema", "document").items()
    }
    action_schema = {}
    for aid, entry in _require(doc, "action_schema", "document").items():
        action_schema[aid] = ActionSpec(
            max_value=float(_require(entry, "max", f"action_schema[{aid!r}]")),
            discrete=bool(entry.get("discrete", True)),
        )
    trajectories = []
    for i, tdoc in enumerate(_require(doc, "trajectories", "document")):
        where = f"trajectory[{i}]"
        pid = _require(tdoc, "patient_id", where)
        steps = [
            _parse_step(sdoc, f"patient {pid!r} step[{j}]", action_schema)
            for j, sdoc in enumerate(_require(tdoc, "steps", where))
        ]
        trajectories.append(
            Trajectory(
                patient_id=pid,
                steps=steps,
                survived=bool(_require(tdoc, "survived", where)),
                sofa_baseline=float(_require(tdoc, "sofa_baseline", where)),
            )
        )
    dataset = TrajectoryDataset(
        trajectories=trajectories,
        feature_schema=feature_schema,
        action_schema=action_schema,
    )
    dataset.validate()
    return dataset


def load_dataset(path: str | Path) -> TrajectoryDataset:
    """Read a dataset document; ordering of trajectories is preserved."""
    doc = read_json(path, "dataset file")
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top level must be an object")
    return dataset_from_json(doc)
