"""Trajectory data model, dataset container, and canonical JSON serialization.

A dataset is a cohort of per-patient trajectories with irregular
observations. Feature values arrive pre-normalized to [0, 1]; each
observation also carries its staleness (hours since the value was last
genuinely measured, 0 when fresh). Datasets are immutable after load and
safe to share across parallel workers.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import accumulate
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError
from .jsonio import fields_from_json, read_json, write_compact_json


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
# Serialization: format 2, one compact UTF-8 JSON document of columns. Per
# patient: patient_id, survived, sofa_baseline, and offsets of n + 1
# entries, so that patient i owns rows offsets[i] to offsets[i + 1] - 1 of
# every row column (the offsets buffer of the Arrow columnar layout). Per
# row, one per step: t, sofa, and one column per feature in values and
# staleness and per action in actions, null where the step has no such
# observation or action. Columns are in a canonical order (patients in list
# order, ids lexicographic), so load(save(d)) is byte-stable.
# ---------------------------------------------------------------------------

FORMAT = 2

_NONE = type(None)
_INT = frozenset({int})
_NUMBER = frozenset({int, float})  # what JSON numbers parse to; bool is neither


class RaggedColumns:
    """The patient frame of a format-2 document (patient_id and offsets),
    with typed reads of its columns. Errors name the document, and a row's
    patient and t where there is one."""

    def __init__(self, doc, what: str):
        if not isinstance(doc, dict):
            raise FormatError(f"{what} must be a JSON object")
        fmt = doc.get("format")
        if type(fmt) is not int or fmt != FORMAT:
            raise FormatError(
                f'{what}: not a format-{FORMAT} file (no "format": {FORMAT}); files in the '
                "earlier one-object-per-row format are no longer read, so regenerate it"
            )
        self.doc, self.what = doc, what
        self.t: list | None = None
        ids = self.column("patient_id")
        self.patient_ids = self.typed(ids, {str}, self.patient, "patient_id must be a string")
        seen = set()
        for pid in ids:
            if pid in seen:
                raise FormatError(f"{what}: patient {pid!r} appears more than once")
            seen.add(pid)
        offsets = self.column("offsets", len(ids) + 1)
        self.typed(offsets, _INT, lambda i: f"{what}: offsets[{i}]", "offset must be an integer")
        if offsets[0] != 0:
            raise FormatError(f"{what}: offsets must start at 0")
        for i, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
            if hi < lo:
                raise FormatError(f"{self.patient(i)}: offsets decrease ({lo} then {hi})")
        self.offsets = offsets
        self.n_rows = offsets[-1]

    def column(self, key: str, length: int | None = None, group: str | None = None) -> list:
        """The array at key, or at group[key] when key names a column of the
        object group, checked to have length entries."""
        doc, name = self.doc, key
        if group is not None:
            doc, name = self.group(group), f"{group}[{key!r}]"
        if key not in doc:
            raise FormatError(f"{self.what}: missing key {name!r}")
        col = doc[key]
        if not isinstance(col, list):
            raise FormatError(f"{self.what}: {name} must be an array")
        if length is not None and len(col) != length:
            raise FormatError(f"{self.what}: {name} has {len(col)} entries, expected {length}")
        return col

    def group(self, key: str) -> dict:
        """The object at key, whose values are columns."""
        if key not in self.doc:
            raise FormatError(f"{self.what}: missing key {key!r}")
        value = self.doc[key]
        if not isinstance(value, dict):
            raise FormatError(f"{self.what}: {key} must be an object")
        return value

    def rows(self, key: str, group: str | None = None) -> list:
        """A row column: one entry per row."""
        return self.column(key, self.n_rows, group)

    def times(self, integral_floats: bool = False) -> list[int]:
        """The t column, which must hold integers (or, if integral_floats,
        floats with integral values, read as ints). Rows are named by t
        from here on."""
        t = self.rows("t")
        if integral_floats and not set(map(type, t)) <= _INT:
            t = [int(v) if type(v) is float and v.is_integer() else v for v in t]
        self.t = self.typed(t, _INT, self.row, "t must be an integer")
        return self.t

    def patient(self, i: int) -> str:
        return f"{self.what}: patient {self.doc['patient_id'][i]!r}"

    def row(self, i: int) -> str:
        p = bisect_right(self.offsets, i) - 1
        at = f"row {i - self.offsets[p]}" if self.t is None else f"t={self.t[i]}"
        return f"{self.patient(p)} {at}"

    @staticmethod
    def typed(col: list, kinds, where, message: str) -> list:
        """col, once each entry's type is one of kinds; where(i) names entry i."""
        if not set(map(type, col)) <= kinds:
            i = next(i for i, v in enumerate(col) if type(v) not in kinds)
            raise FormatError(f"{where(i)}: {message}, got {col[i]!r}")
        return col

    def floats(self, col: list, where, message: str, nullable: bool = False) -> list:
        """col as Python floats (None kept if nullable); JSON integers widen."""
        kinds = _NUMBER | {_NONE} if nullable else _NUMBER
        self.typed(col, kinds, where, message)
        if int not in set(map(type, col)):
            return col
        out = []
        for i, v in enumerate(col):
            try:
                out.append(v if v is None else float(v))
            except OverflowError:
                raise FormatError(f"{where(i)}: number out of range") from None
        return out


def _feature_to_json(spec: FeatureSpec) -> dict:
    doc = {
        "declared_min": spec.declared_min,
        "declared_max": spec.declared_max,
        "feature_type": spec.feature_type.value,
    }
    if spec.healthy_interval is not None:
        doc["healthy_interval"] = list(spec.healthy_interval)
    return doc


def dataset_to_json(dataset: TrajectoryDataset) -> dict:
    trajs = dataset.trajectories
    steps = [s for traj in trajs for s in traj.steps]
    fids = sorted({fid for s in steps for fid in s.observations})
    aids = sorted({aid for s in steps for aid in s.action})
    values, staleness = {}, {}
    for fid in fids:
        obs = [s.observations.get(fid) for s in steps]
        values[fid] = [None if o is None else o.value for o in obs]
        staleness[fid] = [None if o is None else o.staleness for o in obs]
    return {
        "format": FORMAT,
        "feature_schema": {
            fid: _feature_to_json(spec) for fid, spec in sorted(dataset.feature_schema.items())
        },
        "action_schema": {
            aid: {"max": spec.max_value, "discrete": spec.discrete}
            for aid, spec in sorted(dataset.action_schema.items())
        },
        "patient_id": [traj.patient_id for traj in trajs],
        "survived": [traj.survived for traj in trajs],
        "sofa_baseline": [traj.sofa_baseline for traj in trajs],
        "offsets": list(accumulate((len(traj.steps) for traj in trajs), initial=0)),
        "t": [s.t for s in steps],
        "sofa": [s.sofa for s in steps],
        "values": values,
        "staleness": staleness,
        "actions": {aid: [s.action.get(aid) for s in steps] for aid in aids},
    }


def save_dataset(dataset: TrajectoryDataset, path: str | Path) -> None:
    """Write the dataset; load_dataset reproduces it exactly."""
    dataset.validate()
    write_compact_json(path, dataset_to_json(dataset))


def _parse_feature(fid: str, doc) -> FeatureSpec:
    where = f"feature_schema[{fid!r}]"
    kwargs = fields_from_json(FeatureSpec, doc, where)
    try:
        kwargs["feature_type"] = FeatureType(kwargs["feature_type"])
    except ValueError as exc:
        raise FormatError(f"{where}: unknown feature_type") from exc
    return FeatureSpec(**kwargs)


_ACTION_KEYS = {"max_value": "max"}


def _parse_action(aid: str, doc) -> ActionSpec:
    # A non-finite max is left to validate(), which names the action.
    where = f"action_schema[{aid!r}]"
    return ActionSpec(**fields_from_json(ActionSpec, doc, where, finite=False, keys=_ACTION_KEYS))


def _add_observations(frame: RaggedColumns, fid: str, rows: list[dict]) -> None:
    """Set rows[i][fid] to row i's Observation of fid where it has one."""
    where = frame.row
    values = frame.floats(
        frame.rows(fid, "values"), where, f"feature {fid!r} v must be a number or null", True
    )
    staleness = frame.typed(
        frame.rows(fid, "staleness"), _INT | {_NONE}, where,
        f"feature {fid!r} dt must be an integer or null",
    )
    for i, (row, v, dt) in enumerate(zip(rows, values, staleness)):
        if v is None or dt is None:
            if v is not dt:
                raise FormatError(f"{where(i)}: feature {fid!r} needs both v and dt, or neither")
        else:
            row[fid] = Observation(v, dt)


def _add_actions(frame: RaggedColumns, aid: str, spec: ActionSpec | None, rows: list[dict]):
    """Set rows[i][aid] to row i's level of action aid where it has one."""
    where = frame.row
    levels = frame.floats(
        frame.rows(aid, "actions"), where, f"action {aid!r} level must be a number or null", True
    )
    level_of = int if spec is not None and spec.discrete else float
    for i, (row, level) in enumerate(zip(rows, levels)):
        if level is not None:
            try:
                row[aid] = level_of(level)
            except (OverflowError, ValueError) as exc:  # int() of inf or NaN
                raise ValidationError(f"{where(i)}: action {aid!r} level {level} not finite") from exc


def dataset_from_json(doc) -> TrajectoryDataset:
    frame = RaggedColumns(doc, "dataset")
    feature_schema = {
        fid: _parse_feature(fid, entry) for fid, entry in frame.group("feature_schema").items()
    }
    action_schema = {
        aid: _parse_action(aid, entry) for aid, entry in frame.group("action_schema").items()
    }
    n = len(frame.patient_ids)
    survived = frame.typed(
        frame.column("survived", n), {bool}, frame.patient, "survived must be true or false"
    )
    baselines = frame.floats(
        frame.column("sofa_baseline", n), frame.patient, "sofa_baseline must be a number"
    )
    t = frame.times()
    sofa = frame.floats(frame.rows("sofa"), frame.row, "sofa must be a number")
    if set(frame.group("values")) != set(frame.group("staleness")):
        raise FormatError("dataset: values and staleness must have the same feature columns")
    observations = [{} for _ in range(frame.n_rows)]
    for fid in sorted(frame.group("values")):
        _add_observations(frame, fid, observations)
    actions = [{} for _ in range(frame.n_rows)]
    for aid in sorted(frame.group("actions")):
        _add_actions(frame, aid, action_schema.get(aid), actions)

    steps = list(map(Step, t, sofa, observations, actions))
    offsets = frame.offsets
    dataset = TrajectoryDataset(
        trajectories=[
            Trajectory(pid, steps[lo:hi], alive, baseline)
            for pid, lo, hi, alive, baseline in zip(
                frame.patient_ids, offsets, offsets[1:], survived, baselines
            )
        ],
        feature_schema=feature_schema,
        action_schema=action_schema,
    )
    dataset.validate()
    return dataset


def load_dataset(path: str | Path) -> TrajectoryDataset:
    """Read a dataset document; ordering of trajectories is preserved."""
    return dataset_from_json(read_json(path, "dataset file"))
