"""Trajectory data model, dataset container, and canonical JSON serialization.

A dataset is a cohort of per-patient trajectories with irregular
observations. Feature values arrive pre-normalized to [0, 1]; each
observation also carries its staleness (hours since the value was last
genuinely measured, 0 when fresh). Datasets are immutable after load and
safe to share across parallel workers.

In memory, a loaded or generated cohort is held once, as columns: one
CohortColumns block with a row per step, patient after patient, and
offsets that give each patient its rows (the offsets buffer of the Arrow
columnar layout). Each of its trajectories is a view: its columns are
slices of the block, and its steps, the Step and Observation objects, are
built only when read. A trajectory built from steps,
Trajectory(patient_id, steps, survived, sofa_baseline), derives its
columns from them on first use instead. Assigning a view's steps
detaches it from the block.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
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


@dataclass(frozen=True, eq=False)
class CohortColumns:
    """Every step of a cohort as one row, trajectory after trajectory:
    trajectory k owns rows offsets[k] to offsets[k + 1] - 1 (the offsets
    buffer of the Arrow columnar layout).

    Feature and action columns are in sorted id order; a block may hold
    columns of ids that some of its trajectories never have. A feature
    absent at a step has mask False and holds 0 in values and staleness;
    an action a step does not set has action_mask False and is 0. whole[j]
    is True when action j's levels are whole numbers (a discrete action),
    and so read back as ints.
    """

    feature_ids: list[str]
    action_ids: list[str]
    t: np.ndarray  # [N]
    sofa: np.ndarray  # [N]
    values: np.ndarray  # [N, F]
    staleness: np.ndarray  # [N, F]
    mask: np.ndarray  # [N, F] bool
    actions: np.ndarray  # [N, A]
    action_mask: np.ndarray  # [N, A] bool
    whole: list[bool]  # [A]
    offsets: np.ndarray  # [n + 1]

    def views(self, patient_ids, survived, sofa_baselines) -> list["Trajectory"]:
        """One trajectory per patient, each a view of its rows."""
        return [
            Trajectory.view(pid, self, k, alive, baseline)
            for k, (pid, alive, baseline) in enumerate(zip(patient_ids, survived, sofa_baselines))
        ]

    def rows(self, k: int) -> "CohortColumns":
        """Trajectory k's rows as a block of one trajectory: slices of this
        block, no copy."""
        lo, hi = self.offsets[k : k + 2].tolist()
        return replace(
            self,
            **{name: getattr(self, name)[lo:hi] for name in _ROW_COLUMNS},
            offsets=np.array([0, hi - lo]),
        )

    def steps(self, k: int) -> list[Step]:
        """Trajectory k's rows as Step and Observation objects."""
        lo, hi = self.offsets[k : k + 2].tolist()
        rows = zip(
            self.t[lo:hi].tolist(),
            self.sofa[lo:hi].tolist(),
            self.values[lo:hi].tolist(),
            self.staleness[lo:hi].astype(np.int64).tolist(),
            self.mask[lo:hi].tolist(),
            self.actions[lo:hi].tolist(),
            self.action_mask[lo:hi].tolist(),
        )
        fids, aids, whole = self.feature_ids, self.action_ids, self.whole
        return [
            Step(
                t,
                sofa,
                {fid: Observation(v, dt) for fid, v, dt, m in zip(fids, values, stale, mask) if m},
                {aid: int(x) if w else x for aid, x, w, m in zip(aids, levels, whole, set_) if m},
            )
            for t, sofa, values, stale, mask, levels, set_ in rows
        ]

    @classmethod
    def of(
        cls, step_lists: list[list[Step]], action_schema: dict[str, ActionSpec]
    ) -> "CohortColumns":
        """A new block of the steps, one trajectory per list. An action
        reads back as ints when its schema entry is discrete and every
        level it has is a whole number."""
        steps = [s for sl in step_lists for s in sl]
        fids = sorted({fid for s in steps for fid in s.observations})
        aids = sorted({aid for s in steps for aid in s.action})
        mask = np.array(
            [[fid in s.observations for fid in fids] for s in steps], dtype=bool
        ).reshape(len(steps), len(fids))
        present = [s.observations[fid] for s in steps for fid in fids if fid in s.observations]
        values, staleness = np.zeros(mask.shape), np.zeros(mask.shape)
        values[mask] = [o.value for o in present]
        staleness[mask] = [o.staleness for o in present]
        action_mask = np.array(
            [[aid in s.action for aid in aids] for s in steps], dtype=bool
        ).reshape(len(steps), len(aids))
        actions = np.zeros(action_mask.shape)
        actions[action_mask] = [s.action[aid] for s in steps for aid in aids if aid in s.action]
        whole = [
            aid in action_schema
            and action_schema[aid].discrete
            and bool(np.all(np.isfinite(levels) & (np.trunc(levels) == levels)))
            for aid, levels in zip(aids, actions.T)
        ]
        return cls(
            feature_ids=fids,
            action_ids=aids,
            t=np.array([s.t for s in steps]) if steps else np.zeros(0, dtype=np.int64),
            sofa=np.array([s.sofa for s in steps], dtype=float),
            values=values,
            staleness=staleness,
            mask=mask,
            actions=actions,
            action_mask=action_mask,
            whole=whole,
            offsets=np.array([0] + [len(sl) for sl in step_lists]).cumsum(),
        )

    def take(self, ks: list[int]) -> "CohortColumns":
        """A new block of the rows of trajectories ks, in that order."""
        lo, hi = self.offsets[ks], self.offsets[np.add(ks, 1)]
        rows = np.concatenate([np.arange(a, b) for a, b in zip(lo.tolist(), hi.tolist())])
        return replace(
            self,
            **{name: getattr(self, name)[rows] for name in _ROW_COLUMNS},
            offsets=np.concatenate([[0], np.cumsum(hi - lo)]),
        )


_ROW_COLUMNS = ("t", "sofa", "values", "staleness", "mask", "actions", "action_mask")


@dataclass
class Trajectory:
    """One patient's stay.

    Built from steps, a trajectory derives its columns from them on first
    use. Built by view() (as load_dataset and synth.generate do), it is a
    view of a CohortColumns block: its columns are slices of the block,
    and its steps are built from them only when read. Assigning steps
    detaches a view from its block, and its columns are derived from the
    new steps. Otherwise a trajectory must not change once its columns
    exist: changing a Step object in place changes neither its columns
    nor, for a view, its block.
    """

    patient_id: str
    steps: list[Step]
    survived: bool
    sofa_baseline: float

    @classmethod
    def view(
        cls, patient_id: str, block: CohortColumns, k: int, survived: bool, sofa_baseline: float
    ) -> "Trajectory":
        """The trajectory of block's rows offsets[k] to offsets[k + 1] - 1."""
        traj = cls.__new__(cls)
        traj.patient_id, traj.survived, traj.sofa_baseline = patient_id, survived, sofa_baseline
        traj._view = (block, k)
        return traj

    def __getattr__(self, name: str):
        # Reached only for attributes not set, such as the steps of a view.
        view = self.__dict__.get("_view")
        if name != "steps" or view is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        steps = self.__dict__["steps"] = view[0].steps(view[1])
        return steps

    def __setattr__(self, name: str, value) -> None:
        if name == "steps":
            self.__dict__.pop("_view", None)
            self.__dict__.pop("columns", None)
        super().__setattr__(name, value)

    @cached_property
    def columns(self) -> CohortColumns:
        """The steps as a block of one trajectory, built on first use and kept."""
        view = self.__dict__.get("_view")
        return view[0].rows(view[1]) if view else CohortColumns.of([self.steps], {})


@dataclass
class TrajectoryDataset:
    trajectories: list[Trajectory]
    feature_schema: dict[str, FeatureSpec]
    action_schema: dict[str, ActionSpec]

    def feature_ids(self) -> list[str]:
        return sorted(self.feature_schema)

    @property
    def columns(self) -> CohortColumns:
        """The rows of every trajectory, in order, as one block: the block
        the trajectories are views of when they are all of it, in order;
        a new block of its rows when they are views of one block (a
        split), kept while they are the same views; and otherwise a new
        block built from their steps."""
        views = [traj.__dict__.get("_view") for traj in self.trajectories]
        kept = self.__dict__.get("_columns")
        if kept is not None and kept[0] == views:
            return kept[1]
        block = views[0][0] if views and views[0] is not None else None
        if block is None or any(v is None or v[0] is not block for v in views):
            return CohortColumns.of([traj.steps for traj in self.trajectories], self.action_schema)
        ks = [k for _, k in views]
        if ks == list(range(len(block.offsets) - 1)):
            return block
        self.__dict__["_columns"] = (views, block.take(ks))
        return self.__dict__["_columns"][1]

    def validate(self) -> None:
        """Check every type invariant; raises ValidationError naming the
        first offending trajectory, its first offending row and that row's
        first broken rule, checking features and then actions in id order."""
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
        cols = self.columns
        lengths = np.diff(cols.offsets)
        baselines = np.array([traj.sofa_baseline for traj in self.trajectories], dtype=float)
        short = lengths < 2
        unsound = ~((0.0 <= baselines) & (baselines < math.inf))
        broken = self._broken_rules(cols, lengths)
        bad_rows = np.flatnonzero(broken.any(axis=1))[:1]
        bad = short | unsound
        bad[np.searchsorted(cols.offsets, bad_rows, side="right") - 1] = True
        if not bad.any():
            return
        k = int(np.argmax(bad))
        traj = self.trajectories[k]
        where = f"patient {traj.patient_id!r}"
        if short[k]:
            raise ValidationError(f"{where}: needs >= 2 steps (a reward requires a transition)")
        if unsound[k]:
            raise ValidationError(
                f"{where}: sofa_baseline {traj.sofa_baseline} not finite and >= 0"
            )
        row = int(bad_rows[0])
        raise ValidationError(f"{where}: {self._messages(cols, row)[np.argmax(broken[row])]}")

    def _broken_rules(self, cols: CohortColumns, lengths: np.ndarray) -> np.ndarray:
        """[rows, rules]: True where a row breaks a rule. The rules are in
        the order they are checked, the order of _messages."""
        n = len(cols.t)
        first = np.repeat(cols.offsets[:-1], lengths)
        backwards = np.zeros(n, dtype=bool)
        backwards[1:] = cols.t[1:] <= cols.t[:-1]
        maxima = [getattr(self.action_schema.get(aid), "max_value", math.inf)
                  for aid in cols.action_ids]
        return np.column_stack([
            backwards & (np.arange(n) != first),
            ~((0.0 <= cols.sofa) & (cols.sofa < math.inf)),
            (cols.mask != cols.mask[first]).any(axis=1),
            _per_column(
                cols.mask,
                np.array([fid not in self.feature_schema for fid in cols.feature_ids], dtype=bool),
                ~((0.0 <= cols.values) & (cols.values <= 1.0)),
                ~(cols.staleness >= 0),
            ),
            _per_column(
                cols.action_mask,
                np.array([aid not in self.action_schema for aid in cols.action_ids], dtype=bool),
                ~(cols.actions >= 0),
                cols.actions > np.array(maxima, dtype=float),
            ),
        ])

    def _messages(self, cols: CohortColumns, row: int) -> list[str]:
        """The message of each rule of _broken_rules, at a row."""
        at = f"at t={cols.t[row].item()}"
        messages = [
            f"non-increasing time index {at}",
            f"sofa {cols.sofa[row].item()} not finite and >= 0 {at}",
            f"feature set changes {at}",
        ]
        for fid in cols.feature_ids:
            messages += [
                f"feature {fid!r} not in feature_schema",
                f"feature {fid!r} value out of [0,1] {at}",
                f"feature {fid!r} staleness negative {at}",
            ]
        for aid, level, whole in zip(cols.action_ids, cols.actions[row].tolist(), cols.whole):
            level = int(level) if whole else level
            maximum = getattr(self.action_schema.get(aid), "max_value", None)
            messages += [
                f"action {aid!r} not in action_schema",
                f"action {aid!r} level {level} not >= 0 {at}",
                f"action {aid!r} level {level} exceeds max {maximum} {at}",
            ]
        return messages


def _per_column(present: np.ndarray, *rules: np.ndarray) -> np.ndarray:
    """[rows, 3 * columns]: per column, where each of three rules ([rows,
    columns], or [columns] for every row) is broken at a present entry."""
    broken = np.stack(np.broadcast_arrays(*rules), axis=2) & present[:, :, None]
    return broken.reshape(len(present), len(rules) * present.shape[1])


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
_FLOAT_OVERFLOW = 2**1024 - 2**970  # the least integer a float cannot hold


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

    def times(self, integral_floats: bool = False) -> np.ndarray:
        """The t column as int64. It must hold integers (or, if
        integral_floats, floats with integral values, read as ints) of
        magnitude below 2**53. Rows are named by t from here on."""
        t = self.rows("t")
        if not set(map(type, t)) <= _INT:
            if integral_floats:
                t = [int(v) if type(v) is float and v.is_integer() else v for v in t]
            self.typed(t, _INT, self.row, "t must be an integer")
        self.t = t
        try:
            array = np.array(t, dtype=np.int64)
        except OverflowError:
            array = None
        if array is None or ((array >= 2**53) | (array <= -(2**53))).any():
            i = next(i for i, v in enumerate(t) if abs(v) >= 2**53)
            raise FormatError(f"{self.row(i)}: number out of range")
        return array

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

    def numbers(
        self, col: list, where, message: str, nullable: bool = False, integers: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """col as a float array (NaN where null, if nullable) and the mask of
        its non-null entries. integers admits integers only, of magnitude
        below 2**53 so that the array holds each exactly."""
        kinds = _INT if integers else _NUMBER
        kinds = kinds | {_NONE} if nullable else kinds
        seen = set(map(type, col))
        if not seen <= kinds:
            self.typed(col, kinds, where, message)
        try:
            array = np.array(col, dtype=float)
        except OverflowError:
            array = None
        if array is None or (integers and (np.abs(array) >= 2.0**53).any()):
            limit = 2**53 if integers else _FLOAT_OVERFLOW
            i = next(i for i, v in enumerate(col) if type(v) is int and abs(v) >= limit)
            raise FormatError(f"{where(i)}: number out of range")
        if _NONE not in seen:
            return array, np.ones(len(col), dtype=bool)
        # A null reads as NaN; so does a NaN number, which is present.
        present = ~np.isnan(array)
        if col.count(None) != len(col) - int(present.sum()):
            present = np.fromiter((v is not None for v in col), dtype=bool, count=len(col))
        return array, present


def _feature_to_json(spec: FeatureSpec) -> dict:
    doc = {
        "declared_min": spec.declared_min,
        "declared_max": spec.declared_max,
        "feature_type": spec.feature_type.value,
    }
    if spec.healthy_interval is not None:
        doc["healthy_interval"] = list(spec.healthy_interval)
    return doc


def _json_column(col: np.ndarray, present: np.ndarray, integers: bool = False) -> list:
    """col as a JSON array: null where not present; ints if integers and
    every entry is a whole number that an int64 holds."""
    if integers and np.all((np.trunc(col) == col) & (np.abs(col) < 2.0**63)):
        col = col.astype(np.int64)
    out = col.tolist()
    for i in np.flatnonzero(~present).tolist():
        out[i] = None
    return out


def dataset_to_json(dataset: TrajectoryDataset) -> dict:
    trajs = dataset.trajectories
    cols = dataset.columns
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
        "offsets": cols.offsets.tolist(),
        "t": cols.t.tolist(),
        "sofa": cols.sofa.tolist(),
        # Only the features and actions some step has get a column.
        "values": {
            fid: _json_column(cols.values[:, j], cols.mask[:, j])
            for j, fid in enumerate(cols.feature_ids) if cols.mask[:, j].any()
        },
        "staleness": {
            fid: _json_column(cols.staleness[:, j], cols.mask[:, j], integers=True)
            for j, fid in enumerate(cols.feature_ids) if cols.mask[:, j].any()
        },
        "actions": {
            aid: _json_column(cols.actions[:, j], cols.action_mask[:, j], cols.whole[j])
            for j, aid in enumerate(cols.action_ids) if cols.action_mask[:, j].any()
        },
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


def _observation_columns(frame: RaggedColumns, fid: str):
    """Presence, values and staleness of feature fid per row (0 where absent)."""
    where = frame.row
    values, present = frame.numbers(
        frame.rows(fid, "values"), where, f"feature {fid!r} v must be a number or null", True
    )
    staleness, measured = frame.numbers(
        frame.rows(fid, "staleness"), where,
        f"feature {fid!r} dt must be an integer or null", True, integers=True,
    )
    if not (present == measured).all():
        i = int(np.argmax(present != measured))
        raise FormatError(f"{where(i)}: feature {fid!r} needs both v and dt, or neither")
    return present, np.where(present, values, 0.0), np.where(present, staleness, 0.0)


def _action_column(frame: RaggedColumns, aid: str, spec: ActionSpec | None):
    """Presence and level of action aid per row (0 where unset), and
    whether its levels are whole: a discrete action's levels are truncated
    to whole numbers, as int() does."""
    where = frame.row
    levels, present = frame.numbers(
        frame.rows(aid, "actions"), where, f"action {aid!r} level must be a number or null", True
    )
    whole = spec is not None and spec.discrete
    if whole:
        infinite = present & ~np.isfinite(levels)
        if infinite.any():
            i = int(np.argmax(infinite))
            raise ValidationError(f"{where(i)}: action {aid!r} level {levels[i].item()} not finite")
        levels = np.trunc(levels)
    return present, np.where(present, levels, 0.0), whole


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
    baselines, _ = frame.numbers(
        frame.column("sofa_baseline", n), frame.patient, "sofa_baseline must be a number"
    )
    t = frame.times()
    sofa, _ = frame.numbers(frame.rows("sofa"), frame.row, "sofa must be a number")
    if set(frame.group("values")) != set(frame.group("staleness")):
        raise FormatError("dataset: values and staleness must have the same feature columns")
    fids = sorted(frame.group("values"))
    aids = sorted(frame.group("actions"))
    shape = (frame.n_rows, len(fids))
    mask, values, staleness = np.zeros(shape, dtype=bool), np.zeros(shape), np.zeros(shape)
    for j, fid in enumerate(fids):
        mask[:, j], values[:, j], staleness[:, j] = _observation_columns(frame, fid)
    action_mask = np.zeros((frame.n_rows, len(aids)), dtype=bool)
    actions = np.zeros((frame.n_rows, len(aids)))
    whole = []
    for j, aid in enumerate(aids):
        action_mask[:, j], actions[:, j], is_whole = _action_column(
            frame, aid, action_schema.get(aid)
        )
        whole.append(is_whole)

    block = CohortColumns(
        feature_ids=fids,
        action_ids=aids,
        t=t,
        sofa=sofa,
        values=values,
        staleness=staleness,
        mask=mask,
        actions=actions,
        action_mask=action_mask,
        whole=whole,
        offsets=np.array(frame.offsets, dtype=np.int64),
    )
    dataset = TrajectoryDataset(
        trajectories=block.views(frame.patient_ids, survived, baselines.tolist()),
        feature_schema=feature_schema,
        action_schema=action_schema,
    )
    dataset.validate()
    return dataset


def load_dataset(path: str | Path) -> TrajectoryDataset:
    """Read a dataset document; ordering of trajectories is preserved."""
    return dataset_from_json(read_json(path, "dataset file"))
