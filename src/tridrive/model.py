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

import base64
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

    @property
    def block(self) -> tuple[CohortColumns, int]:
        """(block, k): this is trajectory k of block. For a view, the block
        it views; otherwise its own columns, a block of one trajectory."""
        return self.__dict__.get("_view") or (self.columns, 0)


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
        the trajectories are views of when they are all of it, in order (as
        for a loaded, generated or split dataset), and otherwise a new block
        built from their steps."""
        views = [traj.__dict__.get("_view") for traj in self.trajectories]
        block = views[0][0] if views and views[0] is not None else None
        if block is not None and views == [(block, k) for k in range(len(block.offsets) - 1)]:
            return block
        return CohortColumns.of([traj.steps for traj in self.trajectories], self.action_schema)

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
            ~_whole_below(np.abs(cols.t), I4_LIMIT),
            backwards & (np.arange(n) != first),
            ~((0.0 <= cols.sofa) & (cols.sofa < math.inf)),
            (cols.mask != cols.mask[first]).any(axis=1),
            _per_column(
                cols.mask,
                np.array([fid not in self.feature_schema for fid in cols.feature_ids], dtype=bool),
                ~((0.0 <= cols.values) & (cols.values <= 1.0)),
                ~(cols.staleness >= 0),
                ~_whole_below(cols.staleness, I4_LIMIT),
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
            f"time index {cols.t[row].item()} not a whole number of magnitude below 2**31",
            f"non-increasing time index {at}",
            f"sofa {cols.sofa[row].item()} not finite and >= 0 {at}",
            f"feature set changes {at}",
        ]
        for fid, dt in zip(cols.feature_ids, cols.staleness[row].tolist()):
            messages += [
                f"feature {fid!r} not in feature_schema",
                f"feature {fid!r} value out of [0,1] {at}",
                f"feature {fid!r} staleness negative {at}",
                f"feature {fid!r} staleness {dt} not a whole number below 2**31 {at}",
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


def _whole_below(x: np.ndarray, limit: int) -> np.ndarray:
    """Where x is a whole number in [0, limit)."""
    return (0 <= x) & (x < limit) & (np.trunc(x) == x)


def _per_column(present: np.ndarray, *rules: np.ndarray) -> np.ndarray:
    """[rows, k * columns]: per column, where each of k rules ([rows,
    columns], or [columns] for every row) is broken at a present entry."""
    broken = np.stack(np.broadcast_arrays(*rules), axis=2) & present[:, :, None]
    return broken.reshape(len(present), len(rules) * present.shape[1])


# ---------------------------------------------------------------------------
# Serialization: format 3, one compact UTF-8 JSON document of columns. Per
# patient: patient_id (the one JSON array of the format), survived,
# sofa_baseline, and offsets of n + 1 entries, so that patient i owns rows
# offsets[i] to offsets[i + 1] - 1 of every row column (the offsets buffer of
# the Arrow columnar layout). Per row, one per step: t, sofa, and per feature
# its values, staleness and mask, per action its actions and action_mask.
# Every numeric column is a base64 string of its little-endian bytes, in the
# one dtype the format fixes for it: I4 for integers, F8 for real numbers.
# Every flag column is a bitmap, np.packbits least significant bit first (the
# validity bitmaps of the Arrow layout). A slot its mask marks absent holds 0.
# Columns are in a canonical order (patients in list order, ids
# lexicographic), so load(save(d)) is byte-stable.
# ---------------------------------------------------------------------------

FORMAT = 3
I4, F8 = np.dtype("<i4"), np.dtype("<f8")
I4_LIMIT = 2**31  # validate() keeps the integers a file holds as I4 below it in magnitude


class RaggedColumns:
    """The patient frame of a format-3 document (patient_id, offsets and
    the t column), with reads of its buffers and bitmaps. Errors name the
    document, and a row's patient and t where there is one."""

    def __init__(self, doc, what: str):
        if not isinstance(doc, dict):
            raise FormatError(f"{what} must be a JSON object")
        fmt = doc.get("format")
        if type(fmt) is not int or fmt != FORMAT:
            raise FormatError(
                f'{what}: not a format-{FORMAT} file (no "format": {FORMAT}); files of format 2 '
                "(numbers as JSON text) and of the one-object-per-row format before it are no "
                "longer read, so regenerate it"
            )
        self.doc, self.what = doc, what
        ids = self.patient_ids = self._value("patient_id")[0]
        if not isinstance(ids, list):
            raise FormatError(f"{what}: patient_id must be an array")
        seen = set()
        for i, pid in enumerate(ids):
            if type(pid) is not str:
                raise FormatError(f"{self.patient(i)}: patient_id must be a string, got {pid!r}")
            if pid in seen:
                raise FormatError(f"{what}: patient {pid!r} appears more than once")
            seen.add(pid)
        offsets = self.offsets = self.buffer("offsets", I4, len(ids) + 1)
        if offsets[0] != 0:
            raise FormatError(f"{what}: offsets must start at 0")
        decrease = np.diff(offsets) < 0
        if decrease.any():
            i = int(np.argmax(decrease))
            lo, hi = offsets[i : i + 2].tolist()
            raise FormatError(f"{self.patient(i)}: offsets decrease ({lo} then {hi})")
        self.n_rows = int(offsets[-1])
        self.t = self.buffer("t", I4, self.n_rows)

    def _value(self, key: str, group: str | None = None) -> tuple[object, str]:
        """The value at key, or at group[key] when key names a column of the
        object group, and the name errors give it."""
        name = key if group is None else f"{group}[{key!r}]"
        doc = self.doc if group is None else self.group(group)
        if key not in doc:
            raise FormatError(f"{self.what}: missing key {name!r}")
        return doc[key], name

    def group(self, key: str) -> dict:
        """The object at key, whose values are columns."""
        value, _ = self._value(key)
        if not isinstance(value, dict):
            raise FormatError(f"{self.what}: {key} must be an object")
        return value

    def _bytes(self, key: str, group: str | None) -> tuple[bytes, str]:
        """The bytes of the base64 string at key (or group[key]), and its name."""
        text, name = self._value(key, group)
        if not isinstance(text, str):
            raise FormatError(f"{self.what}: {name} must be a base64 string")
        try:
            return base64.b64decode(text, validate=True), name
        except ValueError as exc:  # binascii.Error, or a character outside ASCII
            raise FormatError(f"{self.what}: {name} is not valid base64 ({exc})") from exc

    def buffer(
        self, key: str, dtype: np.dtype, count: int, group: str | None = None
    ) -> np.ndarray:
        """The count entries of dtype (I4 or F8) at key, or at group[key], as
        a new int64 or float64 array."""
        raw, name = self._bytes(key, group)
        size = dtype.itemsize
        if len(raw) != count * size:
            have = f"{len(raw) // size} entries" if len(raw) % size == 0 else f"{len(raw)} bytes"
            raise FormatError(
                f"{self.what}: {name} has {have}, expected {count} ({dtype.str}, {size} bytes each)"
            )
        return np.frombuffer(raw, dtype).astype(np.int64 if dtype.kind == "i" else np.float64)

    def bitmap(self, key: str, count: int, group: str | None = None) -> np.ndarray:
        """The count flags of the bitmap at key, or at group[key], as bools."""
        raw, name = self._bytes(key, group)
        if len(raw) != -(-count // 8):
            raise FormatError(
                f"{self.what}: {name} has {len(raw)} bytes, expected {-(-count // 8)} "
                f"for {count} flags"
            )
        bits = np.unpackbits(np.frombuffer(raw, np.uint8), count=count, bitorder="little")
        return bits.astype(bool)

    def patient(self, i: int) -> str:
        return f"{self.what}: patient {self.patient_ids[i]!r}"

    def row(self, i: int) -> str:
        return f"{self.patient(bisect_right(self.offsets, i) - 1)} t={self.t[i]}"


def to_buffer(column, dtype: np.dtype) -> str:
    """The base64 text of column's entries as dtype, the inverse of
    RaggedColumns.buffer. Integer columns must fit dtype."""
    return base64.b64encode(np.asarray(column).astype(dtype).tobytes()).decode("ascii")


def to_bitmap(flags) -> str:
    """The base64 text of a bitmap of flags, the inverse of RaggedColumns.bitmap."""
    bits = np.packbits(np.asarray(flags, dtype=bool), bitorder="little")
    return base64.b64encode(bits.tobytes()).decode("ascii")


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
    cols = dataset.columns
    # Only the features and actions some step has get a column.
    features = [(j, fid) for j, fid in enumerate(cols.feature_ids) if cols.mask[:, j].any()]
    actions = [(j, aid) for j, aid in enumerate(cols.action_ids) if cols.action_mask[:, j].any()]
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
        "survived": to_bitmap([traj.survived for traj in trajs]),
        "sofa_baseline": to_buffer([traj.sofa_baseline for traj in trajs], F8),
        "offsets": to_buffer(cols.offsets, I4),
        "t": to_buffer(cols.t, I4),
        "sofa": to_buffer(cols.sofa, F8),
        "values": {fid: to_buffer(cols.values[:, j], F8) for j, fid in features},
        "staleness": {fid: to_buffer(cols.staleness[:, j], I4) for j, fid in features},
        "mask": {fid: to_bitmap(cols.mask[:, j]) for j, fid in features},
        "actions": {aid: to_buffer(cols.actions[:, j], F8) for j, aid in actions},
        "action_mask": {aid: to_bitmap(cols.action_mask[:, j]) for j, aid in actions},
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


def _column_ids(frame: RaggedColumns, groups: tuple[str, ...], what: str) -> list[str]:
    """The sorted column ids of groups, which must all have the same ones."""
    first, *rest = [set(frame.group(g)) for g in groups]
    if any(ids != first for ids in rest):
        names = " and ".join(groups[:-1])
        raise FormatError(f"dataset: {names} must have the same {what} columns as {groups[-1]}")
    return sorted(first)


def dataset_from_json(doc) -> TrajectoryDataset:
    frame = RaggedColumns(doc, "dataset")
    feature_schema = {
        fid: _parse_feature(fid, entry) for fid, entry in frame.group("feature_schema").items()
    }
    action_schema = {
        aid: _parse_action(aid, entry) for aid, entry in frame.group("action_schema").items()
    }
    n, rows = len(frame.patient_ids), frame.n_rows
    survived = frame.bitmap("survived", n)
    baselines = frame.buffer("sofa_baseline", F8, n)
    sofa = frame.buffer("sofa", F8, rows)
    fids = _column_ids(frame, ("values", "staleness", "mask"), "feature")
    aids = _column_ids(frame, ("actions", "action_mask"), "action")
    shape = (rows, len(fids))
    mask, values, staleness = np.zeros(shape, dtype=bool), np.zeros(shape), np.zeros(shape)
    for j, fid in enumerate(fids):
        mask[:, j] = present = frame.bitmap(fid, rows, "mask")
        values[present, j] = frame.buffer(fid, F8, rows, "values")[present]
        staleness[present, j] = frame.buffer(fid, I4, rows, "staleness")[present]
    action_mask = np.zeros((rows, len(aids)), dtype=bool)
    actions = np.zeros((rows, len(aids)))
    whole = [aid in action_schema and action_schema[aid].discrete for aid in aids]
    for j, aid in enumerate(aids):
        action_mask[:, j] = present = frame.bitmap(aid, rows, "action_mask")
        actions[present, j] = frame.buffer(aid, F8, rows, "actions")[present]
        if whole[j]:  # a discrete action's levels are truncated, as int() does
            infinite = ~np.isfinite(actions[:, j])
            if infinite.any():
                i = int(np.argmax(infinite))
                level = actions[i, j].item()
                raise ValidationError(f"{frame.row(i)}: action {aid!r} level {level} not finite")
            actions[:, j] = np.trunc(actions[:, j])

    block = CohortColumns(
        feature_ids=fids,
        action_ids=aids,
        t=frame.t,
        sofa=sofa,
        values=values,
        staleness=staleness,
        mask=mask,
        actions=actions,
        action_mask=action_mask,
        whole=whole,
        offsets=frame.offsets,
    )
    dataset = TrajectoryDataset(
        trajectories=block.views(frame.patient_ids, survived.tolist(), baselines.tolist()),
        feature_schema=feature_schema,
        action_schema=action_schema,
    )
    dataset.validate()
    return dataset


def load_dataset(path: str | Path) -> TrajectoryDataset:
    """Read a dataset document; ordering of trajectories is preserved."""
    return dataset_from_json(read_json(path, "dataset file"))
