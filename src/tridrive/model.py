"""Trajectory data model, dataset container, and the dataset file format.

A dataset is a cohort of per-patient trajectories with irregular
observations. Feature values arrive pre-normalized to [0, 1]; each
observation also carries its staleness (hours since the value was last
genuinely measured, 0 when fresh). Datasets are frozen values, safe to
share across parallel workers.

A dataset holds its cohort once, as columns: one CohortColumns block with
a row per step, patient after patient, and offsets that give each patient
its rows (the offsets buffer of the Arrow columnar layout). Its trajectory
k is a view of row span k: its columns are slices of the block, and its
steps, the Step and Observation objects, are built only when read. A
trajectory built from steps, Trajectory(patient_id, steps, survived,
sofa_baseline), derives its own columns from them on first use; a dataset
of such trajectories builds its block from their steps once.

A dataset file is a format-4 column file (see the Serialization section):
a JSON header of the schemas, the patient ids and a table of the columns,
then each column's raw little-endian bytes, so loading reads the block's
columns straight from the file's bytes. Probability tables share the
format and its one reader, RaggedColumns.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import FormatError, ValidationError
from .jsonio import from_json, read_columns, to_json, write_columns


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

    max_value: float = field(metadata={"json": "max"})
    discrete: bool = True


@dataclass(frozen=True)
class Step:
    """One time step: absolute hour, severity score, observations, action.
    A frozen value, varied with dataclasses.replace; the two mappings are
    held as read-only copies of the ones given."""

    t: int
    sofa: float
    observations: dict[str, Observation]
    action: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("observations", "action"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))


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

    def steps(self, k: int) -> tuple[Step, ...]:
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
        return tuple(
            Step(
                t,
                sofa,
                {fid: Observation(v, dt) for fid, v, dt, m in zip(fids, values, stale, mask) if m},
                {aid: int(x) if w else x for aid, x, w, m in zip(aids, levels, whole, set_) if m},
            )
            for t, sofa, values, stale, mask, levels, set_ in rows
        )

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
            whole=_whole(aids, actions, action_schema),
            offsets=np.array([0] + [len(sl) for sl in step_lists]).cumsum(),
        )

    def fresh(self, fid: str, or_present: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """(rows, values): a flag per row, where feature fid is present with
        staleness 0, and its values there. With or_present, a feature never
        fresh gives the rows where it is present instead."""
        if fid not in self.feature_ids:
            return np.zeros(len(self.t), dtype=bool), np.zeros(0)
        j = self.feature_ids.index(fid)
        rows = self.mask[:, j] & (self.staleness[:, j] == 0)
        if or_present and not rows.any():
            rows = self.mask[:, j]
        return rows, self.values[rows, j]

    def take(self, ks: list[int]) -> "CohortColumns":
        """A new block of the rows of trajectories ks, in that order."""
        lo, hi = self.offsets[ks], self.offsets[np.add(ks, 1)]
        rows = np.concatenate([np.arange(a, b) for a, b in zip(lo.tolist(), hi.tolist())])
        return replace(self.take_rows(rows), offsets=np.concatenate([[0], np.cumsum(hi - lo)]))

    def take_rows(self, rows: np.ndarray) -> "CohortColumns":
        """A new block of the given rows, in that order, each a trajectory
        of one row."""
        # take is several times faster than indexing a 2-D column with rows.
        return replace(
            self,
            **{name: getattr(self, name).take(rows, axis=0) for name in _ROW_COLUMNS},
            offsets=np.arange(len(rows) + 1),
        )


_ROW_COLUMNS = ("t", "sofa", "values", "staleness", "mask", "actions", "action_mask")


def _whole(
    aids: list[str], actions: np.ndarray, action_schema: dict[str, ActionSpec]
) -> list[bool]:
    """Per action of an [N, A] level matrix, whether it reads back as ints:
    its schema entry is discrete and every level it has is a whole number."""
    return [
        aid in action_schema
        and action_schema[aid].discrete
        and bool(np.all(np.isfinite(levels) & (np.trunc(levels) == levels)))
        for aid, levels in zip(aids, actions.T)
    ]


@dataclass(frozen=True)
class Trajectory:
    """One patient's stay: a frozen value, varied with dataclasses.replace.

    Built from steps, a trajectory holds a tuple copy of them and derives
    its columns from them on first use. Built by view(), as every
    trajectory of a dataset is, it is a view of a CohortColumns block: its
    columns are slices of the block, and its steps are built from them only
    when read.
    """

    patient_id: str
    steps: tuple[Step, ...]
    survived: bool
    sofa_baseline: float

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    @classmethod
    def view(
        cls, patient_id: str, block: CohortColumns, k: int, survived: bool, sofa_baseline: float,
        steps: tuple[Step, ...] | None = None,
    ) -> "Trajectory":
        """The trajectory of block's rows offsets[k] to offsets[k + 1] - 1;
        its steps, unless given, are built from them when first read."""
        traj = cls.__new__(cls)
        traj.__dict__.update(
            patient_id=patient_id, survived=survived, sofa_baseline=sofa_baseline, _view=(block, k)
        )
        if steps is not None:
            traj.__dict__["steps"] = steps
        return traj

    def __getattr__(self, name: str):
        # Reached only for attributes not set, such as the steps of a view.
        view = self.__dict__.get("_view")
        if name != "steps" or view is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        steps = self.__dict__["steps"] = view[0].steps(view[1])
        return steps

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


@dataclass(frozen=True)
class TrajectoryDataset:
    """A cohort whose trajectory k is a view of row span k of its block,
    columns: the block the trajectories view when they are all of it in
    order; else a new block of their rows, taken from the one block they
    view or built from their steps. A trajectory's steps, if it has them,
    are kept."""

    trajectories: tuple[Trajectory, ...]
    feature_schema: dict[str, FeatureSpec]
    action_schema: dict[str, ActionSpec]
    columns: CohortColumns = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        trajs = tuple(self.trajectories)
        views = [traj.__dict__.get("_view") for traj in trajs]
        block = views[0][0] if views and views[0] is not None else None
        if block is None or views != [(block, k) for k in range(len(block.offsets) - 1)]:
            if block is not None and all(view and view[0] is block for view in views):
                block = block.take([k for _, k in views])
            else:
                block = CohortColumns.of([traj.steps for traj in trajs], self.action_schema)
            trajs = tuple(Trajectory.view(t.patient_id, block, k, t.survived, t.sofa_baseline,
                                          t.__dict__.get("steps")) for k, t in enumerate(trajs))
        object.__setattr__(self, "trajectories", trajs)
        object.__setattr__(self, "columns", block)

    def feature_ids(self) -> list[str]:
        return sorted(self.feature_schema)

    def validate(self) -> None:
        """Check every type invariant; raises ValidationError naming the
        first offending trajectory (first, a patient id seen before), its
        first offending row and that row's first broken rule. The rules are
        checked one at a time, features and then actions in id order."""
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
        trajs, cols = self.trajectories, self.columns
        seen: set[str] = set()  # repeated: True at each id's second and later uses
        repeated = [traj.patient_id in seen or seen.add(traj.patient_id) for traj in trajs]
        found = _first_offender([
            (np.array(repeated, dtype=bool), lambda k: "appears more than once"),
            (np.diff(cols.offsets) < 2,
             lambda k: "needs >= 2 steps (a reward requires a transition)"),
            (np.array([not 0.0 <= traj.sofa_baseline < math.inf for traj in trajs], dtype=bool),
             lambda k: f"sofa_baseline {trajs[k].sofa_baseline} not finite and >= 0"),
        ])
        # A trajectory's own rules come first: search rows only before its first row.
        in_rows = _first_offender(self._row_rules(cols), cols.offsets[found[0]] if found else None)
        if in_rows:
            found = int(np.searchsorted(cols.offsets, in_rows[0], side="right")) - 1, in_rows[1]
        if found:
            raise ValidationError(f"patient {trajs[found[0]].patient_id!r}: {found[1]}")

    def _row_rules(self, cols: CohortColumns):
        """Each row rule in check order, as (flags, message): flags is True
        at each row that breaks the rule, and message gives its message at
        such a row. An id's rules apply where it is present, and read copies
        of its columns (numpy is several times slower on a strided column)."""
        t, sofa, n = cols.t, cols.sofa, len(cols.t)
        later = np.arange(n) != np.repeat(cols.offsets[:-1], np.diff(cols.offsets))
        changes = np.zeros(n, dtype=bool)
        # The first row whose feature set differs from its trajectory's first
        # row's is the first to differ from the row before it.
        for j in range(len(cols.feature_ids)):
            changes[1:] |= cols.mask[1:, j] != cols.mask[:-1, j]

        def at(i):
            return f"at t={t[i].item()}"

        def feature(j, fid):
            present, values, dt = (c[:, j].copy() for c in (cols.mask, cols.values, cols.staleness))
            yield present & (fid not in self.feature_schema), (
                lambda i: f"feature {fid!r} not in feature_schema")
            yield present & ~((0.0 <= values) & (values <= 1.0)), (
                lambda i: f"feature {fid!r} value out of [0,1] {at(i)}")
            yield present & ~(dt >= 0), lambda i: f"feature {fid!r} staleness negative {at(i)}"
            yield present & ~_whole_below(dt, I4_LIMIT), lambda i: (
                f"feature {fid!r} staleness {dt[i].item()} not a whole number below 2**31 "
                f"{at(i)}")

        def action(j, aid, spec):
            present, levels = cols.action_mask[:, j].copy(), cols.actions[:, j].copy()
            if spec is None:
                yield present, lambda i: f"action {aid!r} not in action_schema"
                return
            def shown(i):  # an int when its whole column is whole
                return int(levels[i]) if cols.whole[j] else levels[i].item()
            yield present & ~(levels >= 0), (
                lambda i: f"action {aid!r} level {shown(i)} not >= 0 {at(i)}")
            yield present & (levels > spec.max_value), lambda i: (
                f"action {aid!r} level {shown(i)} exceeds max {spec.max_value} {at(i)}")
            if spec.discrete:
                yield present & (np.trunc(levels) != levels), lambda i: (
                    f"discrete action {aid!r} level {shown(i)} not a whole number {at(i)}")

        yield ~_whole_below(np.abs(t), I4_LIMIT), (
            lambda i: f"time index {t[i].item()} not a whole number of magnitude below 2**31")
        yield _non_increasing(t, cols.offsets), lambda i: f"non-increasing time index {at(i)}"
        yield ~((0.0 <= sofa) & (sofa < math.inf)), (
            lambda i: f"sofa {sofa[i].item()} not finite and >= 0 {at(i)}")
        yield later & changes, lambda i: f"feature set changes {at(i)}"
        for j, fid in enumerate(cols.feature_ids):
            yield from feature(j, fid)
        for j, aid in enumerate(cols.action_ids):
            yield from action(j, aid, self.action_schema.get(aid))


def _first_offender(rules, stop: int | None = None) -> tuple[int, str] | None:
    """(index, message) of the first index below stop that a rule flags,
    or None when none is flagged. rules are (flags, message) pairs in check
    order: flags a 1-D bool array, and message a function of a flagged
    index. Each rule is searched only before the best index so far, so at
    a tie the earlier rule wins."""
    best = None
    for flags, message in rules:
        if flags[:stop].any():
            stop, best = int(flags[:stop].argmax()), message
    return None if best is None else (stop, best(stop))


def _non_increasing(t: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Where a row after its trajectory's first has a t no greater than the row before's."""
    flags = np.zeros(len(t) + 1, dtype=bool)  # a slot past the last row, for offsets[-1]
    flags[1:-1] = t[1:] <= t[:-1]
    flags[offsets] = False
    return flags[:-1]


def _whole_below(x: np.ndarray, limit: int) -> np.ndarray:
    """Where x is a whole number in [0, limit)."""
    return (0 <= x) & (x < limit) & (np.trunc(x) == x)


# ---------------------------------------------------------------------------
# Serialization: format 4, a column file (tridrive.jsonio.write_columns): the
# magic line, a compact JSON header, then the columns' raw buffers. The header
# holds the schemas, patient_id (one string per patient) and "columns", the
# column table: per column its name, for a column of a group (values,
# staleness, mask, actions, action_mask) the feature or action id, its dtype
# and the byte offset and length of its buffer. The buffers follow one
# another in table order, each padded with zero bytes to a multiple of 8.
# Per patient: survived, sofa_baseline, and offsets of n + 1 entries, so that
# patient i owns rows offsets[i] to offsets[i + 1] - 1 of every row column
# (the offsets buffer of the Arrow columnar layout). Per row, one per step:
# t, sofa, and per feature its values, staleness and mask, per action its
# actions and action_mask. Every numeric column holds little-endian values in
# the one dtype the format fixes for it: I4 for integers, F8 for real
# numbers. Every flag column is a BITMAP, np.packbits least significant bit
# first (the validity bitmaps of the Arrow layout). A slot its mask marks
# absent holds 0. Columns are in a canonical order (patients in list order,
# ids lexicographic), so load(save(d)) is byte-stable.
# ---------------------------------------------------------------------------

I4, F8 = np.dtype("<i4"), np.dtype("<f8")
BITMAP = "bitmap"  # the dtype name of a flag column
I4_LIMIT = 2**31  # validate() keeps the integers a file holds as I4 below it in magnitude
_COLUMN_KEYS = {"name", "dtype", "offset", "length"}  # and "id" for a column of a group


def pack_columns(columns) -> tuple[list[dict], bytes]:
    """The column table and the buffer section of columns, (name, id,
    dtype, values) in file order with id None outside a group: values as
    dtype (I4 or F8; integers must fit it), or a bitmap of them for
    BITMAP."""
    table, chunks, end = [], [], 0
    for name, cid, dtype, values in columns:
        if dtype is BITMAP:
            raw = np.packbits(np.asarray(values, dtype=bool), bitorder="little").tobytes()
        else:
            raw = np.asarray(values).astype(dtype).tobytes()
        entry = {"name": name} if cid is None else {"name": name, "id": cid}
        label = dtype if dtype is BITMAP else dtype.str
        table.append({**entry, "dtype": label, "offset": end, "length": len(raw)})
        pad = bytes(-len(raw) % 8)
        chunks += [raw, pad]
        end += len(raw) + len(pad)
    return table, b"".join(chunks)


class RaggedColumns:
    """The patient frame of a column file (patient_id, offsets and the t
    column) and its column table, with reads of its buffers and bitmaps.
    Every entry of the table is checked against the buffer section before
    any buffer is read. Errors name the file's kind, and a row's patient
    and t where there is one."""

    def __init__(self, header: dict, data, what: str):
        self.doc, self.data, self.what = header, data, what
        self.table = self._table(len(data))
        ids = self.patient_ids = self._value("patient_id")
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

    def _table(self, size: int) -> dict[tuple[str, str | None], tuple[str, int, int, str]]:
        """{(name, id): (dtype, offset, length, the name errors give it)} of
        the column table, whose buffers must tile the size bytes of the
        buffer section in table order: each starts where the one before
        ends, padded to a multiple of 8, and the last ends, padded, at the
        end of the file."""
        what, entries = self.what, self._value("columns")
        if not isinstance(entries, list):
            raise FormatError(f"{what}: columns must be an array")
        table, end = {}, 0
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict) or entry.keys() - {"id"} != _COLUMN_KEYS:
                raise FormatError(
                    f"{what}: columns[{i}] must be an object of name, dtype, offset, length "
                    "and, for a column of a group, id"
                )
            name, cid, dtype, offset, length = (
                entry["name"], entry.get("id"), entry["dtype"], entry["offset"], entry["length"]
            )
            if type(name) is not str or ("id" in entry and type(cid) is not str):
                raise FormatError(f"{what}: columns[{i}] name and id must be strings")
            where = name if cid is None else f"{name}[{cid!r}]"
            if dtype not in (I4.str, F8.str, BITMAP):
                raise FormatError(f"{what}: {where} has dtype {dtype!r}, not <i4, <f8 or bitmap")
            if type(offset) is not int or type(length) is not int or length < 0:
                raise FormatError(f"{what}: {where} offset and length must be whole numbers >= 0")
            start = end + -end % 8
            if offset != start:
                raise FormatError(
                    f"{what}: {where} starts at byte {offset} of the buffers, expected {start} "
                    "(each buffer follows the one before it, padded to a multiple of 8 bytes)"
                )
            end = offset + length
            if end > size:
                raise FormatError(
                    f"{what}: {where} ends at byte {end} of the buffers, past their end at "
                    f"byte {size}"
                )
            if (name, cid) in table:
                raise FormatError(f"{what}: column {where} appears more than once")
            table[name, cid] = dtype, offset, length, where
        if end + -end % 8 != size:
            raise FormatError(
                f"{what}: the columns fill {end + -end % 8} bytes of buffers, the file has {size}"
            )
        return table

    def _value(self, key: str):
        """The header's value at key."""
        if key not in self.doc:
            raise FormatError(f"{self.what}: missing key {key!r}")
        return self.doc[key]

    def group(self, key: str) -> dict:
        """The header's object at key."""
        value = self._value(key)
        if not isinstance(value, dict):
            raise FormatError(f"{self.what}: {key} must be an object")
        return value

    def ids(self, group: str) -> set[str]:
        """The ids of the columns of group."""
        return {cid for name, cid in self.table if name == group and cid is not None}

    def _column(self, key: str, group: str | None, dtype: str) -> tuple[int, int, str]:
        """(offset, length, name) of the column key, or group[key], which must have dtype."""
        entry = self.table.get((key, None) if group is None else (group, key))
        if entry is None:
            name = key if group is None else f"{group}[{key!r}]"
            raise FormatError(f"{self.what}: missing column {name}")
        have, offset, length, name = entry
        if have != dtype:
            raise FormatError(f"{self.what}: {name} has dtype {have}, expected {dtype}")
        return offset, length, name

    def _entries(self, key: str, dtype: np.dtype, count: int, group: str | None) -> np.ndarray:
        """The count entries of dtype (I4 or F8) of the column key, or
        group[key], as a view of the file's bytes."""
        offset, length, name = self._column(key, group, dtype.str)
        size = dtype.itemsize
        if length != count * size:
            have = f"{length // size} entries" if length % size == 0 else f"{length} bytes"
            raise FormatError(
                f"{self.what}: {name} has {have}, expected {count} ({dtype.str}, {size} bytes each)"
            )
        return np.frombuffer(self.data, dtype, count, offset)

    def buffer(
        self, key: str, dtype: np.dtype, count: int, group: str | None = None
    ) -> np.ndarray:
        """The count entries of dtype (I4 or F8) of the column key, or
        group[key], as a new int64 or float64 array."""
        entries = self._entries(key, dtype, count, group)
        return entries.astype(np.int64 if dtype.kind == "i" else np.float64)

    def bitmap(self, key: str, count: int, group: str | None = None) -> np.ndarray:
        """The count flags of the bitmap column key, or group[key], as bools."""
        offset, length, name = self._column(key, group, BITMAP)
        if length != -(-count // 8):
            raise FormatError(
                f"{self.what}: {name} has {length} bytes, expected {-(-count // 8)} "
                f"for {count} flags"
            )
        raw = np.frombuffer(self.data, np.uint8, length, offset)
        return np.unpackbits(raw, count=count, bitorder="little").view(bool)

    def matrix(
        self, group: str, ids: list[str], count: int, dtype: np.dtype | None = None
    ) -> np.ndarray:
        """[count, len(ids)]: column j holds column group[ids[j]], its count
        entries of dtype (I4 or F8) as float64 or, without dtype, its count
        flags. Every column is checked before the matrix is allocated."""
        columns = [
            self.bitmap(cid, count, group) if dtype is None
            else self._entries(cid, dtype, count, group)
            for cid in ids
        ]
        out = np.empty((count, len(ids)), dtype=bool if dtype is None else np.float64)
        for j, column in enumerate(columns):
            out[:, j] = column
        return out

    def patient(self, i: int) -> str:
        return f"{self.what}: patient {self.patient_ids[i]!r}"

    def row(self, i: int) -> str:
        return f"{self.patient(bisect_right(self.offsets, i) - 1)} t={self.t[i]}"


def dataset_to_json(dataset: TrajectoryDataset) -> tuple[dict, bytes]:
    """The header and the buffer section of the dataset's column file."""
    trajs = dataset.trajectories
    cols = dataset.columns
    # Only the features and actions some step has get a column.
    features = [(j, fid) for j, fid in enumerate(cols.feature_ids) if cols.mask[:, j].any()]
    actions = [(j, aid) for j, aid in enumerate(cols.action_ids) if cols.action_mask[:, j].any()]
    table, data = pack_columns([
        ("survived", None, BITMAP, [traj.survived for traj in trajs]),
        ("sofa_baseline", None, F8, [traj.sofa_baseline for traj in trajs]),
        ("offsets", None, I4, cols.offsets),
        ("t", None, I4, cols.t),
        ("sofa", None, F8, cols.sofa),
        *[("values", fid, F8, cols.values[:, j]) for j, fid in features],
        *[("staleness", fid, I4, cols.staleness[:, j]) for j, fid in features],
        *[("mask", fid, BITMAP, cols.mask[:, j]) for j, fid in features],
        *[("actions", aid, F8, cols.actions[:, j]) for j, aid in actions],
        *[("action_mask", aid, BITMAP, cols.action_mask[:, j]) for j, aid in actions],
    ])
    header = {
        "feature_schema": to_json(dataset.feature_schema),
        "action_schema": to_json(dataset.action_schema),
        "patient_id": [traj.patient_id for traj in trajs],
        "columns": table,
    }
    return header, data


def save_dataset(dataset: TrajectoryDataset, path: str | Path) -> None:
    """Write the dataset; load_dataset reproduces it exactly."""
    dataset.validate()
    write_columns(path, *dataset_to_json(dataset))


def _column_ids(frame: RaggedColumns, groups: tuple[str, ...], what: str) -> list[str]:
    """The sorted column ids of groups, which must all have the same ones."""
    first, *rest = [frame.ids(g) for g in groups]
    if any(ids != first for ids in rest):
        names = " and ".join(groups[:-1])
        raise FormatError(f"dataset: {names} must have the same {what} columns as {groups[-1]}")
    return sorted(first)


def dataset_from_json(header: dict, data) -> TrajectoryDataset:
    """The dataset of a column file's header and buffer section."""
    frame = RaggedColumns(header, data, "dataset")
    feature_schema = from_json(
        frame.group("feature_schema"), dict[str, FeatureSpec], "feature_schema"
    )
    # A non-finite max is left to validate(), which names the action.
    action_schema = from_json(
        frame.group("action_schema"), dict[str, ActionSpec], "action_schema", finite=False
    )
    n, rows = len(frame.patient_ids), frame.n_rows
    survived = frame.bitmap("survived", n)
    baselines = frame.buffer("sofa_baseline", F8, n)
    sofa = frame.buffer("sofa", F8, rows)
    fids = _column_ids(frame, ("values", "staleness", "mask"), "feature")
    aids = _column_ids(frame, ("actions", "action_mask"), "action")
    mask, action_mask = frame.matrix("mask", fids, rows), frame.matrix("action_mask", aids, rows)
    values = frame.matrix("values", fids, rows, F8)
    staleness = frame.matrix("staleness", fids, rows, I4)
    actions = frame.matrix("actions", aids, rows, F8)
    # An absent slot reads as 0, whatever the file holds there.
    for columns, present in ((values, mask), (staleness, mask), (actions, action_mask)):
        np.copyto(columns, 0.0, where=~present)
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
        whole=_whole(aids, actions, action_schema),
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
    """Read a dataset file; ordering of trajectories is preserved."""
    return dataset_from_json(*read_columns(path, "dataset file"))
