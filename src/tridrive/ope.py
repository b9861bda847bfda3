"""Weighted importance sampling over logged trajectories.

Policies enter as probability tables over the logged transitions (one
evaluation-policy and one behavior-policy probability per logged action),
the minimal interface off-policy evaluation needs; no policy models are
fitted here. Weights are whole-trajectory likelihood-ratio products, the
estimate is self-normalized (biased for finite samples but consistent),
and confidence intervals come from trajectory-level percentile bootstrap.
Every bootstrap resample draws from its own generator keyed on (seed, b),
so results do not depend on evaluation order. The draws depend only on
(seed, n, resamples), so they are made once, kept as how many times each
resample drew each trajectory (one byte per count, unless a count exceeds
255), and shared, read-only, by every table of a checkpoint series: a
table's resample sums are then products of blocks of that count matrix,
each cast into one reused float buffer, with its weights. The counts are
read from PCG64's raw outputs with numpy's own bounded-draw method, a chunk
of resamples at a time, and any resample where that method might reject a
word is drawn by numpy itself. A table's weights come from one join of
its rows to the transition rows of the dataset's block; trajectory_weight,
called per trajectory, reads them, or, for a trajectory the join flags,
finds each step's row by t and raises for a step with none. The OPE
stage (tridrive.pipeline.ope_stage) evaluates a series' tables one at a
time, so memory does not grow with the table count. A table file is a
format-4 column file, read by the dataset files' reader
(tridrive.model.RaggedColumns): its patient frame and two F8 columns, so a
load is one read, a small JSON header and a view per column.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple, Sequence

import numpy as np

from . import defaults
from .errors import DegenerateStatisticError, FormatError, SchemaError, ValidationError
from .fitness import _quantiles
from .jsonio import read_columns, write_columns
from .model import (
    F8, I4, I4_LIMIT, CohortColumns, RaggedColumns, Trajectory, TrajectoryDataset, pack_columns,
)
from .rewards import RewardTrace, trace_returns
from .streams import reseat, seed_states


class ProbColumns(NamedTuple):
    """The rows of a probability table: each patient's row span [lo, hi),
    and per row t (int64, strictly increasing within a patient), p_eval and
    p_behavior."""

    spans: dict[str, tuple[int, int]]
    t: np.ndarray
    p_eval: np.ndarray
    p_behavior: np.ndarray


class PolicyProbTable:
    """Per logged transition, the probability of the logged action under the
    evaluation and behavior policies. Keyed on (patient_id, t) where t is
    the absolute time index of the step whose action was taken.

    Held as columns, checked (_check_rows) when made: by of_columns for a
    loaded or identity table, whose probs dict is built only when read;
    once, on first use, for a table built from a dict, PolicyProbTable(probs),
    which holds a read-only copy of the dict and whose columns are sorted
    by (patient, t).
    """

    def __init__(self, probs: dict[tuple[str, int], tuple[float, float]]):
        self.__dict__["probs"] = MappingProxyType(dict(probs))

    @classmethod
    def of_columns(cls, columns: ProbColumns) -> "PolicyProbTable":
        _check_rows(columns)
        table = cls.__new__(cls)
        table.__dict__["columns"] = columns
        return table

    @cached_property
    def columns(self) -> ProbColumns:
        """The rows, derived from probs once, on first use, for a dict-built
        table. Raises ValidationError naming the first key, in row order,
        whose t is not a whole number below 2**53 in magnitude (so that a
        float holds it exactly), or else what _check_rows raises."""
        keys = sorted(self.probs)
        values = list(map(self.probs.__getitem__, keys))
        rows = Counter(map(itemgetter(0), keys))  # per patient, in sorted order
        ends = list(accumulate(rows.values()))

        def column(entries, i, dtype):
            return np.fromiter(map(itemgetter(i), entries), dtype, count=len(keys))

        t = column(keys, 1, float)
        bad = ~((np.trunc(t) == t) & (np.abs(t) < 2.0**53))
        if bad.any():
            pid, step = keys[int(np.argmax(bad))]
            raise ValidationError(
                f"({pid!r}, t={step}): t not a whole number of magnitude below 2**53"
            )
        columns = ProbColumns(
            dict(zip(rows, zip([0, *ends], ends))),
            t.astype(np.int64),
            column(values, 0, float),
            column(values, 1, float),
        )
        _check_rows(columns)
        return columns

    @cached_property
    def probs(self) -> dict[tuple[str, int], tuple[float, float]]:
        """{(patient_id, t): (p_eval, p_behavior)}, read-only, built from the
        columns when first read."""
        spans, t, p_eval, p_behavior = self.columns
        rows = list(zip(t.tolist(), zip(p_eval.tolist(), p_behavior.tolist())))
        return MappingProxyType(
            {(pid, step): p for pid, (lo, hi) in spans.items() for step, p in rows[lo:hi]}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolicyProbTable):
            return NotImplemented
        return self.probs == other.probs


def _check_rows(columns: ProbColumns) -> None:
    """Raises ValidationError at the first row, in row order, whose t is
    not below 2**31 in magnitude, whose p_eval is outside [0, 1] or whose
    p_behavior is outside (0, 1], checked in that order."""
    spans, t, p_eval, p_behavior = columns
    bad_t = ~((-I4_LIMIT < t) & (t < I4_LIMIT))
    bad_eval = ~((0.0 <= p_eval) & (p_eval <= 1.0))
    bad = bad_t | bad_eval | ~((0.0 < p_behavior) & (p_behavior <= 1.0))
    if not bad.any():
        return
    row = int(np.argmax(bad))
    pid = next(pid for pid, (lo, hi) in spans.items() if lo <= row < hi)
    where = f"({pid!r}, t={t[row].item()})"
    if bad_t[row]:
        raise ValidationError(f"{where}: t not of magnitude below 2**31")
    if bad_eval[row]:
        raise ValidationError(f"{where}: p_eval {p_eval[row].item()} out of [0,1]")
    raise ValidationError(
        f"{where}: p_behavior {p_behavior[row].item()} must lie in (0,1] "
        "(logged actions need behavior-policy support)"
    )


@dataclass
class WisEstimate:
    value: float
    ci_low: float
    ci_high: float
    n_effective: float
    skipped_resamples: int = 0


def identity_prob_table(dataset: TrajectoryDataset) -> PolicyProbTable:
    """Table with p_eval == p_behavior == 1 everywhere: evaluates the logged
    (clinician) policy itself, reducing the estimator to the mean return.
    Its rows are every row of the dataset's block but each trajectory's last."""
    cols = dataset.columns
    lengths = np.diff(cols.offsets)
    keep = np.ones(len(cols.t), dtype=bool)
    keep[cols.offsets[1:][lengths > 0] - 1] = False
    offsets = np.concatenate([[0], np.cumsum(np.maximum(lengths - 1, 0))]).tolist()
    spans = {
        traj.patient_id: span
        for traj, span in zip(dataset.trajectories, zip(offsets, offsets[1:]))
    }
    ones = np.ones(offsets[-1])
    return PolicyProbTable.of_columns(ProbColumns(spans, cols.t[keep], ones, ones))


def trajectory_weight(
    trajectory: Trajectory, probs: PolicyProbTable, max_ratio: float | None = None
) -> float:
    """Product of per-transition likelihood ratios p_eval / p_behavior, in
    step order.

    max_ratio optionally caps each per-step ratio; disabled (None) gives the
    textbook estimator. Raises SchemaError for the first step the table has
    no row for. Every p_behavior of a table in use is > 0: a table with a
    bad row, any patient's, raises ValidationError when first used.

    Called by wis and bootstrap_ci once per trajectory of a dataset, it
    returns the weight their one join of the table to the dataset's block
    computed (_join_weights), unless the join flagged the trajectory.
    """
    block, k = trajectory.block
    joined_block, joined_probs, joined_max_ratio, patient_ids, weights, flagged = _joined
    if (
        joined_block is block
        and joined_probs is probs
        and joined_max_ratio == max_ratio
        and patient_ids[k] == trajectory.patient_id
        and not flagged[k]
    ):
        return weights[k]
    pid = trajectory.patient_id
    steps = trajectory.columns.t[:-1]
    table = probs.columns
    span = slice(*table.spans.get(pid, (0, 0)))
    t = table.t[span]
    at = np.searchsorted(t, steps)
    found = np.zeros(len(steps), dtype=bool)
    inside = at < len(t)
    found[inside] = t[at[inside]] == steps[inside]
    if not found.all():
        raise SchemaError(
            f"no policy probabilities for patient {pid!r} at t={steps[~found][0].item()}"
        )
    ratios = table.p_eval[span][at] / table.p_behavior[span][at]
    if max_ratio is not None:
        ratios = np.minimum(ratios, max_ratio)
    # math.prod multiplies in step order, as a loop would.
    return math.prod(ratios.tolist(), start=1.0)


# The weights of the table being evaluated by _weights_and_returns, keyed on
# the dataset's block, the table and max_ratio: (block, table,
# max_ratio, patient_ids, weights, flagged). One slot, emptied before
# _weights_and_returns returns, so no table outlives its evaluation. It is
# read and replaced as one tuple, so concurrent calls never pair a key with
# another key's weights; at worst they compute afresh.
_NOT_JOINED = (None, None, None, None, None, None)
_joined: tuple = _NOT_JOINED


def _join_weights(
    block: CohortColumns,
    patient_ids: list[str],
    probs: PolicyProbTable,
    max_ratio: float | None,
) -> tuple[list[float], list[bool]]:
    """Every trajectory's weight from one join of the table's rows to the
    block's transition rows (each trajectory's rows but its last), and
    whether it is flagged: its rows are not exactly its patient's table
    rows, as equal t of one integer dtype. A flagged trajectory's weight is
    left to trajectory_weight's own code, which raises for it or matches
    rows by t."""
    table = probs.columns
    n = len(patient_ids)
    steps = np.maximum(np.diff(block.offsets), 1) - 1
    spans = [table.spans.get(pid, (0, 0)) for pid in patient_ids]
    lo, hi = np.array(spans, dtype=np.int64).reshape(n, 2).T
    end = min(len(table.t), len(table.p_eval), len(table.p_behavior))
    exact = (hi - lo == steps) & (0 <= lo) & (hi <= end)
    exact &= table.t.dtype == block.t.dtype and table.t.dtype.kind in "iu"
    counts = np.where(exact, steps, 0)
    starts = np.cumsum(counts) - counts
    within = np.arange(counts.sum()) - np.repeat(starts, counts)
    rows = np.repeat(lo, counts) + within
    block_rows = np.repeat(block.offsets[:-1], counts) + within
    exact[np.repeat(np.arange(n), counts)[table.t[rows] != block.t[block_rows]]] = False
    ratios = table.p_eval[rows] / table.p_behavior[rows]
    if max_ratio is not None:
        np.minimum(ratios, max_ratio, out=ratios)
    weights = np.ones(n)  # a trajectory of one step has no ratio
    nonempty = counts > 0
    if nonempty.any():
        # Multiplied in step order, as math.prod does; and, as there, an
        # overflow or inf * 0 gives inf or NaN without a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            weights[nonempty] = np.multiply.reduceat(ratios, starts[nonempty])
    return weights.tolist(), (~exact).tolist()


def _weights_and_returns(
    dataset: TrajectoryDataset,
    traces: Sequence[RewardTrace],
    probs: PolicyProbTable,
    max_ratio: float | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Each trajectory's weight, by trajectory_weight, and return. The
    table is joined to the dataset's block once first, and
    trajectory_weight reads the joined weights."""
    global _joined
    returns = trace_returns(dataset, traces)
    if max_ratio is not None and not max_ratio > 0.0:
        raise ValidationError(f"max_ratio must be > 0 (inf allowed), got {max_ratio}")
    patient_ids = [traj.patient_id for traj in dataset.trajectories]
    try:
        joined = _join_weights(dataset.columns, patient_ids, probs, max_ratio)
        _joined = (dataset.columns, probs, max_ratio, patient_ids, *joined)
        weights = np.array(
            [trajectory_weight(traj, probs, max_ratio) for traj in dataset.trajectories]
        )
    finally:
        _joined = _NOT_JOINED
    return weights, returns


def wis(
    dataset: TrajectoryDataset,
    traces: Sequence[RewardTrace],
    probs: PolicyProbTable,
    max_ratio: float | None = None,
) -> float:
    """Self-normalized importance-sampling estimate of the evaluation
    policy's expected return: sum(w_i * R_i) / sum(w_i)."""
    weights, returns = _weights_and_returns(dataset, traces, probs, max_ratio)
    total = weights.sum()
    if total <= 0.0:
        raise DegenerateStatisticError(
            "all trajectory weights are zero; the estimate is undefined"
        )
    return float(np.dot(weights, returns) / total)


# Counts per block of resamples. bootstrap_ci casts each block into one
# [rows, n] float buffer, made once per call, and writes the block's sums
# into their rows of one [resamples, 2] array by one [rows, n] @ [n, 2]
# product. A block holds at most 2**17 counts: 1 MB as floats, which stays
# in cache, and rows * n * 2 <= 262,144, the size up to which OpenBLAS keeps
# a product on one thread (its hand-off to a worker thread is slow on small
# products).
_BLOCK_ENTRIES = 1 << 17


# Resamples drawn per chunk in resample_counts. Its buffers hold 64 rows of
# words and draws, so they stay small whatever the resample count.
_CHUNK_ROWS = 64


def _filled(out: np.ndarray, rows, counts: np.ndarray) -> np.ndarray:
    """out, with counts written at out[rows]; first widened to the smallest
    unsigned dtype that holds n, out's row length, if a count does not fit."""
    if counts.max(initial=0) > np.iinfo(out.dtype).max:
        out = out.astype(np.min_scalar_type(out.shape[1]))
    out[rows] = counts
    return out


@functools.lru_cache(maxsize=1)
def resample_counts(seed: int, n: int, resamples: int) -> np.ndarray:
    """Read-only [resamples, n] bootstrap counts: entry [b, i] is how many
    times resample b drew trajectory i, as uint8, unless a count exceeds
    255: then in the smallest unsigned dtype that holds n. Row b holds the
    draws of `default_rng(SeedSequence([seed, b])).integers(0, n, size=n)`,
    made by one generator reseated per row. The counts of the last key are
    kept, so the tables of a series, which share (seed, n, resamples),
    share them.

    numpy draws each value below n by Lemire's method: a 32-bit word u
    (PCG64's 64-bit outputs split low half first) gives m = u * n, and the
    draw is m >> 32 unless the low 32 bits of m fall below a threshold,
    which is below n, when it rejects u and reads the next word. So a row
    whose n words all leave low bits >= n has those exact draws; they are
    read in chunks of rows from the raw outputs, and counted with one
    bincount per chunk. The few other rows are drawn again by numpy itself.
    """
    out = np.empty((resamples, n), dtype=np.uint8)
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    states = seed_states(seed, np.arange(resamples))
    raw = np.empty((_CHUNK_ROWS, (n + 1) // 2), dtype="<u8")
    words = raw.view("<u4")[:, :n]  # low half first; an odd n leaves one word unread
    m = np.empty((_CHUNK_ROWS, n), dtype=np.uint64)
    offsets = np.arange(_CHUNK_ROWS, dtype=np.uint64)[:, None] * np.uint64(n)
    for start in range(0, resamples, _CHUNK_ROWS):
        chunk = states[start : start + _CHUNK_ROWS]
        rows = len(chunk)
        for i, row_state in enumerate(chunk):
            reseat(bits, row_state)
            raw[i] = bits.random_raw(raw.shape[1])
        np.multiply(words[:rows], np.uint64(n), out=m[:rows])
        low = words[:rows]
        low *= np.uint32(n)  # the low 32 bits of m, in place of the words
        redraw = np.flatnonzero((low < n).any(axis=1)).tolist()
        draws = m[:rows]
        draws >>= np.uint64(32)
        draws += offsets[:rows]  # row i counts into bins i * n to i * n + n - 1
        # One statement, so no chunk's counts are alive while the next are made.
        out = _filled(
            out,
            slice(start, start + rows),
            np.bincount(draws.view(np.int64).ravel(), minlength=rows * n).reshape(rows, n),
        )
        for i in redraw:
            reseat(bits, chunk[i])
            out = _filled(out, start + i, np.bincount(rng.integers(0, n, size=n), minlength=n))
    out.flags.writeable = False
    return out


def bootstrap_ci(
    dataset: TrajectoryDataset,
    traces: Sequence[RewardTrace],
    probs: PolicyProbTable,
    level: float = defaults.BOOTSTRAP_LEVEL,
    resamples: int = defaults.BOOTSTRAP_RESAMPLES,
    seed: int = 0,
    max_ratio: float | None = None,
) -> WisEstimate:
    """Percentile bootstrap over trajectory-level resamples.

    Deterministic for a fixed seed: resample b draws from a generator keyed
    on (seed, b). Resamples whose weights all vanish are skipped and counted.
    Every trajectory weight and return must be finite.
    """
    if not (0.0 < level < 1.0):
        raise ValidationError("level must lie in (0,1)")
    if resamples < 1:
        raise ValidationError("resamples must be positive")
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    if len(dataset.trajectories) < 2:
        raise ValidationError("bootstrap_ci needs at least 2 trajectories")
    weights, returns = _weights_and_returns(dataset, traces, probs, max_ratio)
    for name, values in (("weight", weights), ("return", returns)):
        finite = np.isfinite(values)
        if not finite.all():
            k = int(np.argmin(finite))
            raise ValidationError(
                f"patient {dataset.trajectories[k].patient_id!r}: trajectory {name} "
                f"{values[k].item()} is not finite"
            )
    total = weights.sum()
    if total <= 0.0:
        raise DegenerateStatisticError("all trajectory weights are zero")
    value = float(np.dot(weights, returns) / total)
    n = len(weights)

    # Per resample, the sum of the drawn weights and of the drawn w * R:
    # each block of counts is cast into one float buffer and multiplied
    # into its rows of sums.
    terms = np.stack([weights, weights * returns], axis=1)
    counts = resample_counts(seed, n, resamples)
    rows = max(1, _BLOCK_ENTRIES // n)
    block = np.empty((min(rows, resamples), n))
    sums = np.empty((resamples, 2))
    for start in range(0, resamples, rows):
        part = counts[start : start + rows]
        cast = block[: len(part)]
        np.copyto(cast, part)
        np.matmul(cast, terms, out=sums[start : start + len(part)])
    sw, numerator = sums.T
    keep = ~(sw <= 0.0)
    skipped = resamples - int(keep.sum())
    estimates = numerator[keep] / sw[keep]
    if not estimates.size:
        raise DegenerateStatisticError("every bootstrap resample was degenerate")
    alpha = (1.0 - level) / 2.0
    ci_low, ci_high = _quantiles(estimates, [alpha, 1.0 - alpha])
    return WisEstimate(
        value=value,
        ci_low=ci_low,
        ci_high=ci_high,
        n_effective=float(total**2 / np.dot(weights, weights)),
        skipped_resamples=skipped,
    )


@dataclass(frozen=True)
class MortalityBin:
    bin_index: int
    reward_low: float
    reward_high: float
    mortality: float
    count: int


def mortality_curve(
    dataset: TrajectoryDataset,
    traces: Sequence[RewardTrace],
    n_bins: int = defaults.MORTALITY_BINS,
) -> list[MortalityBin]:
    """Bucket trajectories into cumulative-reward quantile bins and report
    the observed death fraction per bin (plot-ready rows, low reward first)."""
    if n_bins < 1:
        raise ValidationError("n_bins must be positive")
    if len(dataset.trajectories) < n_bins:
        raise ValidationError("need at least one trajectory per bin")
    returns = trace_returns(dataset, traces)
    order = np.argsort(returns, kind="stable")
    rows = []
    for b, chunk in enumerate(np.array_split(order, n_bins)):
        sub_returns = returns[chunk]
        deaths = sum(1 for i in chunk if not dataset.trajectories[int(i)].survived)
        rows.append(
            MortalityBin(
                bin_index=b,
                reward_low=float(sub_returns.min()),
                reward_high=float(sub_returns.max()),
                mortality=deaths / len(chunk),
                count=len(chunk),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Probability-table file format: a format-4 column file holding the patient
# frame of the dataset format (patient_id, offsets, t) over the F8 row columns
# p_eval and p_behavior, written with patients sorted by id; t strictly
# increases within each.
# ---------------------------------------------------------------------------


def _check_increasing(frame: RaggedColumns) -> None:
    """t strictly increases within each patient, so (patient, t) is unique."""
    t = frame.t
    backwards = np.diff(t) <= 0  # [i - 1]: row i does not follow row i - 1
    starts = frame.offsets[1:-1] - 1
    backwards[starts[(0 <= starts) & (starts < len(backwards))]] = False
    if backwards.any():
        i = int(np.argmax(backwards)) + 1
        before, after = t[i - 1].item(), t[i].item()
        problem = "repeated entry for" if after == before else f"after t={before}, decreasing"
        raise FormatError(f"{frame.row(i)}: {problem} t={after}")


def prob_table_from_json(header: dict, data) -> PolicyProbTable:
    """The table of a column file's header and buffer section."""
    frame = RaggedColumns(header, data, "probability table")
    _check_increasing(frame)
    p_eval = frame.buffer("p_eval", F8, frame.n_rows)
    p_behavior = frame.buffer("p_behavior", F8, frame.n_rows)
    offsets = frame.offsets.tolist()
    spans = dict(zip(frame.patient_ids, zip(offsets, offsets[1:])))
    return PolicyProbTable.of_columns(ProbColumns(spans, frame.t, p_eval, p_behavior))


def prob_table_to_json(table: PolicyProbTable) -> tuple[dict, bytes]:
    """The header and the buffer section of the table's column file."""
    spans, t, p_eval, p_behavior = table.columns
    patients = sorted(pid for pid, (lo, hi) in spans.items() if hi > lo)
    bounds = [spans[pid] for pid in patients]
    offsets = [0, *accumulate(hi - lo for lo, hi in bounds)]
    if bounds != list(zip(offsets, offsets[1:])):  # rows not already in patient order
        rows = np.concatenate([np.arange(lo, hi) for lo, hi in bounds])
        t, p_eval, p_behavior = t[rows], p_eval[rows], p_behavior[rows]
    table, data = pack_columns([
        ("offsets", None, I4, offsets),
        ("t", None, I4, t),
        ("p_eval", None, F8, p_eval),
        ("p_behavior", None, F8, p_behavior),
    ])
    return {"patient_id": patients, "columns": table}, data


def load_prob_table(path: str | Path) -> PolicyProbTable:
    return prob_table_from_json(*read_columns(path, "probability table"))


def save_prob_table(table: PolicyProbTable, path: str | Path) -> None:
    """Write the table; load_prob_table reproduces it exactly."""
    write_columns(path, *prob_table_to_json(table))
