"""Combining task vectors against a shared base model.

Two primitives: plain weighted task arithmetic, and trim/elect/mean
merging (per-task global magnitude trim, per-coordinate sign election by
summed value, mean over sign-agreeing kept values). Sparse adapters merge
through the same path with trimming disabled.

Every merge works in the sparse domain. Each task becomes one row: its
sorted global indices and their nonzero float32 values, after the trim
and the weight. Zeros never change a merge: a zero adds nothing to a sum
and never counts toward a sign. So task arithmetic is a scatter-add of
the rows in task order, and sign election needs work only where rows
overlap. A coordinate that one row covers merges to that row's value bit
for bit (x plus zeros is x, and x / 1 is x); one that no row covers
merges to +0.0. Only the columns covered by two or more rows are gathered
into a small (tasks, m) block for the sorting network and the
elect/mean. With LoTA's sparse or LoTTO's disjoint adapters that block is
small or empty.

All merge arithmetic is float32. Per-coordinate sums accumulate in
ascending value order, which makes every merge invariant to the order the
task vectors are supplied in.
"""

from __future__ import annotations

import itertools
import numbers
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .adapter import SparseAdapter
from .errors import AlignmentError, ConfigError, DigestMismatchError
from .params import ParameterMap, digest
from .sparsity import TaskVector, round_half_up, topk_keep

# sorted global indices (intp) and their nonzero float32 values
Row = tuple[np.ndarray, np.ndarray]
Source = TaskVector | SparseAdapter


def _rows(
    w_p: ParameterMap,
    sources: Sequence[Source],
    fractions: Sequence[float],
    weights: Sequence[float],
) -> list[Row]:
    """Each source's trimmed and weighted row, after checking it against `w_p`."""
    base = digest(w_p)
    n = w_p.total_elements
    rows = []
    for i, (src, fraction, weight) in enumerate(zip(sources, fractions, weights)):
        if src.base_digest != base:
            raise DigestMismatchError(
                f"task vector {i} was computed against a different base"
            )
        if isinstance(src, SparseAdapter):
            idx, vals = src.flat_entries(w_p)
            if sorted(r.name for r in src.records) != list(w_p.names):
                raise AlignmentError(f"adapter {i} must hold each base tensor once")
        else:
            src.entries.layout.require_aligned(w_p.layout, "task vector and base")
            idx, vals = None, src.entries.flat
        rows.append(_trim(idx, vals, round_half_up(fraction * n), weight))
    return rows


def _trim(idx: np.ndarray | None, vals: np.ndarray, k: int, weight: float) -> Row:
    """The k largest magnitudes of `vals` (earlier wins ties) times `weight`.

    `idx` holds the sorted global index of each value, or is None when
    `vals` is a whole flat vector. Zeros are dropped, and zeros are all a
    sparse source leaves out, so its top-k is the dense top-k: for k at
    most its nonzero count they keep the same values, and beyond it the
    dense top-k adds only zeros.
    """
    keep = topk_keep(np.abs(vals), k) if k < vals.size else vals != 0
    pos = np.flatnonzero(keep)
    vals = vals[pos] * np.float32(weight)
    idx = pos if idx is None else idx[pos]
    nonzero = vals != 0
    if nonzero.all():
        return idx, vals
    pos = np.flatnonzero(nonzero)
    return idx[pos], vals[pos]


def _scatter_add(n: int, rows: Sequence[Row]) -> np.ndarray:
    """sum_i rows_i as a flat vector, added in task order."""
    acc = np.zeros(n, dtype=np.float32)
    for idx, vals in rows:
        acc[idx] += vals
    return acc


def _elect_mean(n: int, rows: Sequence[Row]) -> np.ndarray:
    """Flat sign-elected mean of the rows; the network runs on overlaps only."""
    merged = np.zeros(n, dtype=np.float32)
    for idx, vals in rows:
        merged[idx] = vals
    cover = np.bincount(np.concatenate([idx for idx, _ in rows]), minlength=n)
    multi = np.flatnonzero(cover > 1)
    if multi.size:
        # block column of each multiply covered index; the rest land in a
        # spare last column that is never merged
        slot = np.full(n, multi.size, dtype=np.intp)
        slot[multi] = np.arange(multi.size)
        block = np.zeros((len(rows), multi.size + 1), dtype=np.float32)
        for row, (idx, vals) in zip(block, rows):
            row[slot[idx]] = vals
        merged[multi] = _trim_elect_mean(block[:, :-1])
    return merged


def _merge(
    w_p: ParameterMap,
    sources: Sequence[Source],
    fractions: Sequence[float],
    weights: Sequence[float],
    elect: bool,
    lam: float,
) -> ParameterMap:
    """w_P + lam * merge of the trimmed, weighted sources."""
    n = w_p.total_elements
    rows = _rows(w_p, sources, fractions, weights)
    if elect and not rows:
        raise ValueError("need at least one task vector")
    merged = _elect_mean(n, rows) if elect else _scatter_add(n, rows)
    return ParameterMap.from_flat(w_p.layout, w_p.flat + np.float32(lam) * merged)


def task_arithmetic_merge(
    w_p: ParameterMap,
    tvs: Sequence[TaskVector],
    weights: Sequence[float],
    lam: float = 1.0,
) -> ParameterMap:
    """w_P + lam * sum_i weights_i * tv_i."""
    if len(weights) != len(tvs):
        raise ValueError("weights and task vectors must have the same length")
    return _merge(w_p, tvs, [1.0] * len(tvs), weights, False, lam)


def _sort_columns(stacked: np.ndarray) -> np.ndarray:
    """Each column of a (tasks, n) stack in ascending order.

    An odd-even transposition network: T passes of compare-exchange
    between neighbouring rows sort any column of T values. Equal values
    may end in either order, and among finite floats only +0.0 and -0.0
    are equal yet distinguishable.
    """
    ordered = stacked.copy()
    t = ordered.shape[0]
    for p in range(t):
        lo, hi = ordered[p % 2 : t - 1 : 2], ordered[p % 2 + 1 : t : 2]
        low = np.minimum(lo, hi)
        np.maximum(lo, hi, out=hi)
        lo[...] = low
    return ordered


def _trim_elect_mean(
    stacked: np.ndarray,
) -> np.ndarray:
    """Sign election and sign-matching mean over a (tasks, m) value stack.

    Non-kept coordinates must already be zeroed. Rows are value-sorted per
    coordinate before accumulation so the result is task-order invariant.
    A row that does not match a column's elected sign adds row * False,
    a zero of either sign. Neither that nor the sort's swapping of +0.0
    and -0.0 changes a result: each sum starts at +0.0, and adding a zero
    of either sign to it never changes it.
    """
    ordered = _sort_columns(stacked)
    total = np.zeros(ordered.shape[1], dtype=np.float32)
    for row in ordered:
        total += row
    sign = np.sign(total)
    matched = np.zeros_like(total)
    count = np.zeros_like(total)
    for row in ordered:
        agree = row * sign > 0
        matched += row * agree
        count += agree
    return matched / np.maximum(count, np.float32(1.0))


def ties_merge(
    w_p: ParameterMap,
    tvs: Sequence[TaskVector],
    trim_keep_fractions: Sequence[float],
    lam: float = 1.0,
    weights: Sequence[float] | None = None,
) -> ParameterMap:
    """Trim each task vector, elect per-coordinate signs, average agreers.

    Per task, the top round(fraction*n) coordinates by |delta| survive the
    trim (global ranking, deterministic ties). The elected sign at a
    coordinate is the sign of the sum of surviving values; the merged value
    is the mean of surviving values with that sign, or 0 when the sum is
    exactly 0 or nothing survived.
    """
    if len(trim_keep_fractions) != len(tvs):
        raise ValueError("one trim fraction per task vector required")
    if any(not 0.0 < f <= 1.0 for f in trim_keep_fractions):
        raise ValueError("trim fractions must be in (0, 1]")
    if weights is not None and len(weights) != len(tvs):
        raise ValueError("one weight per task vector required")
    weights = [1.0] * len(tvs) if weights is None else weights
    return _merge(w_p, tvs, trim_keep_fractions, weights, True, lam)


def merge_lota(
    w_p: ParameterMap, adapters: Sequence[SparseAdapter], lam: float = 1.0
) -> ParameterMap:
    """Merge inherently sparse adapters: no trimming, elect/mean only."""
    ones = [1.0] * len(adapters)
    return _merge(w_p, adapters, ones, ones, True, lam)


def _finite_real(x) -> bool:
    """A finite real number; JSON's true and false load as bools, which are not.

    The comparison is exact for ints, so one too large for a float fails too.
    """
    return (
        isinstance(x, numbers.Real)
        and not isinstance(x, bool)
        and abs(x) <= sys.float_info.max
    )


@dataclass(frozen=True)
class MergeEntry:
    weight: float = 1.0
    trim_keep_fraction: float | None = None
    source: str | None = None  # adapter path when driven from a file spec

    def __post_init__(self):
        if not _finite_real(self.weight):
            raise ConfigError(f"merge weight must be a finite number: {self.weight!r}")
        f = self.trim_keep_fraction
        if f is not None and not (_finite_real(f) and 0.0 < f <= 1.0):
            raise ConfigError(
                f"trim_keep_fraction must be null or a number in (0, 1]: {f!r}"
            )
        object.__setattr__(self, "weight", float(self.weight))


@dataclass(frozen=True)
class MergeSpec:
    base_digest: str  # hex
    entries: tuple[MergeEntry, ...]
    elect_signs: bool = True
    scaling: float = 1.0

    def to_json_dict(self) -> dict:
        return {
            "base_digest": self.base_digest,
            "entries": [
                {
                    "weight": e.weight,
                    "trim_keep_fraction": e.trim_keep_fraction,
                    "source": e.source,
                }
                for e in self.entries
            ],
            "elect_signs": self.elect_signs,
            "scaling": self.scaling,
        }


def run_merge_spec(
    w_p: ParameterMap, sources: Sequence[Source], spec: MergeSpec
) -> ParameterMap:
    """Execute a merge described by a MergeSpec over task vectors or adapters."""
    if len(spec.entries) != len(sources):
        raise ValueError("spec entries and task vectors must match")
    fractions = [
        1.0 if e.trim_keep_fraction is None else e.trim_keep_fraction
        for e in spec.entries
    ]
    weights = [e.weight for e in spec.entries]
    return _merge(w_p, sources, fractions, weights, spec.elect_signs, spec.scaling)


@dataclass
class GridSearchResult:
    best_spec: MergeSpec
    best_score: float
    table: list[dict] = field(default_factory=list)


def merge_grid_search(
    w_p: ParameterMap,
    tvs: Sequence[TaskVector],
    fraction_grid: Sequence[float],
    eval_fn: Callable[[ParameterMap], float],
    lam: float = 1.0,
    fixed_fractions: dict[int, float] | None = None,
) -> GridSearchResult:
    """Evaluate every cell of the Cartesian trim-fraction grid.

    `fixed_fractions` pins chosen task indices (inherently sparse vectors
    need no search); the grid then spans only the remaining tasks. Ties on
    the objective keep the earliest cell in iteration order.
    """
    fixed = dict(fixed_fractions or {})
    free = [i for i in range(len(tvs)) if i not in fixed]
    grid = list(fraction_grid)
    if free and not grid:
        raise ValueError("fraction grid must be nonempty")
    combos = itertools.product(grid, repeat=len(free)) if free else iter([()])
    best_spec = None
    best_score = -np.inf
    table = []
    base_hex = digest(w_p).hex()
    for combo in combos:
        fractions = [0.0] * len(tvs)
        for idx, val in fixed.items():
            fractions[idx] = val
        for idx, val in zip(free, combo):
            fractions[idx] = val
        merged = ties_merge(w_p, tvs, fractions, lam=lam)
        score = float(eval_fn(merged))
        table.append({"fractions": list(fractions), "score": score})
        if best_spec is None or score > best_score:
            best_score = score
            best_spec = MergeSpec(
                base_digest=base_hex,
                entries=tuple(
                    MergeEntry(weight=1.0, trim_keep_fraction=f) for f in fractions
                ),
                elect_signs=True,
                scaling=lam,
            )
    return GridSearchResult(best_spec=best_spec, best_score=best_score, table=table)
