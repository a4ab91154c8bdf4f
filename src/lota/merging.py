"""Combining task vectors against a shared base model.

Two primitives: plain weighted task arithmetic, and trim/elect/mean
merging (per-task global magnitude trim, per-coordinate sign election by
summed value, mean over sign-agreeing kept values). Sparse adapters merge
through the same path with trimming disabled.

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

from .adapter import SparseAdapter, decode
from .errors import ConfigError, DigestMismatchError
from .params import MapDigest, ParameterMap, digest
from .sparsity import TaskVector, round_half_up, topk_keep_flat


def _check_base(w_p: ParameterMap, tvs: Sequence[TaskVector]) -> MapDigest:
    base = digest(w_p)
    for i, tv in enumerate(tvs):
        if tv.base_digest != base:
            raise DigestMismatchError(
                f"task vector {i} was computed against a different base"
            )
        tv.entries.layout.require_aligned(w_p.layout, "task vector and base")
    return base


def _add_scaled(
    w_p: ParameterMap, flat_delta: np.ndarray, lam: float
) -> ParameterMap:
    return ParameterMap.from_flat(w_p.layout, w_p.flat + np.float32(lam) * flat_delta)


def _weighted_sum(
    w_p: ParameterMap,
    tvs: Sequence[TaskVector],
    fractions: Sequence[float],
    weights: Sequence[float],
    lam: float,
) -> ParameterMap:
    """w_P + lam * sum_i weights_i * trim(tv_i, fractions_i), no sign election.

    A fraction of 1.0 keeps every coordinate, which is plain task arithmetic.
    """
    n = w_p.total_elements
    _check_base(w_p, tvs)
    acc = np.zeros(n, dtype=np.float32)
    for tv, fraction, weight in zip(tvs, fractions, weights):
        kept = topk_keep_flat(tv.entries, round_half_up(fraction * n))
        acc += np.float32(weight) * np.where(kept, tv.entries.flat, np.float32(0.0))
    return _add_scaled(w_p, acc, lam)


def task_arithmetic_merge(
    w_p: ParameterMap,
    tvs: Sequence[TaskVector],
    weights: Sequence[float],
    lam: float = 1.0,
) -> ParameterMap:
    """w_P + lam * sum_i weights_i * tv_i."""
    if len(weights) != len(tvs):
        raise ValueError("weights and task vectors must have the same length")
    return _weighted_sum(w_p, tvs, [1.0] * len(tvs), weights, lam)


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
    """Sign election and sign-matching mean over a (tasks, n) value stack.

    Non-kept coordinates must already be zeroed. Rows are value-sorted per
    coordinate before accumulation so the result is task-order invariant.
    The sort may swap +0.0 and -0.0, which changes no result: zeros never
    enter the signed sums, and adding either zero never changes the total.
    """
    ordered = _sort_columns(stacked)
    total = np.zeros(ordered.shape[1], dtype=np.float32)
    pos_sum = np.zeros_like(total)
    neg_sum = np.zeros_like(total)
    pos_count = np.zeros(ordered.shape[1], dtype=np.int64)
    neg_count = np.zeros_like(pos_count)
    zero = np.float32(0.0)
    for row in ordered:
        total += row
        pos_sum += np.where(row > 0, row, zero)
        neg_sum += np.where(row < 0, row, zero)
        pos_count += row > 0
        neg_count += row < 0
    merged = np.where(
        total > 0,
        pos_sum / np.maximum(pos_count, 1).astype(np.float32),
        np.where(
            total < 0,
            neg_sum / np.maximum(neg_count, 1).astype(np.float32),
            zero,
        ),
    )
    return merged.astype(np.float32)


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
    _check_base(w_p, tvs)
    if not tvs:
        raise ValueError("need at least one task vector")
    n = w_p.total_elements
    rows = []
    for i, (tv, fraction) in enumerate(zip(tvs, trim_keep_fractions)):
        values = tv.entries.flat
        if weights is not None:
            values = values * np.float32(weights[i])
        kept = topk_keep_flat(tv.entries, round_half_up(fraction * n))
        rows.append(np.where(kept, values, np.float32(0.0)))
    merged = _trim_elect_mean(np.stack(rows))
    return _add_scaled(w_p, merged, lam)


def merge_lota(
    w_p: ParameterMap, adapters: Sequence[SparseAdapter], lam: float = 1.0
) -> ParameterMap:
    """Merge inherently sparse adapters: no trimming, elect/mean only."""
    for adapter in adapters:
        adapter.require_aligned(w_p)
    tvs = [decode(a) for a in adapters]
    return ties_merge(w_p, tvs, [1.0] * len(tvs), lam=lam)


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
    w_p: ParameterMap, tvs: Sequence[TaskVector], spec: MergeSpec
) -> ParameterMap:
    """Execute a merge described by a MergeSpec against in-memory vectors."""
    if len(spec.entries) != len(tvs):
        raise ValueError("spec entries and task vectors must match")
    fractions = [
        1.0 if e.trim_keep_fraction is None else e.trim_keep_fraction
        for e in spec.entries
    ]
    weights = [e.weight for e in spec.entries]
    if spec.elect_signs:
        return ties_merge(w_p, tvs, fractions, lam=spec.scaling, weights=weights)
    return _weighted_sum(w_p, tvs, fractions, weights, spec.scaling)


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
