"""Combining task vectors against a shared base model.

Two primitives: plain weighted task arithmetic (`run_merge_spec` with
`elect_signs` false), and trim/elect/mean merging (per-task global
magnitude trim, per-coordinate sign election by summed value, mean over
sign-agreeing kept values). Sparse adapters merge through the same
path, trimmed as the dense vectors they decode to; `merge_lota` merges
them untrimmed. `merge_grid_search` merges and scores each cell of a
per-source grid of trim fractions once.

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

Memory: a merge holds its rows, in proportion to the kept entries, and
its float32 result. Beyond those, the election counts coverage in one byte
per coordinate (wider only past 255 sources, so a count never wraps), then
maps overlap columns through a slot array of the narrowest unsigned type
that holds the overlap count (four bytes per coordinate at most, below
2**32 overlaps), and frees each before the next step. The result is
combined with the base in its own buffer, `merged *= lam; merged += w_P`.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .adapter import SparseAdapter
from .config import BOOL, STRING, check_fields, checked, optional, real
from .errors import AlignmentError, DigestMismatchError
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
    # rows hold distinct indices, so one += per row counts each coordinate's
    # rows; the counter is one byte wide up to 255 rows and never wraps
    cover = np.zeros(n, dtype=np.min_scalar_type(len(rows)))
    for idx, vals in rows:
        merged[idx] = vals
        cover[idx] += 1
    multi = np.flatnonzero(cover > 1)
    del cover
    if multi.size:
        # block column of each multiply covered index; the rest land in a
        # spare last column that is never merged
        slot = np.full(n, multi.size, dtype=np.min_scalar_type(multi.size))
        slot[multi] = np.arange(multi.size)
        block = np.zeros((len(rows), multi.size + 1), dtype=np.float32)
        for row, (idx, vals) in zip(block, rows):
            row[slot[idx]] = vals
        del slot
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
    """w_P + lam * merge of the trimmed, weighted sources.

    The one check of every merge's arguments: one trim fraction in (0, 1]
    and one weight per source.
    """
    if not len(sources) == len(fractions) == len(weights):
        raise ValueError(
            f"one trim fraction and one weight per source required: {len(sources)} "
            f"sources, {len(fractions)} fractions, {len(weights)} weights"
        )
    if not all(0.0 < f <= 1.0 for f in fractions):
        raise ValueError(f"trim fractions must be in (0, 1]: {list(fractions)}")
    if elect and not sources:
        raise ValueError("need at least one task vector")
    n = w_p.total_elements
    rows = _rows(w_p, sources, fractions, weights)
    merged = _elect_mean(n, rows) if elect else _scatter_add(n, rows)
    del rows
    # lam * merged + w_P, in the merge's own buffer: float32 multiply and
    # add commute, so this is w_P + lam * merged bit for bit
    merged *= np.float32(lam)
    merged += w_p.flat
    return ParameterMap.from_flat(w_p.layout, merged)


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
    tvs: Sequence[Source],
    trim_keep_fractions: Sequence[float],
    lam: float = 1.0,
    weights: Sequence[float] | None = None,
) -> ParameterMap:
    """Trim each source, elect per-coordinate signs, average agreers.

    A source is a dense `TaskVector` or a `SparseAdapter`; an adapter is
    trimmed as the dense vector it decodes to, without decoding it.
    Per task, the top round(fraction*n) coordinates by |delta| survive the
    trim (global ranking, deterministic ties). The elected sign at a
    coordinate is the sign of the sum of surviving values; the merged value
    is the mean of surviving values with that sign, or 0 when the sum is
    exactly 0 or nothing survived.
    """
    weights = [1.0] * len(tvs) if weights is None else weights
    return _merge(w_p, tvs, trim_keep_fractions, weights, True, lam)


def merge_lota(
    w_p: ParameterMap, adapters: Sequence[SparseAdapter], lam: float = 1.0
) -> ParameterMap:
    """Merge inherently sparse adapters: no trimming, elect/mean only."""
    ones = [1.0] * len(adapters)
    return _merge(w_p, adapters, ones, ones, True, lam)


@dataclass(frozen=True)
class MergeEntry:
    weight: float = checked(real(), default=1.0)
    trim_keep_fraction: float | None = checked(optional(real("(0, 1]")), default=None)
    source: str | None = None  # adapter path when driven from a file spec

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "weight", float(self.weight))


@dataclass(frozen=True)
class MergeSpec:
    base_digest: str = checked(STRING)  # hex
    entries: tuple[MergeEntry, ...]
    elect_signs: bool = checked(BOOL, default=True)
    scaling: float = checked(real(), default=1.0)

    def __post_init__(self):
        check_fields(self)

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


def run_merge_spec(
    w_p: ParameterMap, sources: Sequence[Source], spec: MergeSpec
) -> ParameterMap:
    """Execute a merge described by a MergeSpec over task vectors or adapters."""
    fractions = [
        1.0 if e.trim_keep_fraction is None else e.trim_keep_fraction
        for e in spec.entries
    ]
    weights = [e.weight for e in spec.entries]
    return _merge(w_p, sources, fractions, weights, spec.elect_signs, spec.scaling)


@dataclass(frozen=True)
class GridSearchResult:
    best: dict  # the table row of the best cell
    table: list[dict]  # one row per cell, in grid order


def merge_grid_search(
    w_p: ParameterMap,
    sources: Sequence[Source],
    grids: Sequence[Sequence[float]],
    eval_fn: Callable[[ParameterMap], Sequence[float]],
    lam: float = 1.0,
) -> GridSearchResult:
    """Merge and score each cell of the per-source trim grids once.

    `grids[i]` lists the trim fractions tried for source i; a source that
    needs no search (an adapter kept whole) has the one-cell grid (1.0,).
    `eval_fn` returns a merged model's per-task utilities, and a cell's
    score is their mean. The best cell has the highest score; ties keep
    the earliest cell in `itertools.product` order.
    """
    if len(grids) != len(sources) or not all(grids):
        raise ValueError("one nonempty trim grid per source required")
    table = []
    for fractions in itertools.product(*grids):
        merged = ties_merge(w_p, sources, fractions, lam=lam)
        utilities = [float(u) for u in eval_fn(merged)]
        table.append({"fractions": list(fractions), "utilities": utilities,
                      "score": float(np.mean(utilities))})
    return GridSearchResult(best=max(table, key=lambda row: row["score"]), table=table)
