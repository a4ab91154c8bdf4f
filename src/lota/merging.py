"""Combining task vectors against a shared base model.

One kernel, `_merge`, does every merge: per-source global magnitude trim
and weight, then either plain task arithmetic (the weighted sum) or sign
election (per-coordinate sign of the summed value, mean over the
sign-agreeing kept values). `ties_merge` elects over trimmed dense task
vectors or sparse adapters, which are trimmed as the dense vectors they
decode to; `merge_lota` elects over adapters untrimmed; `lota merge`
calls `_merge` with its config's weights and trims. `merge_grid_search`
merges and scores each cell of a per-source grid of trim fractions once.

Every merge walks the flat coordinates in blocks of `_BLOCK` columns.
First each source is checked against the base, and a source that is
trimmed gets its top-k cut (`sparsity._topk_cut`); an adapter also gets
its sorted global indices (`SparseAdapter.flat_entries()`) and the
first of them in each block. In a block, each source fills one row of a
(sources, block) float32 buffer with its values, weighted, the trimmed
ones zeroed, and adds 1 to the coverage count of each column that its row
may cover (`_fill`): where the row is nonzero, or, for a trimmed dense
source, where it keeps a value. Zeros never change a merge: a zero adds
nothing to a sum and never counts toward a sign. So +0.0 plus the rows in
source order is task arithmetic, and it is also the elected merge of
every column that at most one row covers (x plus zeros is x, and x / 1 is
x). Only the columns that count two or more rows are gathered into a
(sources, m) block for the sorting network and the elect/mean, which is
three axis-0 sums over the sorted rows (`_trim_elect_mean`). With LoTA's
sparse or LoTTO's disjoint adapters that block is small or empty.

All merge arithmetic is float32. Per-coordinate sums accumulate in
ascending value order, which makes every merge invariant to the order the
task vectors are supplied in.

Memory: the top-k cuts run first, in one uint32 scratch of the model's
size. The walk holds the float32 result, the (sources, block) buffer, each
adapter's entries, in proportion to its stored count, and one block of
scratch that every block and source reuses: an adapter's weighted values
and their columns, a trimmed source's magnitude bits and kept flags, and
the coverage counts, in the narrowest unsigned type that holds the source
count, so a count never wraps. The result is combined with the base in
its own buffer, block by block: `merged *= lam; merged += w_P`. The
scratch, the rows and the entries are freed before the result's finite
check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .adapter import SparseAdapter
from .errors import DigestMismatchError
from .params import ParameterMap, digest
from .sparsity import _MAGNITUDE_BITS, TaskVector, _kept, _topk_cut, round_half_up

Source = TaskVector | SparseAdapter
# columns per block of the merge walk: on a 1M-parameter map 2**16 merges
# 3-7% faster than 2**15 and holds about 1 byte per parameter more; 2**13 is
# slower
_BLOCK = 2**16


def _prepare(
    w_p: ParameterMap,
    sources: Sequence[Source],
    fractions: Sequence[float],
    weights: Sequence[float],
    edges: np.ndarray,
) -> list[tuple]:
    """Each source checked against `w_p`, as (values, indices, starts,
    weight, cut); a source with k = 0 keeps nothing and is left out.

    An adapter has the global index of each stored value and, at
    `starts[b]`, its first entry at or past `edges[b]`; a dense source has
    None for both. `cut` is the `_topk_cut` of the source's top k, or None
    when it keeps every value. Zeros are all an adapter leaves out, so its
    top-k keeps the nonzero values of the dense top-k.
    """
    base = digest(w_p)
    n = w_p.total_elements
    scratch = None
    prepared = []
    for i, (src, fraction, weight) in enumerate(zip(sources, fractions, weights)):
        if src.base_digest != base:
            raise DigestMismatchError(
                f"task vector {i} was computed against a different base"
            )
        if isinstance(src, SparseAdapter):
            src.layout.require_aligned(w_p.layout, f"adapter {i} and base")
            idx, vals = src.flat_entries()
            starts = np.searchsorted(idx, edges)
        else:
            src.entries.layout.require_aligned(w_p.layout, "task vector and base")
            idx, vals, starts = None, src.entries.flat, None
        k = round_half_up(fraction * n)
        cut = None
        if k < vals.size:
            if k == 0:
                continue
            scratch = np.empty(n, np.uint32) if scratch is None else scratch
            cut = _topk_cut(vals, k, scratch)
        prepared.append((vals, idx, starts, np.float32(weight), cut))
    return prepared


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
    edges = np.append(np.arange(0, w_p.total_elements, _BLOCK), w_p.total_elements)
    # the walk's buffers and the adapters' entries are freed before the
    # result's finite check
    merged = _walk(w_p, _prepare(w_p, sources, fractions, weights, edges), edges, elect, lam)
    return ParameterMap.from_flat(w_p.layout, merged)


def _walk(
    w_p: ParameterMap, prepared: list[tuple], edges: np.ndarray, elect: bool, lam: float
) -> np.ndarray:
    """The flat w_P + lam * merge of the `_prepare`d sources, block by block."""
    width = min(w_p.total_elements, _BLOCK)
    merged = np.empty(w_p.total_elements, np.float32)
    rows = np.empty((len(prepared), width), np.float32)
    scratch = _Scratch(width, len(prepared))
    for b, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        block, count = rows[:, : hi - lo], scratch.count[: hi - lo]
        count[...] = 0
        for row, source in zip(block, prepared):
            _fill(row, source, b, lo, scratch, count if elect else None)
        # +0.0 plus the rows in source order is task arithmetic, and the
        # merge of every column that at most one row covers: x plus zeros
        # is x, and x / 1 is x
        out = _sum_rows(block, merged[lo:hi])
        if elect:
            multi = np.flatnonzero(count > 1)
            if multi.size:
                out[multi] = _trim_elect_mean(block.take(multi, axis=1))
        # lam * merged + w_P: float32 multiply and add commute, so this is
        # w_P + lam * merged bit for bit; x * 1 is x
        if lam != 1:
            out *= np.float32(lam)
        out += w_p.flat[lo:hi]
    return merged


class _Scratch:
    """The buffers of one block for `_fill`, which every block and source
    reuses: an adapter's weighted values and their columns, a trimmed
    source's magnitude bits and kept flags, and each column's coverage
    count, in the narrowest unsigned type that holds the source count, so
    that a count never wraps."""

    __slots__ = ("entries", "columns", "keys", "keep", "count")

    def __init__(self, width: int, sources: int):
        self.entries = np.empty(width, np.float32)
        self.columns = np.empty(width, np.intp)
        self.keys = np.empty(width, np.uint32)
        self.keep = np.empty(width, bool)
        self.count = np.empty(width, np.min_scalar_type(sources))


def _fill(
    row: np.ndarray, source: tuple, b: int, lo: int, scratch: _Scratch,
    count: np.ndarray | None,
) -> None:
    """Fill `row` with the source's weighted values in block b, which starts
    at column lo, the trimmed ones zeroed, and add 1 to `count` at each
    column that the row may cover.

    A column counts where the row is nonzero, and for a trimmed dense
    source wherever it keeps a value, zero or not: a count that is too high
    only sends a column with one nonzero row to the election, which merges
    it to that value, as the sum does.
    """
    vals, idx, starts, weight, cut = source
    a, z = (lo, lo + row.size) if idx is None else (starts[b], starts[b + 1])
    values = vals[a:z]
    part = row if idx is None else scratch.entries[: z - a]
    kept = None
    if cut is not None:  # zero the trimmed values first, so only kept ones can overflow
        keys = np.bitwise_and(values.view(np.uint32), _MAGNITUDE_BITS, out=scratch.keys[: z - a])
        kept = _kept(keys, cut[0], cut[1] - a, out=scratch.keep[: z - a])
        values = np.multiply(values, kept, out=part)
    if weight != 1:
        values = np.multiply(values, weight, out=part)
    if idx is not None:
        row[...] = 0
        row[np.subtract(idx[a:z], lo, out=scratch.columns[: z - a])] = values
    elif values is not row:
        row[...] = values
    if count is not None:
        if kept is None or idx is not None:
            kept = np.not_equal(row, 0, out=scratch.keep[: row.size])
        count += kept.view(np.uint8)


def _sum_rows(stack: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each column's float32 sum over the rows of `stack`, in row order
    from +0.0.

    numpy's axis-0 reduce adds whole rows, one after another, in order;
    but a single column it reduces as one vector, pairwise once it holds 8
    or more values, so a single column is summed by a running sum instead.
    """
    if stack.shape[1] == 1:
        total = np.cumsum(np.append(np.float32(0), stack), dtype=np.float32)[-1:]
        if out is None:
            return total
        out[...] = total
        return out
    return np.add.reduce(stack, axis=0, out=out, initial=np.float32(0))


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
    Each sum runs over the sorted rows in order from +0.0 (`_sum_rows`).
    The sign-matching sum is taken on the values times the elected sign,
    with every row that does not match it clamped to a zero: float32
    negation is exact and rounding is symmetric in sign, so the sum of
    -x over the matching rows is the negated sum of x, and the mean times
    the sign is the mean of the matching values. Neither the clamped zeros
    nor the sort's swapping of +0.0 and -0.0 changes a result: each sum
    starts at +0.0, and adding a zero of either sign to it never changes it.
    """
    ordered = _sort_columns(stacked)
    sign = np.sign(_sum_rows(ordered))
    agreeing = np.multiply(ordered, sign, out=ordered)
    np.maximum(agreeing, np.float32(0), out=agreeing)
    matched = _sum_rows(agreeing)
    count = np.add.reduce(agreeing > 0, axis=0, dtype=np.float32)
    matched /= np.maximum(count, np.float32(1))
    matched *= sign
    return matched


def ties_merge(
    w_p: ParameterMap,
    tvs: Sequence[Source],
    trim_keep_fractions: Sequence[float],
    lam: float = 1.0,
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
    return _merge(w_p, tvs, trim_keep_fractions, [1.0] * len(tvs), True, lam)


def merge_lota(
    w_p: ParameterMap, adapters: Sequence[SparseAdapter], lam: float = 1.0
) -> ParameterMap:
    """Merge inherently sparse adapters: no trimming, elect/mean only."""
    ones = [1.0] * len(adapters)
    return _merge(w_p, adapters, ones, ones, True, lam)


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
