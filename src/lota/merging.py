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
ones zeroed. Zeros never change a merge: a zero adds nothing to a sum
and never counts toward a sign. So +0.0 plus the rows in source order is
task arithmetic, and it is also the elected merge of every column that
at most one row covers (x plus zeros is x, and x / 1 is x). Only the
columns covered by two or more rows are gathered into a (sources, m)
block for the sorting network and the elect/mean. With LoTA's sparse or
LoTTO's disjoint adapters that block is small or empty.

All merge arithmetic is float32. Per-coordinate sums accumulate in
ascending value order, which makes every merge invariant to the order the
task vectors are supplied in.

Memory: the top-k cuts run first, in one uint32 scratch of the model's
size. The walk holds the float32 result, the (sources, block) buffer and
each adapter's entries, in proportion to its stored count. Coverage is
counted per block in the narrowest unsigned type that holds the source
count, so a count never wraps. The result is combined with the base in
its own buffer, block by block: `merged *= lam; merged += w_P`.
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
# columns per block of the merge walk; 2**16 measures alike, 2**13 slower
_BLOCK = 2**15


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
    n = w_p.total_elements
    edges = np.append(np.arange(0, n, _BLOCK), n)
    prepared = _prepare(w_p, sources, fractions, weights, edges)
    merged = np.empty(n, np.float32)
    rows = np.empty((len(prepared), min(n, _BLOCK)), np.float32)
    entries = np.empty(min(n, _BLOCK), np.float32)
    cover = np.min_scalar_type(len(prepared))  # so a coverage count never wraps
    for b, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        block = rows[:, : hi - lo]
        for row, (vals, idx, starts, weight, cut) in zip(block, prepared):
            a, z = (lo, hi) if idx is None else (starts[b], starts[b + 1])
            part = row if idx is None else entries[: z - a]
            if cut is None:
                np.multiply(vals[a:z], weight, out=part)
            else:  # zero the trimmed values first, so only kept ones can overflow
                keys = np.bitwise_and(vals[a:z].view(np.uint32), _MAGNITUDE_BITS)
                np.multiply(vals[a:z], _kept(keys, cut[0], cut[1] - a), out=part)
                part *= weight
            if idx is not None:
                row[...] = 0
                row[idx[a:z] - lo] = part
        # +0.0 plus the rows in source order is task arithmetic, and the
        # merge of every column that at most one row covers: x plus zeros
        # is x, and x / 1 is x
        out = merged[lo:hi]
        out[...] = 0
        for row in block:
            out += row
        if elect:
            multi = np.flatnonzero(np.add.reduce(block != 0, axis=0, dtype=cover) > 1)
            if multi.size:
                out[multi] = _trim_elect_mean(block.take(multi, axis=1))
        # lam * merged + w_P: float32 multiply and add commute, so this is
        # w_P + lam * merged bit for bit
        out *= np.float32(lam)
        out += w_p.flat[lo:hi]
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
