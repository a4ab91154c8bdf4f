"""Task vectors, magnitude-based sparsification, and mask algebra.

A mask is a read-only bool buffer in the same flat order as the
parameters (see `params.Layout`), so every operation here is one vector
operation over `.flat`. Thresholding is GLOBAL: magnitudes from all
parameter groups are ranked together in that order (names sorted, then
row-major within a tensor). Ties at the threshold magnitude keep the
earlier element in that order, so masks are fully deterministic. The top
k is found by selection, not by sorting: one partition finds the k-th
largest magnitude, everything above it is kept, and a tie pass keeps the
earliest elements equal to it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import build_container, parse_container, write_atomic
from .errors import CapacityError, FormatError
from .params import Layout, MapDigest, ParameterMap, _FlatMap, digest


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class TaskVector:
    """Per-name dense delta against a base model identified by digest."""

    entries: ParameterMap
    base_digest: MapDigest

    @property
    def nonzero_count(self) -> int:
        return int(np.count_nonzero(self.entries.flat))

    @property
    def total_elements(self) -> int:
        return self.entries.total_elements


class SparsityMask(_FlatMap):
    """Boolean map; true marks a trainable / kept coordinate.

    `declared_sparsity` must agree with the measured sparsity to within
    one element; `from_flat` defaults it to the measured one.
    """

    __slots__ = ("declared_sparsity",)
    _dtype = np.bool_

    def __init__(self, entries: dict[str, np.ndarray], declared_sparsity: float):
        for name in entries:
            if np.asarray(entries[name]).dtype != np.bool_:
                raise ValueError(f"mask tensor {name!r} must be boolean")
        super().__init__(entries)
        self.declared_sparsity = self._declared(declared_sparsity)

    @classmethod
    def from_flat(
        cls, layout: Layout, buffer: np.ndarray,
        declared_sparsity: float | None = None,
    ) -> "SparsityMask":
        mask = super().from_flat(layout, buffer)
        mask.declared_sparsity = mask._declared(declared_sparsity)
        return mask

    def _adopt(self, layout: Layout, buffer: np.ndarray) -> None:
        if layout.size == 0:
            raise ValueError("mask must cover at least one element")
        super()._adopt(layout, buffer)

    def _declared(self, declared: float | None) -> float:
        measured = self.measured_sparsity
        if declared is None:
            return measured
        if not 0.0 <= declared <= 1.0:
            raise ValueError("declared_sparsity must be in [0, 1]")
        if abs(measured - declared) > 1.0 / self.total_elements + 1e-12:
            raise ValueError(
                f"declared sparsity {declared} inconsistent with "
                f"measured {measured}"
            )
        return float(declared)

    @property
    def kept_count(self) -> int:
        return int(np.count_nonzero(self.flat))

    @property
    def measured_sparsity(self) -> float:
        return 1.0 - self.kept_count / self.total_elements

    def __repr__(self) -> str:
        return (
            f"SparsityMask(kept {self.kept_count}/{self.total_elements}, "
            f"declared_sparsity={self.declared_sparsity:.4g})"
        )


@dataclass(frozen=True)
class OverlapStats:
    intersection_count: int
    jaccard: float


def compute_task_vector(w_f: ParameterMap, w_p: ParameterMap) -> TaskVector:
    """Elementwise w_f - w_p, tagged with the base digest."""
    w_f.layout.require_aligned(w_p.layout)
    diff = ParameterMap.from_flat(w_p.layout, w_f.flat - w_p.flat)
    return TaskVector(entries=diff, base_digest=digest(w_p))


def topk_keep(m: np.ndarray, k: int) -> np.ndarray:
    """Boolean vector keeping the k largest of the magnitudes `m`.

    Ties broken by position (earlier wins). O(len(m)): `np.partition`
    finds the threshold t, the k-th largest magnitude. Every element
    above t is kept, then the earliest elements equal to t fill the
    remaining slots.
    """
    if k > m.size:
        raise CapacityError(
            f"cannot keep {k} elements: only {m.size} positions allowed"
        )
    keep = np.full(m.size, k == m.size)
    if 0 < k < m.size:
        t = np.partition(m, m.size - k)[m.size - k]
        np.greater(m, t, out=keep)
        ties = np.flatnonzero(m == t)
        keep[ties[: k - int(np.count_nonzero(keep))]] = True
    return keep


def topk_keep_flat(
    entries: ParameterMap, k: int, allowed: np.ndarray | None = None
) -> np.ndarray:
    """Flat boolean vector keeping the k largest magnitudes of `entries.flat`.

    Ties broken by flat position (earlier wins). `allowed` optionally
    restricts candidate positions (flat boolean vector).
    """
    mags = np.abs(entries.flat)
    candidates = None if allowed is None else np.flatnonzero(allowed)
    keep = topk_keep(mags if candidates is None else mags[candidates], k)
    if candidates is None:
        return keep
    kept_flat = np.zeros(mags.size, dtype=bool)
    kept_flat[candidates] = keep
    return kept_flat


def sparsify(tv: TaskVector, s: float) -> SparsityMask:
    """Mask keeping the round((1-s)*n) largest-magnitude delta coordinates."""
    if not 0.0 <= s < 1.0:
        raise ValueError("sparsity ratio must be in [0, 1)")
    k = round_half_up((1.0 - s) * tv.total_elements)
    kept = topk_keep_flat(tv.entries, k)
    return SparsityMask.from_flat(tv.entries.layout, kept, declared_sparsity=s)


def apply_mask(tv: TaskVector, mask: SparsityMask) -> TaskVector:
    """Zero every coordinate where the mask is false."""
    layout = tv.entries.layout
    mask.layout.require_aligned(layout, "mask and task vector")
    masked = np.where(mask.flat, tv.entries.flat, np.float32(0.0))
    return TaskVector(ParameterMap.from_flat(layout, masked), tv.base_digest)


def mask_union(a: SparsityMask, b: SparsityMask) -> SparsityMask:
    a.layout.require_aligned(b.layout, "masks")
    return SparsityMask.from_flat(a.layout, a.flat | b.flat)


def mask_complement(a: SparsityMask) -> SparsityMask:
    return SparsityMask.from_flat(a.layout, ~a.flat)


def overlap_stats(a: SparsityMask, b: SparsityMask) -> OverlapStats:
    a.layout.require_aligned(b.layout, "masks")
    inter = int(np.count_nonzero(a.flat & b.flat))
    union = int(np.count_nonzero(a.flat | b.flat))
    jaccard = 1.0 if union == 0 else inter / union
    return OverlapStats(intersection_count=inter, jaccard=jaccard)


def all_true_mask(keyspace: ParameterMap) -> SparsityMask:
    return SparsityMask.from_flat(keyspace.layout, np.ones(keyspace.layout.size, bool))


def all_false_mask(keyspace: ParameterMap) -> SparsityMask:
    return SparsityMask.from_flat(keyspace.layout, np.zeros(keyspace.layout.size, bool))


def support_mask(tv: TaskVector) -> SparsityMask:
    """Mask of coordinates with exactly nonzero delta."""
    return SparsityMask.from_flat(tv.entries.layout, tv.entries.flat != 0.0)


def random_mask(
    keyspace: ParameterMap,
    s: float,
    seed: int,
    forbidden: SparsityMask | None = None,
) -> SparsityMask:
    """Uniformly sample kept positions outside `forbidden`; seed-deterministic."""
    if not 0.0 <= s <= 1.0:
        raise ValueError("sparsity ratio must be in [0, 1]")
    n = keyspace.total_elements
    k = round_half_up((1.0 - s) * n)
    if forbidden is not None:
        forbidden.layout.require_aligned(
            keyspace.layout, "forbidden mask and keyspace"
        )
        positions = np.flatnonzero(~forbidden.flat)
    else:
        positions = np.arange(n)
    if k > positions.size:
        raise CapacityError(
            f"insufficient allowed positions: need {k}, have {positions.size}"
        )
    rng = np.random.default_rng(seed)
    chosen = rng.choice(positions, size=k, replace=False)
    kept_flat = np.zeros(n, dtype=bool)
    kept_flat[chosen] = True
    return SparsityMask.from_flat(keyspace.layout, kept_flat, declared_sparsity=s)


def save_mask(
    mask: SparsityMask,
    path: str | Path,
    source: str = "",
    seed: int | None = None,
) -> None:
    """Write mask container plus `<path>.json` sidecar; bit-reproducible.

    Both are serialized before either is written, and each is replaced
    atomically, container first.
    """
    entries = {n: a.astype(np.uint8) for n, a in mask.items()}
    blob = build_container(entries, "U8")
    sidecar = {"declared_sparsity": mask.declared_sparsity, "source": source}
    if seed is not None:
        sidecar["seed"] = seed
    text = json.dumps(sidecar, sort_keys=True, separators=(",", ":")) + "\n"
    write_atomic(path, blob)
    write_atomic(str(path) + ".json", text.encode())


def load_mask(path: str | Path) -> SparsityMask:
    raw = parse_container(Path(path).read_bytes(), "U8")
    entries = {}
    for name, arr in raw.items():
        if not np.isin(arr, (0, 1)).all():
            raise FormatError(f"mask tensor {name!r} contains non-0/1 bytes")
        entries[name] = arr.astype(bool)
    sidecar_path = Path(str(path) + ".json")
    if not sidecar_path.exists():
        raise FormatError(f"missing mask sidecar: {sidecar_path}")
    try:
        sidecar = json.loads(sidecar_path.read_text())
        declared = float(sidecar["declared_sparsity"])
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"malformed mask sidecar: {exc}") from exc
    return SparsityMask(entries, declared_sparsity=declared)
