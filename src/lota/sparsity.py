"""Task vectors, magnitude-based sparsification, and mask algebra.

A mask is a read-only bool buffer in the same flat order as the
parameters (see `params.Layout`), so every operation here is one vector
operation over `.flat`. Thresholding is GLOBAL: magnitudes from all
parameter groups are ranked together in that order (names sorted, then
row-major within a tensor). Ties at the threshold magnitude keep the
earlier element in that order, so masks are fully deterministic. The top
k is found by selection, not by sorting: one partition finds the k-th
largest magnitude, everything above it is kept, and a tie pass keeps the
earliest elements equal to it. The selection runs on the uint32 bit
patterns of the float32 magnitudes, which order as the floats do.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import real
from .container import container_parts, read_flat, write_atomic
from .errors import CapacityError, FormatError
from .params import Layout, MapDigest, ParameterMap, _FlatMap, digest

SPARSITY = real("[0, 1)")
# clears a float32 bit pattern's sign bit
_MAGNITUDE_BITS = np.uint32(0x7FFFFFFF)
_TIE_SCAN = 2**16  # elements per step of the tie scan in `_topk_cut`


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _kept_count(s, n: int, allowed: SparsityMask | None = None) -> int:
    """The number of coordinates a mask of sparsity `s` over `n` keeps.

    The one check of `s` (a ConfigError) and the one rounding of k for
    every mask built from a sparsity; k must fit in `allowed` (all
    coordinates when None).
    """
    SPARSITY.require("sparsity", s)
    k = round_half_up((1.0 - s) * n)
    free = n if allowed is None else allowed.kept_count
    if k > free:
        raise CapacityError(
            f"constraint set exhausted: need {k} free coordinates, have {free}"
        )
    return k


@dataclass(frozen=True)
class TaskVector:
    """Per-name dense delta against a base model identified by digest."""

    entries: ParameterMap
    base_digest: MapDigest

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


def compute_task_vector(w_f: ParameterMap, w_p: ParameterMap) -> TaskVector:
    """Elementwise w_f - w_p, tagged with the base digest.

    The difference is rounded to float32, so `w_p + (w_f - w_p)` matches
    `w_f` to within `np.spacing(max(|w_p|, |w_f|))`, not bitwise.
    """
    w_f.layout.require_aligned(w_p.layout)
    diff = ParameterMap.from_flat(w_p.layout, w_f.flat - w_p.flat)
    return TaskVector(entries=diff, base_digest=digest(w_p))


def _topk_cut(values: np.ndarray, k: int, scratch: np.ndarray) -> tuple[np.uint32, int]:
    """The top k of the magnitudes of float32 `values`, for 0 < k < values.size.

    Returns (t, cut) for `_kept`: t is the k-th largest magnitude bit
    pattern, and the ties at t kept are those before position `cut`
    (earlier wins). The bits are `values.view(np.uint32)` with the sign
    bit cleared: for finite values they order as the magnitudes do, and
    two are equal exactly when the magnitudes are. One partition in
    `scratch`, a uint32 buffer at least values.size long, finds t; the
    tie scan stops at the last tie kept.
    """
    n = values.size
    keys = np.bitwise_and(values.view(np.uint32), _MAGNITUDE_BITS, out=scratch[:n])
    keys.partition(n - k)
    t = keys[n - k]
    ties = int(np.count_nonzero(keys[n - k :] == t))  # equal to t and kept
    for lo in range(0, n, _TIE_SCAN):
        part = values[lo : lo + _TIE_SCAN].view(np.uint32)
        equal = np.bitwise_and(part, _MAGNITUDE_BITS) == t
        seen = int(np.count_nonzero(equal))
        if seen >= ties:
            return t, lo + int(np.flatnonzero(equal)[ties - 1]) + 1
        ties -= seen


def _kept(keys: np.ndarray, t: np.uint32, cut: int) -> np.ndarray:
    """The top-k rule of `_topk_cut` on magnitude bits `keys`: above t, or
    equal to t before position `cut`."""
    keep = np.empty(keys.size, bool)
    cut = max(cut, 0)
    np.greater_equal(keys[:cut], t, out=keep[:cut])
    np.greater(keys[cut:], t, out=keep[cut:])
    return keep


def topk_keep(m: np.ndarray, k: int) -> np.ndarray:
    """Boolean vector keeping the k largest of the float32 magnitudes `m`,
    ties broken by position (earlier wins), in O(len(m)) by `_topk_cut`.

    `m` must be float32, finite and non-negative, such as `np.abs` of
    finite values; a `ValueError` refuses any other dtype. For such values
    the bit patterns `m.view(np.uint32)` are the magnitude bits that
    `_topk_cut` ranks.
    """
    if m.dtype != np.float32:
        raise ValueError(f"magnitudes must be float32, not {m.dtype}")
    if k > m.size:
        raise CapacityError(
            f"cannot keep {k} elements: only {m.size} positions allowed"
        )
    if not 0 < k < m.size:
        return np.full(m.size, k == m.size)
    return _kept(m.view(np.uint32), *_topk_cut(m, k, np.empty(m.size, np.uint32)))


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


def sparsify(
    tv: TaskVector, s: float, allowed: SparsityMask | None = None
) -> SparsityMask:
    """Mask keeping the round((1-s)*n) largest-magnitude delta coordinates,
    within `allowed` if given."""
    k = _kept_count(s, tv.total_elements, allowed)
    kept = topk_keep_flat(tv.entries, k, None if allowed is None else allowed.flat)
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


def all_false_mask(keyspace: ParameterMap) -> SparsityMask:
    return SparsityMask.from_flat(keyspace.layout, np.zeros(keyspace.layout.size, bool))


def support_mask(tv: TaskVector) -> SparsityMask:
    """Mask of coordinates with exactly nonzero delta."""
    return SparsityMask.from_flat(tv.entries.layout, tv.entries.flat != 0.0)


def random_mask(keyspace: ParameterMap, s: float, seed: int) -> SparsityMask:
    """Uniformly sample round((1-s)*n) kept positions; seed-deterministic."""
    n = keyspace.total_elements
    k = _kept_count(s, n)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(n, size=k, replace=False)
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
    parts = container_parts({n: a.view(np.uint8) for n, a in mask.items()}, None)
    sidecar = {"declared_sparsity": mask.declared_sparsity, "source": source}
    if seed is not None:
        sidecar["seed"] = seed
    text = json.dumps(sidecar, sort_keys=True, separators=(",", ":")) + "\n"
    write_atomic(path, *parts)
    write_atomic(str(path) + ".json", text.encode())


def load_mask(path: str | Path) -> SparsityMask:
    """The mask stored at `path` and its sidecar; its payload is read
    straight into the mask's buffer."""
    shapes, flat = read_flat(path, "U8")
    layout = Layout(shapes)
    if (flat > 1).any():
        bad = next(n for n, a in layout.views(flat).items() if (a > 1).any())
        raise FormatError(f"mask tensor {bad!r} contains non-0/1 bytes")
    sidecar_path = Path(str(path) + ".json")
    if not sidecar_path.exists():
        raise FormatError(f"missing mask sidecar: {sidecar_path}")
    try:
        sidecar = json.loads(sidecar_path.read_text())
        declared = sidecar["declared_sparsity"]
        if isinstance(declared, bool) or not isinstance(declared, (int, float)):
            raise TypeError(f"declared_sparsity must be a number: {declared!r}")
        declared = float(declared)
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise FormatError(f"malformed mask sidecar: {exc}") from exc
    try:
        return SparsityMask.from_flat(layout, flat.view(bool), declared)
    except ValueError as exc:  # empty mask, or a declared sparsity it does not have
        raise FormatError(f"mask {path}: {exc}") from exc
