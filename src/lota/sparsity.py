"""Task vectors, magnitude-based sparsification, and mask algebra.

A mask is a read-only bool buffer in the same flat order as the
parameters (see `params.Layout`), so every operation here is one vector
operation over `.flat`. Thresholding is GLOBAL: magnitudes from all
parameter groups are ranked together in that order (names sorted, then
row-major within a tensor). Ties at the threshold magnitude keep the
earlier element in that order, so masks are fully deterministic. The top
k is found by selection, not by sorting: one partition finds the k-th
largest magnitude and everything above it is kept. When the partition
splits the ties at that magnitude, a tie pass keeps the earliest of
them; otherwise every tie is kept. The selection runs on the uint32 bit
patterns of the float32 magnitudes, which order as the floats do.

A mask file is one container (see `container`), version 2 of the mask
format, plus a `.json` sidecar with its declared sparsity. The container
holds one U8 entry, `bits`: the mask's flat buffer as packed bits
(`np.packbits`, most significant bit first), ceil(n / 8) bytes with the
pad bits of the last byte zero, so each mask has one file. Its
`__metadata__` is the declaration of `params.tagged_metadata`, tag
lota-mask-2; `params.declared_layout` checks it when a file is read.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import real
from .container import container_parts, read_container, refuse_reserved, write_atomic
from .errors import CapacityError, FormatError
from .params import (Layout, MapDigest, ParameterMap, _FlatMap, declared_layout, digest,
                     tagged_metadata)

SPARSITY = real("[0, 1)")
MASK_FORMAT = "lota-mask-2"
_BITS = "bits"  # the one entry of a mask file
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
    `scratch`, a uint32 buffer at least values.size long, finds t. When
    no key below the partition point equals t, every tie at t is kept and
    `values >= t` is exactly the top k, so cut is n and no tie scan runs.
    Only ties split across the partition point are scanned for, in steps
    of `_TIE_SCAN` elements, and the scan stops at the last tie kept.
    """
    n = values.size
    keys = np.bitwise_and(values.view(np.uint32), _MAGNITUDE_BITS, out=scratch[:n])
    keys.partition(n - k)
    t = keys[n - k]
    if keys[: n - k].max() < t:
        return t, n
    ties = int(np.count_nonzero(keys[n - k :] == t))  # equal to t and kept
    for lo in range(0, n, _TIE_SCAN):
        part = values[lo : lo + _TIE_SCAN].view(np.uint32)
        equal = np.bitwise_and(part, _MAGNITUDE_BITS) == t
        seen = int(np.count_nonzero(equal))
        if seen >= ties:
            return t, lo + int(np.flatnonzero(equal)[ties - 1]) + 1
        ties -= seen


def _kept(
    keys: np.ndarray, t: np.uint32, cut: int, out: np.ndarray | None = None
) -> np.ndarray:
    """The top-k rule of `_topk_cut` on magnitude bits `keys`: above t, or
    equal to t before position `cut`; written to the bool buffer `out` if
    given."""
    keep = np.empty(keys.size, bool) if out is None else out
    cut = max(cut, 0)
    np.greater_equal(keys[:cut], t, out=keep[:cut])
    np.greater(keys[cut:], t, out=keep[cut:])
    return keep


def topk_keep_flat(
    entries: ParameterMap, k: int, allowed: np.ndarray | None = None
) -> np.ndarray:
    """Flat boolean vector keeping the k largest magnitudes of `entries.flat`.

    Ties broken by flat position (earlier wins), in O(n) by `_topk_cut`.
    `allowed` optionally restricts candidate positions (flat boolean
    vector). The selection runs on the sign-cleared bits of the values in
    one uint32 scratch: `_topk_cut` partitions them there, and `_kept`
    reads them written there again.
    """
    values = entries.flat
    candidates = None if allowed is None else np.flatnonzero(allowed)
    if candidates is not None:
        values = values[candidates]
    n = values.size
    if k > n:
        raise CapacityError(f"cannot keep {k} elements: only {n} positions allowed")
    if 0 < k < n:
        scratch = np.empty(n, np.uint32)
        t, cut = _topk_cut(values, k, scratch)
        keys = np.bitwise_and(values.view(np.uint32), _MAGNITUDE_BITS, out=scratch)
        keep = _kept(keys, t, cut)
    else:
        keep = np.full(n, k == n)
    if candidates is None:
        return keep
    kept_flat = np.zeros(entries.flat.size, dtype=bool)
    kept_flat[candidates] = keep
    return kept_flat


def sparsify(
    tv: TaskVector, s: float, allowed: SparsityMask | None = None
) -> SparsityMask:
    """Mask keeping the round((1-s)*n) largest-magnitude delta coordinates,
    within `allowed` if given, which must be aligned with `tv`."""
    layout = tv.entries.layout
    if allowed is not None:
        allowed.layout.require_aligned(layout, "allowed mask and task vector")
    k = _kept_count(s, tv.total_elements, allowed)
    kept = topk_keep_flat(tv.entries, k, None if allowed is None else allowed.flat)
    return SparsityMask.from_flat(layout, kept, declared_sparsity=s)


def apply_mask(tv: TaskVector, mask: SparsityMask) -> TaskVector:
    """Zero every coordinate where the mask is false.

    Branch-free: the mask widened to uint32 and negated is a word of all
    ones where it keeps and of zeros where it drops, so its AND with the
    values' bits is exactly `np.where(mask, values, 0.0)`: +0.0 where a
    coordinate is dropped, the value's own bits (-0.0 too) where it is kept.
    """
    layout = tv.entries.layout
    mask.layout.require_aligned(layout, "mask and task vector")
    bits = mask.flat.astype(np.uint32)
    np.negative(bits, out=bits)
    np.bitwise_and(bits, tv.entries.flat.view(np.uint32), out=bits)
    return TaskVector(ParameterMap.from_flat(layout, bits.view(np.float32)), tv.base_digest)


def mask_union(a: SparsityMask, b: SparsityMask) -> SparsityMask:
    a.layout.require_aligned(b.layout, "masks")
    return SparsityMask.from_flat(a.layout, a.flat | b.flat)


def mask_complement(a: SparsityMask) -> SparsityMask:
    return SparsityMask.from_flat(a.layout, ~a.flat)


def all_false_mask(keyspace: ParameterMap) -> SparsityMask:
    return SparsityMask.from_flat(keyspace.layout, np.zeros(keyspace.layout.size, bool))


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
    """Write the packed mask container plus `<path>.json` sidecar;
    bit-reproducible.

    Both are serialized before either is written, and each is replaced
    atomically, container first. A mask names the tensors of a map, so it
    refuses the one name that the map's checkpoint refuses.
    """
    refuse_reserved(mask.names)
    metadata = tagged_metadata(MASK_FORMAT, mask.layout)
    parts = container_parts({_BITS: np.packbits(mask.flat)}, metadata)
    sidecar = {"declared_sparsity": mask.declared_sparsity, "source": source}
    if seed is not None:
        sidecar["seed"] = seed
    text = json.dumps(sidecar, sort_keys=True, separators=(",", ":")) + "\n"
    write_atomic(path, *parts)
    write_atomic(str(path) + ".json", text.encode())


def _mask_layout(meta: dict | None, entries: dict[str, np.ndarray]) -> Layout:
    """The layout that a mask file's metadata declares, checked against its
    one entry before anything is sized from it: ceil(n / 8) packed bytes
    bound n by the file's size."""
    if meta is None and entries and all(a.dtype == np.uint8 for a in entries.values()):
        raise FormatError(
            f"old unpacked mask format (before {MASK_FORMAT}) is not readable; "
            "save the mask again"
        )
    layout = declared_layout(meta, MASK_FORMAT, "mask")
    if layout.size == 0:
        raise FormatError("mask must cover at least one element")
    if set(entries) != {_BITS}:
        raise FormatError(f"mask entries are {sorted(entries)}, not [{_BITS!r}]")
    bits, nbytes = entries[_BITS], -(-layout.size // 8)
    if bits.dtype != np.uint8 or bits.shape != (nbytes,):
        raise FormatError(
            f"mask bits are {bits.dtype}{list(bits.shape)}, expected "
            f"{nbytes} U8 bytes for {layout.size} elements"
        )
    used = (layout.size - 1) % 8 + 1  # bits of the last byte that hold elements
    if bits[-1] & (0xFF >> used):
        raise FormatError("mask bits have nonzero pad bits")
    return layout


def load_mask(path: str | Path) -> SparsityMask:
    """The mask stored at `path` and its sidecar; its bits are unpacked
    straight into the mask's buffer."""
    entries, meta, _ = read_container(path)
    layout = _mask_layout(meta, entries)
    flat = np.unpackbits(entries[_BITS], count=layout.size).view(bool)
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
        return SparsityMask.from_flat(layout, flat, declared)
    except ValueError as exc:  # a declared sparsity it does not have
        raise FormatError(f"mask {path}: {exc}") from exc
