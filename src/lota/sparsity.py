"""Task vectors, magnitude-based sparsification, and mask algebra.

Thresholding is GLOBAL: magnitudes from all parameter groups are ranked
together in lexicographic name order (then flat index within a tensor).
Ties at the threshold magnitude keep the earlier element in that order,
so masks are fully deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import build_container, parse_container, write_atomic
from .errors import AlignmentError, CapacityError, FormatError
from .params import MapDigest, ParameterMap, digest


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class TaskVector:
    """Per-name dense delta against a base model identified by digest."""

    entries: ParameterMap
    base_digest: MapDigest

    @property
    def nonzero_count(self) -> int:
        return sum(int(np.count_nonzero(a)) for _, a in self.entries.items())

    @property
    def total_elements(self) -> int:
        return self.entries.total_elements


class SparsityMask:
    """Per-name boolean arrays; true marks a trainable / kept coordinate."""

    __slots__ = ("_entries", "declared_sparsity")

    def __init__(self, entries: dict[str, np.ndarray], declared_sparsity: float):
        built: dict[str, np.ndarray] = {}
        for name in sorted(entries):
            arr = np.array(entries[name], order="C")  # a copy; keeps 0-d shapes
            if arr.dtype != np.bool_:
                raise ValueError(f"mask tensor {name!r} must be boolean")
            arr.flags.writeable = False
            built[name] = arr
        self._entries = built
        total = sum(a.size for a in built.values())
        if total == 0:
            raise ValueError("mask must cover at least one element")
        if not 0.0 <= declared_sparsity <= 1.0:
            raise ValueError("declared_sparsity must be in [0, 1]")
        measured = 1.0 - self._kept(built) / total
        if abs(measured - declared_sparsity) > 1.0 / total + 1e-12:
            raise ValueError(
                f"declared sparsity {declared_sparsity} inconsistent with "
                f"measured {measured}"
            )
        self.declared_sparsity = float(declared_sparsity)

    @staticmethod
    def _kept(entries) -> int:
        return sum(int(np.count_nonzero(a)) for a in entries.values())

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._entries[name]

    def items(self):
        return self._entries.items()

    @property
    def total_elements(self) -> int:
        return sum(a.size for a in self._entries.values())

    @property
    def kept_count(self) -> int:
        return self._kept(self._entries)

    @property
    def measured_sparsity(self) -> float:
        return 1.0 - self.kept_count / self.total_elements

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return {name: arr.shape for name, arr in self._entries.items()}

    def require_aligned(self, other, what: str = "mask and reference") -> None:
        if self.shapes() != other.shapes():
            raise AlignmentError(f"{what} are not aligned (names/shapes differ)")

    def global_flat(self) -> np.ndarray:
        """Concatenated boolean vector in lexicographic name order."""
        return np.concatenate([a.ravel() for a in self._entries.values()])

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsityMask):
            return NotImplemented
        return self.names == other.names and all(
            np.array_equal(a, other[n]) for n, a in self.items()
        )

    def __repr__(self) -> str:
        return (
            f"SparsityMask(kept {self.kept_count}/{self.total_elements}, "
            f"declared_sparsity={self.declared_sparsity:.4g})"
        )


@dataclass(frozen=True)
class OverlapStats:
    intersection_count: int
    jaccard: float


def _from_global(reference_shapes: dict[str, tuple[int, ...]], flat: np.ndarray):
    """Split a global flat vector back into per-name arrays."""
    out = {}
    cursor = 0
    for name in sorted(reference_shapes):
        shape = reference_shapes[name]
        size = int(np.prod(shape))
        out[name] = flat[cursor : cursor + size].reshape(shape)
        cursor += size
    return out


def compute_task_vector(w_f: ParameterMap, w_p: ParameterMap) -> TaskVector:
    """Elementwise w_f - w_p, tagged with the base digest."""
    w_f.require_aligned(w_p)
    diff = {name: w_f[name] - w_p[name] for name in w_f.names}
    return TaskVector(entries=ParameterMap(diff), base_digest=digest(w_p))


def topk_keep_flat(
    entries: ParameterMap, k: int, allowed: np.ndarray | None = None
) -> np.ndarray:
    """Global flat boolean vector keeping the k largest magnitudes.

    Ties broken by global position (earlier wins). `allowed` optionally
    restricts candidate positions (global flat boolean vector).
    """
    mags = np.concatenate(
        [np.abs(arr, dtype=np.float32).ravel() for _, arr in entries.items()]
    )
    n = mags.size
    if allowed is None:
        candidates = np.arange(n, dtype=np.int64)
    else:
        candidates = np.flatnonzero(allowed)
    if k > candidates.size:
        raise CapacityError(
            f"cannot keep {k} elements: only {candidates.size} positions allowed"
        )
    order = np.lexsort((candidates, -mags[candidates]))
    kept_flat = np.zeros(n, dtype=bool)
    kept_flat[candidates[order[:k]]] = True
    return kept_flat


def topk_keep_mask(
    entries: ParameterMap, k: int, allowed: np.ndarray | None = None
) -> dict[str, np.ndarray]:
    """Per-name boolean arrays keeping the k globally-largest magnitudes."""
    return _from_global(entries.shapes(), topk_keep_flat(entries, k, allowed))


def sparsify(tv: TaskVector, s: float) -> SparsityMask:
    """Mask keeping the round((1-s)*n) largest-magnitude delta coordinates."""
    if not 0.0 <= s < 1.0:
        raise ValueError("sparsity ratio must be in [0, 1)")
    n = tv.total_elements
    k = round_half_up((1.0 - s) * n)
    kept = topk_keep_mask(tv.entries, k)
    return SparsityMask(kept, declared_sparsity=s)


def apply_mask(tv: TaskVector, mask: SparsityMask) -> TaskVector:
    """Zero every coordinate where the mask is false."""
    mask.require_aligned(tv.entries, "mask and task vector")
    masked = {
        name: np.where(mask[name], arr, np.float32(0.0))
        for name, arr in tv.entries.items()
    }
    return TaskVector(entries=ParameterMap(masked), base_digest=tv.base_digest)


def mask_union(a: SparsityMask, b: SparsityMask) -> SparsityMask:
    a.require_aligned(b, "masks")
    entries = {name: arr | b[name] for name, arr in a.items()}
    kept = sum(int(np.count_nonzero(v)) for v in entries.values())
    total = a.total_elements
    return SparsityMask(entries, declared_sparsity=1.0 - kept / total)


def mask_complement(a: SparsityMask) -> SparsityMask:
    entries = {name: ~arr for name, arr in a.items()}
    kept = a.total_elements - a.kept_count
    return SparsityMask(entries, declared_sparsity=1.0 - kept / a.total_elements)


def overlap_stats(a: SparsityMask, b: SparsityMask) -> OverlapStats:
    a.require_aligned(b, "masks")
    inter = 0
    union = 0
    for name, arr in a.items():
        inter += int(np.count_nonzero(arr & b[name]))
        union += int(np.count_nonzero(arr | b[name]))
    jaccard = 1.0 if union == 0 else inter / union
    return OverlapStats(intersection_count=inter, jaccard=jaccard)


def all_true_mask(keyspace: ParameterMap) -> SparsityMask:
    return SparsityMask(
        {n: np.ones(a.shape, dtype=bool) for n, a in keyspace.items()},
        declared_sparsity=0.0,
    )


def all_false_mask(keyspace: ParameterMap) -> SparsityMask:
    return SparsityMask(
        {n: np.zeros(a.shape, dtype=bool) for n, a in keyspace.items()},
        declared_sparsity=1.0,
    )


def support_mask(tv: TaskVector) -> SparsityMask:
    """Mask of coordinates with exactly nonzero delta."""
    entries = {name: arr != 0.0 for name, arr in tv.entries.items()}
    kept = sum(int(np.count_nonzero(v)) for v in entries.values())
    total = tv.total_elements
    return SparsityMask(entries, declared_sparsity=1.0 - kept / total)


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
        forbidden.require_aligned(keyspace, "forbidden mask and keyspace")
        allowed = ~forbidden.global_flat()
    else:
        allowed = np.ones(n, dtype=bool)
    positions = np.flatnonzero(allowed)
    if k > positions.size:
        raise CapacityError(
            f"insufficient allowed positions: need {k}, have {positions.size}"
        )
    rng = np.random.default_rng(seed)
    chosen = rng.choice(positions, size=k, replace=False)
    kept_flat = np.zeros(n, dtype=bool)
    kept_flat[chosen] = True
    return SparsityMask(
        _from_global(keyspace.shapes(), kept_flat), declared_sparsity=s
    )


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
