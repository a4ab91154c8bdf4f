"""Named dense float32 tensor maps, checkpoint IO, and map arithmetic."""

from __future__ import annotations

import hashlib
from collections.abc import Iterator, Mapping
from pathlib import Path
from typing import Sequence

import numpy as np

from .container import build_container, parse_container, write_atomic
from .errors import AlignmentError, NonFiniteError

MapDigest = bytes  # 32-byte SHA-256 over the canonical checkpoint serialization


class ParameterMap:
    """Ordered map from parameter-group name to a float32 array.

    Iteration order is lexicographic by name. Instances are immutable:
    arrays are copied on construction and marked read-only.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, np.ndarray]):
        built: dict[str, np.ndarray] = {}
        for name in sorted(entries):
            if not isinstance(name, str) or not name:
                raise ValueError(f"invalid tensor name: {name!r}")
            # a copy; unlike np.ascontiguousarray it keeps 0-d shapes
            arr = np.array(entries[name], dtype=np.float32, order="C")
            if arr.size == 0:
                raise ValueError(f"empty tensor: {name!r}")
            if not np.isfinite(arr).all():
                raise NonFiniteError(f"non-finite values in tensor {name!r}")
            arr.flags.writeable = False
            built[name] = arr
        self._entries = built

    @classmethod
    def _wrap(cls, entries: dict[str, np.ndarray]) -> "ParameterMap":
        # Internal fast path: entries already sorted/validated float32 copies.
        pm = object.__new__(cls)
        for arr in entries.values():
            arr.flags.writeable = False
        pm._entries = entries
        return pm

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def items(self):
        return self._entries.items()

    @property
    def total_elements(self) -> int:
        return sum(arr.size for arr in self._entries.values())

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return {name: arr.shape for name, arr in self._entries.items()}

    def aligned_with(self, other: "ParameterMap") -> bool:
        return self.shapes() == other.shapes()

    def require_aligned(self, other: "ParameterMap", what: str = "maps") -> None:
        if not self.aligned_with(other):
            raise AlignmentError(f"{what} are not aligned (names/shapes differ)")

    def to_dict(self) -> dict[str, np.ndarray]:
        """Mutable copies of all entries, for in-place numerical loops."""
        return {name: arr.copy() for name, arr in self._entries.items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParameterMap):
            return NotImplemented
        return self.names == other.names and all(
            np.array_equal(a, other[n]) for n, a in self.items()
        )

    def __repr__(self) -> str:
        return f"ParameterMap({len(self)} tensors, {self.total_elements} elements)"


def serialize_checkpoint(pm: ParameterMap) -> bytes:
    """Canonical byte serialization; depends only on map content."""
    return build_container(dict(pm.items()), "F32")


def save_checkpoint(pm: ParameterMap, path: str | Path) -> None:
    write_atomic(path, serialize_checkpoint(pm))


def load_checkpoint(path: str | Path) -> ParameterMap:
    entries = parse_container(Path(path).read_bytes(), "F32")
    return ParameterMap._wrap({n: entries[n].copy() for n in sorted(entries)})


def digest(pm: ParameterMap) -> MapDigest:
    """32-byte SHA-256 of the canonical serialization."""
    return hashlib.sha256(serialize_checkpoint(pm)).digest()


def zeros_like(pm: ParameterMap) -> ParameterMap:
    return ParameterMap._wrap(
        {n: np.zeros(a.shape, dtype=np.float32) for n, a in pm.items()}
    )


def linear_combine(
    coeffs: Sequence[float], maps: Sequence[ParameterMap]
) -> ParameterMap:
    """Elementwise sum of coeff_i * map_i over aligned maps."""
    if len(coeffs) != len(maps):
        raise ValueError("coeffs and maps must have the same length")
    if not maps:
        raise ValueError("linear_combine needs at least one map")
    first = maps[0]
    for other in maps[1:]:
        first.require_aligned(other)
    out: dict[str, np.ndarray] = {}
    for name, base in first.items():
        acc = np.zeros(base.shape, dtype=np.float32)
        for coeff, pm in zip(coeffs, maps):
            acc += np.float32(coeff) * pm[name]
        if not np.isfinite(acc).all():
            raise NonFiniteError(f"non-finite result in tensor {name!r}")
        out[name] = acc
    return ParameterMap._wrap(out)
