"""Named tensors stored as one flat buffer, and checkpoint IO.

A `Layout` places named tensors in one flat vector: names in sorted
order, each tensor row-major at its offset, no gaps. Global top-k, the
training state, merging and the checkpoint payload all use this one
order. A `ParameterMap` (float32) and a `SparsityMask` (bool) each own
one read-only buffer in that order, exposed as `.flat`; `m[name]` is a
view of it, built once.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterator, Mapping
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .container import build_container, container_parts, read_flat, write_atomic
from .errors import AlignmentError, NonFiniteError

MapDigest = bytes  # 32-byte SHA-256 over the canonical checkpoint serialization


class Layout:
    """Where each named tensor sits in a flat buffer; immutable.

    Tensor `names[i]` occupies `buffer[offsets[i]:offsets[i + 1]]`. Names
    are nonempty strings and every tensor has at least one element.
    """

    __slots__ = ("names", "shapes", "offsets")

    def __init__(self, shapes: Mapping[str, tuple[int, ...]]):
        names = tuple(sorted(shapes))
        offsets = [0]
        for name in names:
            if not isinstance(name, str) or not name:
                raise ValueError(f"invalid tensor name: {name!r}")
            size = math.prod(shapes[name])
            if size == 0:
                raise ValueError(f"empty tensor: {name!r}")
            offsets.append(offsets[-1] + size)
        self.names = names
        self.shapes = MappingProxyType({n: tuple(shapes[n]) for n in names})
        self.offsets = tuple(offsets)

    @property
    def size(self) -> int:
        return self.offsets[-1]

    def views(self, buffer: np.ndarray) -> dict[str, np.ndarray]:
        """One view of `buffer`'s last axis per name, in the tensor's shape.

        Leading axes are kept: a `(R, size)` buffer gives `(R, *shape)` views.
        """
        lead = buffer.shape[:-1]
        return {
            name: buffer[..., lo:hi].reshape(lead + self.shapes[name])
            for name, lo, hi in zip(self.names, self.offsets, self.offsets[1:])
        }

    def require_aligned(self, other: "Layout", what: str = "maps") -> None:
        if self != other:
            raise AlignmentError(f"{what} are not aligned (names/shapes differ)")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Layout):
            return NotImplemented
        return self is other or self.shapes == other.shapes

    __hash__ = None

    def __repr__(self) -> str:
        return f"Layout({len(self.names)} tensors, {self.size} elements)"


class _FlatMap:
    """One read-only flat buffer of `_dtype` and the Layout that names it."""

    __slots__ = ("layout", "flat", "_views")
    _dtype: type

    def __init__(self, entries: Mapping[str, np.ndarray]):
        arrays = {name: np.asarray(entries[name]) for name in entries}
        layout = Layout({name: arr.shape for name, arr in arrays.items()})
        flat = np.empty(layout.size, self._dtype)
        for name, view in layout.views(flat).items():
            view[...] = arrays[name]
        self._adopt(layout, flat)

    @classmethod
    def from_flat(cls, layout: Layout, buffer: np.ndarray):
        """Take `buffer`, in `layout` order, without copying; it becomes read-only."""
        obj = object.__new__(cls)
        obj._adopt(layout, buffer)
        return obj

    def _adopt(self, layout: Layout, buffer: np.ndarray) -> None:
        if buffer.dtype != self._dtype or buffer.shape != (layout.size,):
            raise ValueError(
                f"buffer {buffer.dtype}{buffer.shape} does not fit {layout}"
            )
        buffer.flags.writeable = False
        self.layout, self.flat, self._views = layout, buffer, layout.views(buffer)

    @property
    def names(self) -> tuple[str, ...]:
        return self.layout.names

    @property
    def total_elements(self) -> int:
        return self.layout.size

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __contains__(self, name: str) -> bool:
        return name in self._views

    def __len__(self) -> int:
        return len(self._views)

    def __iter__(self) -> Iterator[str]:
        return iter(self._views)

    def items(self):
        return self._views.items()

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.layout == other.layout and np.array_equal(self.flat, other.flat)

    __hash__ = None


class ParameterMap(_FlatMap):
    """Map from parameter-group name to a finite float32 array.

    Iteration order is lexicographic by name. Instances are immutable:
    entries are copied into the buffer on construction.
    """

    __slots__ = ("_digest",)
    _dtype = np.float32

    def _adopt(self, layout: Layout, buffer: np.ndarray) -> None:
        super()._adopt(layout, buffer)
        self._digest = None
        if not np.isfinite(buffer).all():
            bad = next(n for n, a in self.items() if not np.isfinite(a).all())
            raise NonFiniteError(f"non-finite values in tensor {bad!r}")

    def to_dict(self) -> dict[str, np.ndarray]:
        """Mutable copies of all entries."""
        return {name: arr.copy() for name, arr in self.items()}

    def __repr__(self) -> str:
        return f"ParameterMap({len(self)} tensors, {self.total_elements} elements)"


def _checkpoint_parts(pm: ParameterMap) -> list:
    """The canonical serialization of `pm` as container parts; the tensor
    parts are views of `pm.flat`, which is the payload in layout order."""
    return container_parts(dict(pm.items()), None)


def serialize_checkpoint(pm: ParameterMap) -> bytes:
    """Canonical byte serialization; depends only on map content."""
    return build_container(dict(pm.items()), None)


def save_checkpoint(pm: ParameterMap, path: str | Path) -> None:
    write_atomic(path, *_checkpoint_parts(pm))


def load_checkpoint(path: str | Path) -> ParameterMap:
    """The map stored at `path`, its payload read straight into the map's buffer."""
    shapes, flat = read_flat(path, "F32")
    return ParameterMap.from_flat(Layout(shapes), flat)


def digest(pm: ParameterMap) -> MapDigest:
    """32-byte SHA-256 of the canonical serialization.

    The serialization's parts are hashed one by one, so no copy of the map
    is made. Computed once per map and kept: `.flat` is read-only, so it
    cannot change.
    """
    if pm._digest is None:
        h = hashlib.sha256()
        for part in _checkpoint_parts(pm):
            h.update(part)
        pm._digest = h.digest()
    return pm._digest


def zeros_like(pm: ParameterMap) -> ParameterMap:
    return ParameterMap.from_flat(pm.layout, np.zeros(pm.layout.size, np.float32))
