"""Named tensors stored as one flat buffer, and checkpoint IO.

A `Layout` places named tensors in one flat vector: names in sorted
order, each tensor row-major at its offset, no gaps. Global top-k, the
training state, merging and the checkpoint payload all use this one
order. A `ParameterMap` (float32) and a `SparsityMask` (bool) each own
one read-only buffer in that order, exposed as `.flat`; `m[name]` is a
view of it, built once. An adapter or a mask file declares its tensors in
its `__metadata__`, which `tagged_metadata` writes and `declared_layout` reads.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterator, Mapping
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .container import _TAGS, checked_shape, container_parts, read_container, write_atomic
from .errors import AlignmentError, FormatError, NonFiniteError

MapDigest = bytes  # 32-byte SHA-256 over the canonical checkpoint serialization
_FLOAT32 = np.dtype("<f4")  # the F32 of a checkpoint file


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
        """Refuse `other` naming the first tensor where the two differ, in name order."""
        if self != other:
            name = min(n for n in self.shapes.keys() | other.shapes.keys()
                       if self.shapes.get(n) != other.shapes.get(n))
            a, b = (layout.shapes.get(name, "missing") for layout in (self, other))
            raise AlignmentError(f"{what} are not aligned at {name!r}: {a} against {b}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Layout):
            return NotImplemented
        return self is other or self.shapes == other.shapes

    __hash__ = None

    def __repr__(self) -> str:
        return f"Layout({len(self.names)} tensors, {self.size} elements)"


def tagged_metadata(tag: str, layout: Layout, **extra) -> dict:
    """The `__metadata__` declaring the tensors of `layout` in a container
    tagged `tag`, with a format's own `extra` keys."""
    shapes = {name: list(shape) for name, shape in layout.shapes.items()}
    return {"format": tag, "shapes": shapes, **extra}


def declared_layout(meta: dict | None, tag: str, what: str) -> Layout:
    """The `Layout` that `meta` declares, `what` naming the artifact in a
    FormatError. Checked in order before anything is sized: the tag, `shapes`
    as an object, no empty name, each tensor's dims (`checked_shape`), and
    an element total within int64."""
    found = (meta or {}).get("format")
    if found != tag:
        article = "an" if what[0] in "aeiou" else "a"
        raise FormatError(f"not {article} {what} file: unknown format tag {found!r}")
    shapes = meta.get("shapes")
    if not isinstance(shapes, dict):
        raise FormatError(f"malformed {what} metadata: shapes is not an object")
    if "" in shapes:
        raise FormatError(f"malformed {what} metadata: empty tensor name")
    dims = {name: checked_shape(shapes[name], name) for name in shapes}
    total = sum(math.prod(shape) for shape in dims.values())
    if total >= 2**63:
        raise FormatError(f"{what} declares {total} elements, which overflows int64")
    return Layout(dims)


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
    return b"".join(_checkpoint_parts(pm))


def save_checkpoint(pm: ParameterMap, path: str | Path) -> None:
    write_atomic(path, *_checkpoint_parts(pm))


def load_checkpoint(path: str | Path) -> ParameterMap:
    """The map stored at `path`, its payload read straight into the map's buffer.

    Every entry must be F32: the payload is then the map's tensors in
    name order, which is the layout's order, so it becomes `.flat` as it is.
    """
    entries, _, payload = read_container(path)
    for name, arr in entries.items():
        if arr.dtype != _FLOAT32:
            raise FormatError(
                f"dtype mismatch for {name!r}: expected F32, got {_TAGS[arr.dtype]}"
            )
    layout = Layout({name: arr.shape for name, arr in entries.items()})
    return ParameterMap.from_flat(layout, payload.view(_FLOAT32))


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
