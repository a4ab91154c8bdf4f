"""Compact bit-exact codec for sparse task vectors.

Each stored parameter costs 40 bits in the common case: 32 for the float32
value and 8 for the gap to the previous stored index. Gap bytes 0-254 are
literal; byte 0xFF is a continuation adding 255 to the accumulating gap
before the next byte is read. The first gap in a tensor is the first index
itself. Zeros are never stored.

An adapter file is one container (see `container`), version 3 of the
adapter format. A tensor with c > 0 stored values has two entries:
`<name>/gaps` (U8, its gap stream) and `<name>/values` (F32, its c values).
A tensor with c = 0 has none, because the container stores no empty
entry. The header's `__metadata__` is the declaration of
`params.tagged_metadata`, tag lota-adapter-3 and each tensor's dense shape,
plus the 64-hex-digit `base_digest`. `params.declared_layout` checks the
declaration when a file is read; `load_adapter` checks the digest and that
the entry set follows from the shapes and stored counts. A tensor's n is
the product of its dims (1 for 0-d). A record is checked once, when it is
made. An adapter holds its records in name order and their `layout`, built
once when it is made, by which it is aligned with a base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .container import container_parts, read_container, write_atomic
from .errors import AlignmentError, DigestMismatchError, FormatError
from .params import (Layout, MapDigest, ParameterMap, declared_layout, digest,
                     tagged_metadata)
from .sparsity import TaskVector

FORMAT = "lota-adapter-3"
# the first bytes of an adapter file from before the container format
_LTA_MAGIC = b"LTA1"


def encode_gaps(indices: np.ndarray) -> np.ndarray:
    """Gap-encode a strictly increasing index array.

    Each gap g is written as g // 255 bytes of 255, then the byte g % 255.
    The gaps are taken in the narrowest unsigned dtype that holds the last
    index. A gap below 255 is its own byte; the few that are not get their
    remainder there and their continuation bytes inserted before it.
    """
    if indices.size == 0:
        return np.empty(0, np.uint8)
    gaps = np.empty(indices.size, np.min_scalar_type(int(indices[-1])))
    gaps[0] = indices[0]
    np.subtract(indices[1:], indices[:-1], out=gaps[1:], casting="unsafe")
    stream = gaps.astype(np.uint8)
    long = np.flatnonzero(gaps >= 255)
    if not long.size:
        return stream
    runs, rest = np.divmod(gaps[long], 255)
    stream[long] = rest
    return np.insert(stream, np.repeat(long, runs), np.uint8(255))


def _check_gaps(buf: np.ndarray, n: int, c: int) -> None:
    """Refuse `buf` unless it holds exactly c strictly increasing indices below
    n, without building them: a byte other than 255 ends a gap, a 0 byte that
    starts one repeats an index, and the last index is the sum of the bytes."""
    ends = buf.size - np.count_nonzero(buf == 255)
    if ends != c:
        raise FormatError(f"gap stream decodes to {ends} indices, expected {c}")
    if buf.size and buf[-1] == 255:
        raise FormatError("gap stream ends with dangling continuation bytes")
    if (buf[np.flatnonzero(buf[1:] == 0)] != 255).any():  # the byte before each 0
        raise FormatError("gap stream yields non-increasing indices")
    last = int(buf.sum(dtype=np.uint64))
    if buf.size and last >= n:
        raise FormatError(f"index {last} out of range for n={n}")


def _gap_indices(buf: np.ndarray, out: np.ndarray, offset: int = 0) -> np.ndarray:
    """The indices of a checked uint8 gap stream, plus `offset`, written to
    the int64 buffer `out`, which holds one per index.

    The gaps are written there, the first one moved by `offset`, and one
    running sum makes them indices. A stream with no continuation byte is
    its gaps. In one that has some, each continuation byte adds 255 to
    the gap that the next byte that is not one ends: that gap's position
    in the stream less the continuation bytes before it.
    """
    if out.size == buf.size:
        out[...] = buf
    else:
        continued = buf == 255
        out[...] = buf[~continued]
        runs = np.flatnonzero(continued)
        np.add.at(out, runs - np.arange(runs.size), 255)
    if out.size:
        out[0] += offset
    return np.cumsum(out, out=out)


@dataclass(frozen=True, eq=False)
class AdapterRecord:
    """One tensor's sparse payload: its shape and its c nonzero coordinates.
    Checked when it is made; both arrays are then read-only. Two records
    are equal when their names, shapes and bytes are."""

    name: str
    shape: tuple[int, ...]
    gap_bytes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        gaps, values = self.gap_bytes, self.values
        if (gaps.dtype, gaps.ndim, values.dtype, values.ndim) != (np.uint8, 1, np.float32, 1):
            raise FormatError(f"gaps or values of {self.name!r}: wrong dtype or rank")
        if not np.isfinite(values).all():
            raise FormatError(f"non-finite values in tensor {self.name!r}")
        _check_gaps(gaps, self.n, self.c)
        gaps.flags.writeable = values.flags.writeable = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, AdapterRecord):
            return NotImplemented
        return (self.name, self.shape) == (other.name, other.shape) and all(
            a.tobytes() == b.tobytes()
            for a, b in ((self.gap_bytes, other.gap_bytes), (self.values, other.values))
        )

    @property
    def n(self) -> int:
        return math.prod(self.shape)

    @property
    def c(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class SparseAdapter:
    """A base digest and one record per tensor, held in name order with their
    `layout`; a tensor held twice is an AlignmentError when it is made."""

    base_digest: MapDigest
    records: tuple[AdapterRecord, ...]
    layout: Layout = field(init=False, compare=False)

    def __post_init__(self):
        records = tuple(sorted(self.records, key=lambda r: r.name))
        for a, b in zip(records, records[1:]):
            if a.name == b.name:
                raise AlignmentError(f"adapter holds tensor {a.name!r} twice")
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "layout", Layout({r.name: r.shape for r in records}))

    @property
    def c_total(self) -> int:
        return sum(r.c for r in self.records)

    @property
    def declared_sparsity(self) -> float:
        n = self.layout.size
        return 1.0 - self.c_total / n if n else 1.0

    def flat_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending positions in a buffer of `layout` and the values stored
        there. Each record, its stream checked when it was made, is decoded
        straight into its slice of the two buffers at its `layout` offset."""
        idx, vals = np.empty(self.c_total, np.int64), np.empty(self.c_total, np.float32)
        at = 0
        for rec, offset in zip(self.records, self.layout.offsets):
            _gap_indices(rec.gap_bytes, idx[at : at + rec.c], offset)
            vals[at : at + rec.c] = rec.values
            at += rec.c
        return idx, vals


def encode(tv: TaskVector) -> SparseAdapter:
    """Store only the nonzero coordinates of a task vector."""
    records = []
    for name, arr in tv.entries.items():
        flat = arr.ravel()
        nz = np.flatnonzero(flat != 0)
        records.append(AdapterRecord(name, arr.shape, encode_gaps(nz), flat[nz]))
    return SparseAdapter(base_digest=tv.base_digest, records=tuple(records))


def decode(adapter: SparseAdapter) -> TaskVector:
    """Exact reconstruction of the encoded task vector: the stored values
    scattered into one zeroed buffer of the adapter's own layout. A size
    that numpy cannot allocate (any from 2**62 float32s up) is a FormatError.
    """
    layout = adapter.layout
    try:
        flat = np.zeros(layout.size, dtype=np.float32)
    except (MemoryError, ValueError) as exc:
        names = ", ".join(map(repr, layout.names))
        raise FormatError(f"cannot allocate {layout.size} elements for {names}") from exc
    idx, vals = adapter.flat_entries()
    flat[idx] = vals
    return TaskVector(ParameterMap.from_flat(layout, flat), adapter.base_digest)


def apply_adapter(
    w_p: ParameterMap, adapter: SparseAdapter, check_digest: bool = True
) -> ParameterMap:
    """Add the adapter's deltas onto the base, touching only stored positions.

    The sum is rounded to float32, so for an adapter of `w_f - w_p` the
    result matches `w_f` to within `np.spacing(max(|w_p|, |w_f|))` at each
    position, not bitwise.
    """
    if check_digest and digest(w_p) != adapter.base_digest:
        raise DigestMismatchError("adapter was built against a different base model")
    adapter.layout.require_aligned(w_p.layout, "adapter and base")
    idx, vals = adapter.flat_entries()
    out = w_p.flat.copy()
    out[idx] += vals
    return ParameterMap.from_flat(w_p.layout, out)


@dataclass(frozen=True)
class CompressionReport:
    ideal_ratio: float
    measured_ratio: float
    payload_bits: int
    overhead_bits: int
    n_total: int
    c_total: int


def compression_report(adapter: SparseAdapter) -> CompressionReport:
    """Compression accounting vs dense 32-bit storage of all n parameters."""
    n_total = adapter.layout.size
    c_total = adapter.c_total
    payload_bits = sum(8 * len(r.gap_bytes) + 32 * r.c for r in adapter.records)
    total_bits = 8 * sum(map(len, _container_parts(adapter)))
    ideal = math.inf if c_total == 0 else 32.0 * n_total / (40.0 * c_total)
    return CompressionReport(
        ideal_ratio=ideal,
        measured_ratio=32.0 * n_total / total_bits,
        payload_bits=payload_bits,
        overhead_bits=total_bits - payload_bits,
        n_total=n_total,
        c_total=c_total,
    )


def _container_parts(adapter: SparseAdapter) -> list:
    if len(adapter.base_digest) != 32:
        raise ValueError("base digest must be 32 bytes")
    entries = {}
    for rec in adapter.records:
        if rec.c:
            entries[f"{rec.name}/gaps"] = rec.gap_bytes
            entries[f"{rec.name}/values"] = rec.values
    metadata = tagged_metadata(
        FORMAT, adapter.layout, base_digest=adapter.base_digest.hex()
    )
    return container_parts(entries, metadata)


def save_adapter(adapter: SparseAdapter, path: str | Path) -> None:
    write_atomic(path, *_container_parts(adapter))


def load_adapter(path: str | Path) -> SparseAdapter:
    """Read an adapter file; any departure from the format is a FormatError."""
    with open(path, "rb") as fh:
        if fh.read(len(_LTA_MAGIC)) == _LTA_MAGIC:
            raise FormatError(
                "old LTA adapter format (before lota-adapter-3) is not readable; "
                "encode the adapter again"
            )
    entries, meta, _ = read_container(path)
    layout = declared_layout(meta, FORMAT, "adapter")
    try:
        base_digest = bytes.fromhex(meta["base_digest"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed adapter metadata: {exc!r}") from exc
    if len(base_digest) != 32:
        raise FormatError("malformed adapter metadata: base digest")
    stored = {name for name in layout.names if f"{name}/values" in entries}
    if set(entries) != {f"{n}/{part}" for n in stored for part in ("gaps", "values")}:
        raise FormatError("adapter entries do not match its tensor shapes")
    records = tuple(
        AdapterRecord(name, shape, entries.get(f"{name}/gaps", np.empty(0, np.uint8)),
                      entries.get(f"{name}/values", np.empty(0, np.float32)))
        for name, shape in layout.shapes.items()
    )
    return SparseAdapter(base_digest=base_digest, records=records)
