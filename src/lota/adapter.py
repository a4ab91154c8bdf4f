"""Compact bit-exact codec for sparse task vectors.

Each stored parameter costs 40 bits in the common case: 32 for the float32
value and 8 for the gap to the previous stored index. Gap bytes 0-254 are
literal; byte 0xFF is a continuation adding 255 to the accumulating gap
before the next byte is read. The first gap in a tensor is the first index
itself. Zeros are never stored.

File layout, version 2 (no padding):
  magic "LTA1" | u16 LE version | 32-byte base digest | u32 LE tensor count
  per tensor: u16 LE name length | name bytes | u8 ndim | ndim u64 LE dims
              | u64 LE c | u64 LE gap-stream length | gap bytes
              | c float32 LE values
The tensor's element count n is the product of its dims (1 for a 0-d
tensor). Every dim is positive, n fits in int64, and ndim is at most
MAX_NDIM. The values are the last bytes of each record.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import write_atomic
from .errors import AlignmentError, DigestMismatchError, FormatError
from .params import MapDigest, ParameterMap, digest
from .sparsity import TaskVector

MAGIC = b"LTA1"
VERSION = 2
MAX_NDIM = 32  # the most dims any supported numpy release can hold
_INT64_MAX = 2**63 - 1


def encode_gaps(indices: np.ndarray) -> bytes:
    """Gap-encode a strictly increasing index array."""
    if indices.size == 0:
        return b""
    gaps = np.empty(indices.size, dtype=np.int64)
    gaps[0] = indices[0]
    np.subtract(indices[1:], indices[:-1], out=gaps[1:])
    q, r = np.divmod(gaps, 255)
    lengths = q + 1
    ends = np.cumsum(lengths) - 1
    buf = np.full(int(ends[-1]) + 1, 255, dtype=np.uint8)
    buf[ends] = r.astype(np.uint8)
    return buf.tobytes()


def decode_gaps(stream: bytes, n: int, c: int) -> np.ndarray:
    """Inverse of encode_gaps; validates bounds and monotonicity."""
    buf = np.frombuffer(stream, dtype=np.uint8)
    if c == 0:
        if buf.size:
            raise FormatError("gap stream present but stored count is 0")
        return np.empty(0, dtype=np.int64)
    terminators = np.flatnonzero(buf != 255)
    if terminators.size != c:
        raise FormatError(
            f"gap stream decodes to {terminators.size} indices, expected {c}"
        )
    if terminators[-1] != buf.size - 1:
        raise FormatError("gap stream ends with dangling continuation bytes")
    prev = np.concatenate(([-1], terminators[:-1]))
    runs = terminators - prev - 1
    gaps = runs * 255 + buf[terminators].astype(np.int64)
    if (gaps[1:] == 0).any():
        raise FormatError("gap stream yields non-increasing indices")
    indices = np.cumsum(gaps)
    if indices[-1] >= n:
        raise FormatError(f"index {int(indices[-1])} out of range for n={n}")
    return indices


@dataclass(frozen=True)
class AdapterRecord:
    """One tensor's sparse payload: its shape and its c nonzero coordinates."""

    name: str
    shape: tuple[int, ...]
    c: int
    gap_bytes: bytes
    values: np.ndarray

    @property
    def n(self) -> int:
        return math.prod(self.shape)

    def indices(self) -> np.ndarray:
        return decode_gaps(self.gap_bytes, self.n, self.c)


@dataclass(frozen=True)
class SparseAdapter:
    base_digest: MapDigest
    records: tuple[AdapterRecord, ...]

    @property
    def n_total(self) -> int:
        return sum(r.n for r in self.records)

    @property
    def c_total(self) -> int:
        return sum(r.c for r in self.records)

    @property
    def declared_sparsity(self) -> float:
        n = self.n_total
        return 1.0 - self.c_total / n if n else 1.0

    def require_aligned(self, base: ParameterMap) -> None:
        """Each record must name a base tensor of its shape; check before decode."""
        for rec in self.records:
            if rec.name not in base:
                raise AlignmentError(f"adapter tensor {rec.name!r} not in base map")
            if base[rec.name].shape != rec.shape:
                raise AlignmentError(
                    f"shape mismatch for {rec.name!r}: base "
                    f"{base[rec.name].shape}, adapter {rec.shape}"
                )


def encode(tv: TaskVector) -> SparseAdapter:
    """Store only the nonzero coordinates of a task vector."""
    records = []
    for name, arr in tv.entries.items():
        flat = arr.ravel()
        nz = np.flatnonzero(flat)
        values = flat[nz].astype(np.float32)
        values.flags.writeable = False
        records.append(
            AdapterRecord(
                name=name,
                shape=arr.shape,
                c=int(nz.size),
                gap_bytes=encode_gaps(nz),
                values=values,
            )
        )
    return SparseAdapter(base_digest=tv.base_digest, records=tuple(records))


def decode(adapter: SparseAdapter) -> TaskVector:
    """Exact reconstruction of the encoded task vector."""
    entries = {}
    for rec in adapter.records:
        if rec.values.size != rec.c:
            raise FormatError(
                f"value count {rec.values.size} != stored count {rec.c} "
                f"for {rec.name!r}"
            )
        flat = np.zeros(rec.n, dtype=np.float32)
        flat[rec.indices()] = rec.values
        entries[rec.name] = flat.reshape(rec.shape)
    return TaskVector(
        entries=ParameterMap(entries), base_digest=adapter.base_digest
    )


def apply_adapter(
    w_p: ParameterMap, adapter: SparseAdapter, check_digest: bool = True
) -> ParameterMap:
    """Add the adapter's deltas onto the base, touching only stored positions."""
    if check_digest and digest(w_p) != adapter.base_digest:
        raise DigestMismatchError(
            "adapter was built against a different base model"
        )
    adapter.require_aligned(w_p)
    out = w_p.to_dict()
    for rec in adapter.records:
        out[rec.name].reshape(-1)[rec.indices()] += rec.values
    return ParameterMap._wrap(out)


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
    n_total = adapter.n_total
    c_total = adapter.c_total
    payload_bits = sum(8 * len(r.gap_bytes) + 32 * r.c for r in adapter.records)
    total_bits = 8 * len(serialize_adapter(adapter))
    ideal = math.inf if c_total == 0 else 32.0 * n_total / (40.0 * c_total)
    return CompressionReport(
        ideal_ratio=ideal,
        measured_ratio=32.0 * n_total / total_bits,
        payload_bits=payload_bits,
        overhead_bits=total_bits - payload_bits,
        n_total=n_total,
        c_total=c_total,
    )


def serialize_adapter(adapter: SparseAdapter) -> bytes:
    if len(adapter.base_digest) != 32:
        raise ValueError("base digest must be 32 bytes")
    parts = [
        MAGIC,
        struct.pack("<H", VERSION),
        adapter.base_digest,
        struct.pack("<I", len(adapter.records)),
    ]
    for rec in adapter.records:
        name_bytes = rec.name.encode("utf-8")
        parts.append(struct.pack("<H", len(name_bytes)))
        parts.append(name_bytes)
        ndim = len(rec.shape)
        if ndim > MAX_NDIM:
            raise ValueError(f"{rec.name!r} has more than {MAX_NDIM} dims")
        parts.append(struct.pack(f"<B{ndim}QQQ", ndim, *rec.shape, rec.c,
                                 len(rec.gap_bytes)))
        parts.append(rec.gap_bytes)
        parts.append(rec.values.astype("<f4", copy=False).tobytes())
    return b"".join(parts)


def save_adapter(adapter: SparseAdapter, path: str | Path) -> None:
    write_atomic(path, serialize_adapter(adapter))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.blob):
            raise FormatError("truncated adapter file")
        out = self.blob[self.pos : self.pos + count]
        self.pos += count
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def deserialize_adapter(blob: bytes) -> SparseAdapter:
    reader = _Reader(blob)
    if reader.take(4) != MAGIC:
        raise FormatError("bad magic: not an adapter file")
    (version,) = reader.unpack("<H")
    if version != VERSION:
        raise FormatError(f"unsupported adapter version {version}")
    base_digest = reader.take(32)
    (count,) = reader.unpack("<I")
    records = []
    seen = set()
    for _ in range(count):
        (name_len,) = reader.unpack("<H")
        try:
            name = reader.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError("tensor name is not valid UTF-8") from exc
        if not name or name in seen:
            raise FormatError(f"empty or duplicate tensor name {name!r}")
        seen.add(name)
        (ndim,) = reader.unpack("<B")
        if ndim > MAX_NDIM:
            raise FormatError(f"{name!r} has {ndim} dims, more than {MAX_NDIM}")
        shape = reader.unpack(f"<{ndim}Q")
        if not all(shape):
            raise FormatError(f"zero dimension in shape of {name!r}")
        n = math.prod(shape)
        if n > _INT64_MAX:
            raise FormatError(f"element count of {name!r} overflows int64")
        c, gap_len = reader.unpack("<QQ")
        gap_bytes = reader.take(gap_len)
        values = np.frombuffer(reader.take(4 * c), dtype="<f4").copy()
        if not np.isfinite(values).all():
            raise FormatError(f"non-finite values in tensor {name!r}")
        decode_gaps(gap_bytes, n, c)  # validate stream against n and c
        values.flags.writeable = False
        records.append(
            AdapterRecord(
                name=name, shape=shape, c=c, gap_bytes=gap_bytes, values=values
            )
        )
    if reader.pos != len(blob):
        raise FormatError("trailing bytes after last tensor record")
    return SparseAdapter(base_digest=base_digest, records=tuple(records))


def load_adapter(path: str | Path) -> SparseAdapter:
    return deserialize_adapter(Path(path).read_bytes())
