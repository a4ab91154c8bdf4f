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
entry. The header's `__metadata__` holds
  {"base_digest": <64 hex digits>, "format": "lota-adapter-3",
   "shapes": {name: [dims], ...}}
with every tensor's dense shape, so the entry set follows from the shapes
and the stored counts. The tensor's element count n is the product of its
dims (1 for a 0-d tensor). Every dim is positive, n fits in int64, and
ndim is at most `container.MAX_NDIM`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import checked_shape, container_parts, parse_container, write_atomic
from .errors import AlignmentError, DigestMismatchError, FormatError
from .params import MapDigest, ParameterMap, digest
from .sparsity import TaskVector

FORMAT = "lota-adapter-3"
_INT64_MAX = 2**63 - 1
# the first bytes of an adapter file from before the container format
_LTA_MAGIC = b"LTA1"


def encode_gaps(indices: np.ndarray) -> bytes:
    """Gap-encode a strictly increasing index array.

    Each gap g is written as g // 255 bytes of 255, then the byte g % 255.
    The gaps are taken in the narrowest unsigned dtype that holds both the
    last index and the stream length, which the last index plus the count
    bounds; only the byte positions of the remainders need `intp`.
    """
    if indices.size == 0:
        return b""
    gaps = np.empty(indices.size, np.min_scalar_type(int(indices[-1]) + indices.size))
    gaps[0] = indices[0]
    np.subtract(indices[1:], indices[:-1], out=gaps[1:], casting="unsafe")
    # each gap's last byte position: the running sum of g // 255 + 1, less 1
    ends = np.empty(indices.size, np.intp)
    np.divmod(gaps, 255, out=(ends, gaps))
    ends += 1
    np.cumsum(ends, out=ends)
    ends -= 1
    buf = np.full(int(ends[-1]) + 1, 255, dtype=np.uint8)
    buf[ends] = gaps
    return buf.tobytes()


def decode_gaps(stream: bytes, n: int, c: int) -> np.ndarray:
    """Inverse of encode_gaps; validates bounds and monotonicity.

    A gap is the sum of its bytes, so each index is the running byte sum at
    the byte that ends its gap, the first byte that is not 255.
    """
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
    indices = np.cumsum(buf, dtype=np.int64)[terminators]
    if (indices[1:] <= indices[:-1]).any():
        raise FormatError("gap stream yields non-increasing indices")
    if indices[-1] >= n:
        raise FormatError(f"index {int(indices[-1])} out of range for n={n}")
    return indices


@dataclass(frozen=True)
class AdapterRecord:
    """One tensor's sparse payload: its shape and its c nonzero coordinates."""

    name: str
    shape: tuple[int, ...]
    gap_bytes: bytes
    values: np.ndarray

    @property
    def n(self) -> int:
        return math.prod(self.shape)

    @property
    def c(self) -> int:
        return self.values.size

    def indices(self) -> np.ndarray:
        """Flat positions of `values` within the tensor, checked against n."""
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

    def flat_entries(self, base: ParameterMap) -> tuple[np.ndarray, np.ndarray]:
        """Ascending positions in `base.flat` and the values stored there.

        Every record must name a base tensor of its shape. All are checked
        first, so nothing is allocated from dims read out of a file.
        """
        for rec in self.records:
            if rec.name not in base:
                raise AlignmentError(f"adapter tensor {rec.name!r} not in base map")
            if base[rec.name].shape != rec.shape:
                raise AlignmentError(
                    f"shape mismatch for {rec.name!r}: base "
                    f"{base[rec.name].shape}, adapter {rec.shape}"
                )
        offsets = dict(zip(base.layout.names, base.layout.offsets))
        records = sorted(self.records, key=lambda r: offsets[r.name])
        if not records:
            return np.empty(0, np.intp), np.empty(0, np.float32)
        return (
            np.concatenate([r.indices() + offsets[r.name] for r in records]),
            np.concatenate([r.values for r in records]),
        )


def encode(tv: TaskVector) -> SparseAdapter:
    """Store only the nonzero coordinates of a task vector."""
    records = []
    for name, arr in tv.entries.items():
        flat = arr.ravel()
        nz = np.flatnonzero(flat != 0)
        values = flat[nz]  # float32 already, and a copy
        values.flags.writeable = False
        records.append(AdapterRecord(name, arr.shape, encode_gaps(nz), values))
    return SparseAdapter(base_digest=tv.base_digest, records=tuple(records))


def decode(adapter: SparseAdapter) -> TaskVector:
    """Exact reconstruction of the encoded task vector."""
    entries = {}
    for rec in adapter.records:
        indices = rec.indices()
        try:
            flat = np.zeros(rec.n, dtype=np.float32)
        except (MemoryError, ValueError) as exc:
            raise FormatError(
                f"cannot allocate {rec.n} elements for {rec.name!r}: {exc}"
            ) from exc
        flat[indices] = rec.values
        entries[rec.name] = flat.reshape(rec.shape)
    return TaskVector(
        entries=ParameterMap(entries), base_digest=adapter.base_digest
    )


def apply_adapter(
    w_p: ParameterMap, adapter: SparseAdapter, check_digest: bool = True
) -> ParameterMap:
    """Add the adapter's deltas onto the base, touching only stored positions.

    The sum is rounded to float32, so for an adapter of `w_f - w_p` the
    result matches `w_f` to within `np.spacing(max(|w_p|, |w_f|))` at each
    position, not bitwise.
    """
    if check_digest and digest(w_p) != adapter.base_digest:
        raise DigestMismatchError(
            "adapter was built against a different base model"
        )
    idx, vals = adapter.flat_entries(w_p)
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
    n_total = adapter.n_total
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
            entries[f"{rec.name}/gaps"] = np.frombuffer(rec.gap_bytes, np.uint8)
            entries[f"{rec.name}/values"] = rec.values
    metadata = {
        "base_digest": adapter.base_digest.hex(),
        "format": FORMAT,
        "shapes": {rec.name: list(rec.shape) for rec in adapter.records},
    }
    return container_parts(entries, metadata)


def save_adapter(adapter: SparseAdapter, path: str | Path) -> None:
    write_atomic(path, *_container_parts(adapter))


def load_adapter(path: str | Path) -> SparseAdapter:
    """Read an adapter file; any departure from the format is a FormatError."""
    blob = Path(path).read_bytes()
    if blob.startswith(_LTA_MAGIC):
        raise FormatError(
            "old LTA adapter format (before lota-adapter-3) is not readable; "
            "encode the adapter again"
        )
    entries, meta = parse_container(blob)
    tag = (meta or {}).get("format")
    if tag != FORMAT:
        raise FormatError(f"not an adapter file: unknown format tag {tag!r}")
    try:
        base_digest = bytes.fromhex(meta["base_digest"])
        shapes = meta["shapes"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed adapter metadata: {exc!r}") from exc
    if len(base_digest) != 32 or not isinstance(shapes, dict):
        raise FormatError("malformed adapter metadata: base digest or shapes")
    stored = {name for name in shapes if f"{name}/values" in entries}
    if set(entries) != {f"{n}/{part}" for n in stored for part in ("gaps", "values")}:
        raise FormatError("adapter entries do not match its tensor shapes")
    records = []
    for name in sorted(shapes):
        if not name:
            raise FormatError("empty tensor name")
        shape = checked_shape(shapes[name], name)
        n = math.prod(shape)
        if n > _INT64_MAX:
            raise FormatError(f"element count of {name!r} overflows int64")
        gaps = entries.get(f"{name}/gaps", np.empty(0, np.uint8))
        values = entries.get(f"{name}/values", np.empty(0, np.float32))
        if (gaps.dtype, gaps.ndim, values.dtype, values.ndim) != (
            np.uint8, 1, np.float32, 1
        ):
            raise FormatError(f"gaps or values of {name!r}: wrong dtype or rank")
        if not np.isfinite(values).all():
            raise FormatError(f"non-finite values in tensor {name!r}")
        gap_bytes = gaps.tobytes()
        decode_gaps(gap_bytes, n, values.size)  # check the stream against n and c
        values.flags.writeable = False
        records.append(AdapterRecord(name, shape, gap_bytes, values))
    return SparseAdapter(base_digest=base_digest, records=tuple(records))
