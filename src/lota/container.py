"""Bit-exact binary container for named typed tensors.

Layout:
  bytes 0..7    little-endian u64 header length H
  bytes 8..8+H  UTF-8 JSON object: name -> {"data_offsets": [begin, end],
                "dtype": "F32" | "U8", "shape": [...]}, offsets relative to
                the payload region, plus an optional "__metadata__" key whose
                value is a JSON object stored in the header, not the payload;
                keys serialized in lexicographic order with no whitespace
  bytes 8+H..   payload: tensors concatenated in lexicographic name order,
                row-major, little-endian, no padding

Each entry's tag follows its dtype: float32 is F32, uint8 is U8. Every
dimension is positive, so no entry is empty. The writer is deterministic:
identical entries and metadata produce identical bytes.
"""

from __future__ import annotations

import json
import math
import os
import secrets
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

_DTYPES = {"F32": np.dtype("<f4"), "U8": np.dtype("u1")}
_TAGS = {dtype: tag for tag, dtype in _DTYPES.items()}
_METADATA = "__metadata__"
MAX_NDIM = 32  # the most dims any supported numpy release can hold


def build_container(entries: dict[str, np.ndarray], metadata: dict | None) -> bytes:
    """Serialize `entries` (name -> float32 or uint8 ndarray) and `metadata`.

    No entry may be named like the metadata key, which a reader would take
    for the metadata.
    """
    if _METADATA in entries:
        raise ValueError(f"{_METADATA!r} is a reserved name, not a tensor name")
    header: dict[str, dict] = {} if metadata is None else {_METADATA: metadata}
    chunks: list[bytes] = []
    offset = 0
    for name in sorted(entries):
        arr = np.asarray(entries[name], order="C")
        if arr.dtype not in _TAGS:
            raise ValueError(f"{name!r} has unsupported dtype {arr.dtype}")
        raw = arr.tobytes(order="C")
        header[name] = {
            "data_offsets": [offset, offset + len(raw)],
            "dtype": _TAGS[arr.dtype],
            "shape": list(arr.shape),
        }
        chunks.append(raw)
        offset += len(raw)
    header_bytes = json.dumps(
        header, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("utf-8")
    return struct.pack("<Q", len(header_bytes)) + header_bytes + b"".join(chunks)


def write_atomic(path: str | Path, data: bytes) -> None:
    """Replace `path` with `data` as one step.

    The bytes go to a synced temp file in the same directory, which
    os.replace swaps in: readers see the old file or the new one, and a
    failed write leaves the old file and no temp file behind.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _reject_duplicates(pairs):
    seen = set()
    out = {}
    for key, value in pairs:
        if key in seen:
            raise FormatError(f"duplicate name in header: {key!r}")
        seen.add(key)
        out[key] = value
    return out


def checked_shape(shape, name: str) -> tuple[int, ...]:
    """`shape` if it is a list of at most MAX_NDIM positive ints, else FormatError."""
    if not isinstance(shape, list) or not all(type(d) is int for d in shape):
        raise FormatError(f"non-integer shape for {name!r}")
    if len(shape) > MAX_NDIM:
        raise FormatError(f"{name!r} has {len(shape)} dims, more than {MAX_NDIM}")
    if not all(d > 0 for d in shape):
        raise FormatError(f"non-positive dimension in shape of {name!r}")
    return tuple(shape)


def parse_container(blob: bytes) -> tuple[dict[str, np.ndarray], dict | None]:
    """Parse container bytes into (name -> read-only ndarray, metadata or None).

    Rejects truncated files, duplicate names, unknown dtypes, padding or
    gaps between tensors, and trailing bytes. Values are not checked: the
    reader of each artifact decides which dtypes and values it accepts.
    """
    if len(blob) < 8:
        raise FormatError("truncated: file shorter than 8-byte header length")
    (header_len,) = struct.unpack("<Q", blob[:8])
    if 8 + header_len > len(blob):
        raise FormatError("truncated: header length exceeds file size")
    try:
        header = json.loads(
            blob[8 : 8 + header_len].decode("utf-8"),
            object_pairs_hook=_reject_duplicates,
        )
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:
        raise FormatError(f"malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError("malformed header: not a JSON object")
    metadata = header.pop(_METADATA, None)
    if metadata is not None and not isinstance(metadata, dict):
        raise FormatError(f"malformed header: {_METADATA} is not a JSON object")

    payload = memoryview(blob)[8 + header_len :]
    entries: dict[str, np.ndarray] = {}
    cursor = 0
    for name in sorted(header):
        meta = header[name]
        if not name:
            raise FormatError("malformed header: empty tensor name")
        try:
            begin, end = meta["data_offsets"]
            np_dtype = _DTYPES[meta["dtype"]]
            shape = meta["shape"]
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed header entry for {name!r}") from exc
        shape = checked_shape(shape, name)
        if type(begin) is not int or type(end) is not int:
            raise FormatError(f"non-integer offsets for {name!r}")
        count = math.prod(shape)  # Python ints: no wrap-around
        if count * np_dtype.itemsize > len(payload):
            raise FormatError(f"truncated: {name!r} is larger than the payload")
        if begin != cursor:
            raise FormatError(f"non-contiguous payload at {name!r}")
        if end - begin != count * np_dtype.itemsize:
            raise FormatError(f"offset span does not match shape for {name!r}")
        if end > len(payload):
            raise FormatError("truncated: payload shorter than declared offsets")
        arr = np.frombuffer(payload, dtype=np_dtype, count=count, offset=begin)
        entries[name] = arr.reshape(shape)
        cursor = end
    if cursor != len(payload):
        raise FormatError("trailing bytes after last tensor")
    return entries, metadata


def typed_entries(blob: bytes, dtype_tag: str) -> dict[str, np.ndarray]:
    """The entries of a container whose every entry must be of `dtype_tag`."""
    entries, _ = parse_container(blob)
    for name, arr in entries.items():
        if arr.dtype != _DTYPES[dtype_tag]:
            raise FormatError(
                f"dtype mismatch for {name!r}: expected {dtype_tag}, "
                f"got {_TAGS[arr.dtype]}"
            )
    return entries
