"""Bit-exact binary container for named flat tensors.

Layout:
  bytes 0..7    little-endian u64 header length H
  bytes 8..8+H  UTF-8 JSON object: name -> {"data_offsets": [begin, end],
                "dtype": tag, "shape": [...]}, offsets relative to the
                payload region; keys serialized in lexicographic order with
                no whitespace
  bytes 8+H..   payload: tensors concatenated in lexicographic name order,
                row-major, little-endian, no padding

The writer is deterministic: identical entries produce identical bytes.
"""

from __future__ import annotations

import json
import math
import os
import secrets
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, NonFiniteError

_DTYPES = {"F32": np.dtype("<f4"), "U8": np.dtype("u1")}


def build_container(entries: dict[str, np.ndarray], dtype_tag: str) -> bytes:
    """Serialize `entries` (name -> ndarray) into container bytes."""
    np_dtype = _DTYPES[dtype_tag]
    header: dict[str, dict] = {}
    chunks: list[bytes] = []
    offset = 0
    for name in sorted(entries):
        arr = np.asarray(entries[name], dtype=np_dtype, order="C")
        raw = arr.tobytes(order="C")
        header[name] = {
            "data_offsets": [offset, offset + len(raw)],
            "dtype": dtype_tag,
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


def parse_container(blob: bytes, expected_dtype: str) -> dict[str, np.ndarray]:
    """Parse container bytes back into name -> ndarray.

    Rejects truncated files, duplicate names, padding/gaps between tensors,
    and (for F32) non-finite values.
    """
    np_dtype = _DTYPES[expected_dtype]
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
    except FormatError:
        raise
    except (ValueError, UnicodeDecodeError) as exc:
        raise FormatError(f"malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError("malformed header: not a JSON object")

    payload = blob[8 + header_len :]
    entries: dict[str, np.ndarray] = {}
    cursor = 0
    for name in sorted(header):
        meta = header[name]
        if not isinstance(name, str) or not name:
            raise FormatError("malformed header: empty tensor name")
        try:
            begin, end = meta["data_offsets"]
            dtype_tag = meta["dtype"]
            shape = tuple(meta["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed header entry for {name!r}") from exc
        if not all(type(x) is int for x in (begin, end, *shape)):
            raise FormatError(f"non-integer offsets or shape for {name!r}")
        if dtype_tag != expected_dtype:
            raise FormatError(
                f"dtype mismatch for {name!r}: expected {expected_dtype}, "
                f"got {dtype_tag}"
            )
        if any(d <= 0 for d in shape):
            raise FormatError(f"non-positive dimension in shape of {name!r}")
        count = math.prod(shape)  # Python ints: no wrap-around
        if count * np_dtype.itemsize > len(payload):
            raise FormatError(f"shape of {name!r} is larger than the payload")
        if begin != cursor:
            raise FormatError(f"non-contiguous payload at {name!r}")
        if end - begin != count * np_dtype.itemsize:
            raise FormatError(f"offset span does not match shape for {name!r}")
        if end > len(payload):
            raise FormatError("truncated: payload shorter than declared offsets")
        arr = np.frombuffer(payload, dtype=np_dtype, count=count, offset=begin)
        arr = arr.reshape(shape)
        if expected_dtype == "F32" and not np.isfinite(arr).all():
            raise NonFiniteError(f"non-finite values in tensor {name!r}")
        entries[name] = arr
        cursor = end
    if cursor != len(payload):
        raise FormatError("trailing bytes after last tensor")
    return entries
