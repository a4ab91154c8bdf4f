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

There is one writer and one reader. `container_parts` is the writer: a
container is built as its parts, the length, the header, and each
tensor's own buffer, and `write_atomic` writes them one after another
and a hash takes them one by one, so neither copies the tensors into one
bytes object. `read_container` is the reader: it checks the sizes in a
file's header against the file's size, then reads the payload straight
into one read-only buffer, of which each entry is a view.
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


def refuse_reserved(names) -> None:
    """Refuse a tensor named like the metadata key, which a reader would
    take for the metadata."""
    if _METADATA in names:
        raise ValueError(f"{_METADATA!r} is a reserved name, not a tensor name")


def container_parts(entries: dict[str, np.ndarray], metadata: dict | None) -> list:
    """The container of `entries` (name -> float32 or uint8 ndarray) and
    `metadata`, as the byte parts that make it up, in order.

    The parts are the 8-byte header length, the header, and then each
    tensor's buffer in name order. A C-contiguous tensor's buffer is the
    tensor itself, not a copy, so a writer or a hash can take the parts
    one by one without the container ever being joined in memory. No entry
    may have the reserved name (`refuse_reserved`).
    """
    refuse_reserved(entries)
    header: dict[str, dict] = {} if metadata is None else {_METADATA: metadata}
    buffers = []
    offset = 0
    for name in sorted(entries):
        arr = np.asarray(entries[name])
        if arr.dtype not in _TAGS:
            raise ValueError(f"{name!r} has unsupported dtype {arr.dtype}")
        raw = np.ravel(arr).view(np.uint8)
        header[name] = {
            "data_offsets": [offset, offset + raw.size],
            "dtype": _TAGS[arr.dtype],
            "shape": list(arr.shape),
        }
        buffers.append(raw)
        offset += raw.size
    header_bytes = json.dumps(
        header, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("utf-8")
    return [struct.pack("<Q", len(header_bytes)), header_bytes, *buffers]


def write_atomic(path: str | Path, *parts) -> None:
    """Replace `path` with the concatenated byte `parts` as one step.

    The parts are written one after another, never joined, to a synced
    temp file in the same directory, which os.replace swaps in: readers
    see the old file or the new one, and a failed write leaves the old
    file and no temp file behind.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for part in parts:
                fh.write(part)
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


# one tensor of a parsed header: name, dtype, shape, byte offset in the payload
_Spec = tuple[str, np.dtype, tuple[int, ...], int]


def _parse_header(
    raw: bytes, payload_size: int
) -> tuple[list[_Spec], dict | None]:
    """The tensors, in payload order, and the metadata of header bytes `raw`.

    Every declared size is checked against `payload_size` before anything
    is sized from it: the tensors must tile the payload exactly, with no
    padding, gap or trailing byte.
    """
    try:
        header = json.loads(raw.decode("utf-8"), object_pairs_hook=_reject_duplicates)
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:
        raise FormatError(f"malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError("malformed header: not a JSON object")
    metadata = header.pop(_METADATA, None)
    if metadata is not None and not isinstance(metadata, dict):
        raise FormatError(f"malformed header: {_METADATA} is not a JSON object")

    specs: list[_Spec] = []
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
        nbytes = math.prod(shape) * np_dtype.itemsize  # Python ints: no wrap-around
        if nbytes > payload_size:
            raise FormatError(f"truncated: {name!r} is larger than the payload")
        if begin != cursor:
            raise FormatError(f"non-contiguous payload at {name!r}")
        if end - begin != nbytes:
            raise FormatError(f"offset span does not match shape for {name!r}")
        if end > payload_size:
            raise FormatError("truncated: payload shorter than declared offsets")
        specs.append((name, np_dtype, shape, begin))
        cursor = end
    if cursor != payload_size:
        raise FormatError("trailing bytes after last tensor")
    return specs, metadata


def read_container(
    path: str | Path,
) -> tuple[dict[str, np.ndarray], dict | None, np.ndarray]:
    """The entries (name -> read-only ndarray), the metadata or None, and
    the whole payload as one read-only uint8 array, of the container file
    at `path`.

    The header is checked against the file's size before anything is
    sized from it, so a forged header cannot ask for more memory than the
    file holds; the payload is then read straight into its array. Rejects
    truncated files, duplicate names, unknown dtypes, padding or gaps
    between tensors, and trailing bytes. Values are not checked: the
    reader of each artifact decides which dtypes and values it accepts.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(8)
        if len(head) < 8:
            raise FormatError("truncated: file shorter than 8-byte header length")
        (header_len,) = struct.unpack("<Q", head)
        raw = fh.read(header_len) if 8 + header_len <= size else b""
        if len(raw) != header_len:
            raise FormatError("truncated: header length exceeds file size")
        specs, metadata = _parse_header(raw, size - 8 - header_len)
        payload = np.empty(size - 8 - header_len, np.uint8)
        if fh.readinto(payload) != payload.size:
            raise FormatError("truncated: payload shorter than declared offsets")
    payload.flags.writeable = False
    entries = {
        name: payload[begin : begin + math.prod(shape) * np_dtype.itemsize]
        .view(np_dtype)
        .reshape(shape)
        for name, np_dtype, shape, begin in specs
    }
    return entries, metadata, payload
