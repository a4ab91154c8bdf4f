"""Byte flips and truncations of one valid checkpoint, mask and adapter.

Every reader answers a damaged file with FormatError or NonFiniteError and
nothing else. An adapter that still loads either merges and applies onto
its true base or fails with AlignmentError or DigestMismatchError. A
checkpoint's header is checked against the file's size before its payload
buffer is allocated, and a mask's declared element count against its
packed payload before the bits are unpacked, so a forged size costs no
memory: run under an address-space cap, a loader that sized a buffer from
the header would fail with MemoryError.
"""

import json
import math
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lota import (
    AlignmentError,
    DigestMismatchError,
    FormatError,
    NonFiniteError,
    ParameterMap,
    ToyModel,
    apply_adapter,
    apply_mask,
    compute_task_vector,
    encode,
    load_adapter,
    load_checkpoint,
    load_mask,
    merge_lota,
    save_adapter,
    save_checkpoint,
    save_mask,
    sparsify,
)
from lota.container import container_parts, read_container

READ_ERRORS = (FormatError, NonFiniteError)
USE_ERRORS = (AlignmentError, DigestMismatchError)

# (kind, position taken modulo the file length, xor mask); a cut keeps the
# bytes before the position
DAMAGE = st.tuples(
    st.sampled_from(["flip", "cut"]), st.integers(0, 2**20), st.integers(1, 255)
)


def damaged(blob: bytes, kind: str, pos: int, bits: int) -> bytes:
    pos %= len(blob)
    if kind == "cut":
        return blob[:pos]
    out = bytearray(blob)
    out[pos] ^= bits
    return bytes(out)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("hostile")
    base = ToyModel.initialize((4, 6, 3), "tanh", "softmax-cross-entropy", 0).params
    rng = np.random.default_rng(0)
    tuned = ParameterMap({
        n: a + rng.standard_normal(a.shape).astype(np.float32) for n, a in base.items()
    })
    tv = compute_task_vector(tuned, base)
    mask = sparsify(tv, 0.7)
    save_checkpoint(base, root / "base.ckpt")
    save_mask(mask, root / "m.bin", source="fuzz")
    save_adapter(encode(apply_mask(tv, mask)), root / "a.lta")
    names = {"ckpt": "base.ckpt", "mask": "m.bin", "sidecar": "m.bin.json",
             "adapter": "a.lta"}
    return SimpleNamespace(
        root=root, base=base,
        **{key: (root / name).read_bytes() for key, name in names.items()},
    )


@settings(max_examples=150, deadline=None)
@given(DAMAGE)
def test_damaged_checkpoint(files, damage):
    path = files.root / "x.ckpt"
    path.write_bytes(damaged(files.ckpt, *damage))
    try:
        load_checkpoint(path)
    except READ_ERRORS:
        pass


@settings(max_examples=150, deadline=None)
@given(st.booleans(), DAMAGE)
def test_damaged_mask_or_sidecar(files, in_sidecar, damage):
    path = files.root / "x.bin"
    container, sidecar = files.mask, files.sidecar
    if in_sidecar:
        sidecar = damaged(sidecar, *damage)
    else:
        container = damaged(container, *damage)
    path.write_bytes(container)
    (files.root / "x.bin.json").write_bytes(sidecar)
    try:
        load_mask(path)
    except READ_ERRORS:
        pass


@settings(max_examples=150, deadline=None)
@given(DAMAGE)
def test_damaged_adapter(files, damage):
    path = files.root / "x.lta"
    path.write_bytes(damaged(files.adapter, *damage))
    try:
        adapter = load_adapter(path)
    except READ_ERRORS:
        return
    for use in (lambda: merge_lota(files.base, [adapter]),
                lambda: apply_adapter(files.base, adapter)):
        try:
            use()
        except USE_ERRORS:
            pass


def test_undamaged_files_load(files):
    assert load_checkpoint(files.root / "base.ckpt") == files.base
    assert load_mask(files.root / "m.bin").kept_count > 0
    assert apply_adapter(files.base, load_adapter(files.root / "a.lta")) != files.base


def refusal_peak(path, load=load_checkpoint) -> int:
    """The traced peak of `load(path)`, which must raise FormatError."""
    tracemalloc.start()
    try:
        with pytest.raises(FormatError):
            load(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def with_header_length(blob: bytes, header_len: int) -> bytes:
    return struct.pack("<Q", header_len) + blob[8:]


def with_declared_elements(blob: bytes, elements: int) -> bytes:
    """`blob` whose first tensor declares `elements` float32 values, with
    every offset moved to match; the payload is unchanged."""
    (header_len,) = struct.unpack("<Q", blob[:8])
    header = json.loads(blob[8 : 8 + header_len])
    header[min(header)]["shape"] = [elements]
    cursor = 0
    for name in sorted(header):
        end = cursor + 4 * math.prod(header[name]["shape"])
        header[name]["data_offsets"] = [cursor, end]
        cursor = end
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return struct.pack("<Q", len(raw)) + raw + blob[8 + header_len :]


FORGED = {
    # sizes beyond the file; 2**29 float32 values are 2 GiB
    **{f"elements-{e}": (with_declared_elements, e) for e in (64, 2**29, 2**40)},
    **{f"header-length-{h}": (with_header_length, h) for h in (2**31, 2**63)},
}


@pytest.mark.parametrize("forge", sorted(FORGED))
def test_forged_checkpoint_size_allocates_nothing(files, forge):
    build, value = FORGED[forge]
    path = files.root / "forged.ckpt"
    path.write_bytes(build(files.ckpt, value))
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(path)
    assert refusal_peak(path) < 2**20


def test_every_cut_of_a_checkpoint_is_refused(files):
    # the prefix, the header or the payload cut short: each leaves a file
    # shorter than its header declares
    path = files.root / "cut.ckpt"
    for pos in range(len(files.ckpt)):
        path.write_bytes(files.ckpt[:pos])
        assert refusal_peak(path) < 2**20


@pytest.mark.parametrize("bits", [0x01, 0x80])
def test_flipped_header_length_is_refused(files, bits):
    path = files.root / "flip.ckpt"
    for pos in range(8):
        blob = bytearray(files.ckpt)
        blob[pos] ^= bits
        path.write_bytes(bytes(blob))
        assert refusal_peak(path) < 2**20


def forged_mask(files, forge):
    """The fixture's mask file with its entries and metadata replaced by
    `forge(bits, metadata)`; the sidecar stays. Returns its path."""
    entries, meta, _ = read_container(files.root / "m.bin")
    path = files.root / "forged.bin"
    path.write_bytes(b"".join(container_parts(*forge(entries["bits"].copy(), meta))))
    (files.root / "forged.bin.json").write_bytes(files.sidecar)
    return path


def test_every_set_pad_bit_of_a_mask_is_refused(files):
    mask = load_mask(files.root / "m.bin")
    bits = np.packbits(mask.flat)
    pads = 8 * bits.size - mask.total_elements
    assert pads > 0
    for pad in range(pads):
        forged = bits.copy()
        forged[-1] |= 1 << pad
        with pytest.raises(FormatError, match="pad bits"):
            load_mask(forged_mask(files, lambda bits, meta: ({"bits": forged}, meta)))


@pytest.mark.parametrize("elements", [64 * 2**20, 2**33, 2**40, 2**62])
def test_forged_mask_size_allocates_nothing(files, elements):
    # each declares far more elements than the file's bits: 2**33 of them
    # unpacked would be 8 GiB, past the address-space cap
    for dims in ([elements], [elements, elements], [elements] * 32):
        path = forged_mask(
            files, lambda bits, meta: ({"bits": bits}, {**meta, "shapes": {"w": dims}})
        )
        assert refusal_peak(path, load_mask) < 2**20


@pytest.mark.parametrize("forge", [
    lambda bits, meta: ({"bits": bits[:-1]}, meta),
    lambda bits, meta: ({"bits": np.append(bits, np.uint8(0))}, meta),
    lambda bits, meta: ({"bits": np.concatenate([bits, bits])}, meta),
    lambda bits, meta: ({}, meta),
    lambda bits, meta: ({"bits": bits, "extra": bits}, meta),
    lambda bits, meta: ({"bits": bits}, {"format": meta["format"]}),
    lambda bits, meta: ({"bits": bits}, {**meta, "shapes": {}}),
    lambda bits, meta: ({"bits": bits}, {**meta, "shapes": [[51]]}),
    lambda bits, meta: ({"bits": bits}, {**meta, "format": "lota-mask-1"}),
    lambda bits, meta: ({n: np.ones(d, np.uint8) for n, d in meta["shapes"].items()}, None),
], ids=["one-byte-short", "one-byte-long", "twice", "no-entry", "extra-entry", "no-shapes",
        "no-tensors", "shapes-list", "unknown-tag", "old-unpacked"])
def test_forged_mask_refused(files, forge):
    assert refusal_peak(forged_mask(files, forge), load_mask) < 2**20
