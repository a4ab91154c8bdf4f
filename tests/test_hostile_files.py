"""Byte flips and truncations of one valid checkpoint, mask and adapter.

Every reader answers a damaged file with FormatError or NonFiniteError and
nothing else. An adapter that still loads either merges and applies onto
its true base or fails with AlignmentError or DigestMismatchError.
"""

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
