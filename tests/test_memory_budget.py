"""What a publish, a merge, a hash, a save and a load allocate, per parameter.

numpy reports its buffers to tracemalloc, so the traced peak of one call
is the scratch it allocates, its result included. Each bound is pinned on
a map of about 1M parameters with some headroom. A merge holds its
float32 result, one block of rows of its sources, one block of scratch
that every block and source reuses (18 bytes per column), and each
adapter's entries (12 bytes per stored value), all but the result freed
before its finite check; the top-k cuts of its trimmed sources take one
uint32 buffer of the map's size, freed before the result is allocated. The hash and the save stream the map's own buffer, and each
load reads its file's payload straight into one buffer: a checkpoint's
becomes the new map's, and an adapter's holds its gap streams and values,
which its records check where they lie. A mask's holds its packed bits,
one bit per element, which unpack into the new mask's one-byte buffer.
In a publish, `sparsify` holds one uint32 scratch of the sign-cleared
bits and its boolean result, `apply_mask` its uint32 widened mask, which
becomes its float32 result, and
`encode` a one-byte boolean per element for its support scan plus
scratch in proportion to the kept entries. `decode` holds its float32
result, its finite check and the adapter's entries.
"""

import tracemalloc

import numpy as np
import pytest

from lota import (
    ParameterMap,
    ToyModel,
    apply_mask,
    decode,
    digest,
    encode,
    load_adapter,
    load_checkpoint,
    load_mask,
    merge_lota,
    save_adapter,
    save_checkpoint,
    save_mask,
    sparsify,
    ties_merge,
)
from lota.sparsity import TaskVector

# traced peak bytes per parameter; the result of a merge or a load is 4
BUDGET = {
    "sparsify": 7.0,
    "apply_mask": 6.0,
    "encode": 3.0,
    "decode": 7.0,
    "ties_merge": 7.5,
    "merge_lota": 12.0,
    "digest": 1.0,
    "save_checkpoint": 1.0,
    "load_checkpoint": 6.0,
    "load_adapter": 1.5,
    "load_mask": 1.5,
}


@pytest.fixture(scope="module")
def problem(tmp_path_factory):
    base = ToyModel.initialize(
        (16, 1024, 1024, 4), "tanh", "softmax-cross-entropy", 0
    ).params
    rng = np.random.default_rng(0)
    n = base.total_elements
    tvs = [
        TaskVector(
            ParameterMap.from_flat(base.layout, rng.standard_normal(n, dtype=np.float32)),
            digest(base),
        )
        for _ in range(4)
    ]
    masks = [sparsify(tv, 0.9) for tv in tvs]
    masked = [apply_mask(tv, mask) for tv, mask in zip(tvs, masks)]
    adapters = [encode(tv) for tv in masked]
    files = tmp_path_factory.mktemp("budget")
    save_checkpoint(base, files / "base.ckpt")
    save_mask(masks[0], files / "0.mask.bin")
    save_adapter(adapters[0], files / "0.lta")
    return base, tvs, (masks[0], masked[0]), adapters, files


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("op", sorted(BUDGET))
def test_peak_per_parameter(problem, tmp_path, op):
    base, tvs, (mask, masked), adapters, files = problem
    fresh = ParameterMap.from_flat(base.layout, base.flat.copy())  # not yet hashed
    calls = {
        "sparsify": lambda: sparsify(tvs[0], 0.9),
        "apply_mask": lambda: apply_mask(tvs[0], mask),
        "encode": lambda: encode(masked),
        "decode": lambda: decode(adapters[0]),
        "ties_merge": lambda: ties_merge(base, tvs, [0.2] * len(tvs)),
        "merge_lota": lambda: merge_lota(base, adapters),
        "digest": lambda: digest(fresh),
        "save_checkpoint": lambda: save_checkpoint(base, tmp_path / "out.ckpt"),
        "load_checkpoint": lambda: load_checkpoint(files / "base.ckpt"),
        "load_adapter": lambda: load_adapter(files / "0.lta"),
        "load_mask": lambda: load_mask(files / "0.mask.bin"),
    }
    per_parameter = traced_peak(calls[op]) / base.total_elements
    assert per_parameter <= BUDGET[op]
