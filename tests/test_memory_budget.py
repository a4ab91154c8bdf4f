"""What a publish, a merge, a hash, a save and a load allocate, per parameter.

numpy reports its buffers to tracemalloc, so the traced peak of one call
is the scratch it allocates, its result included. Each bound is pinned on
a map of about 1M parameters with some headroom. A merge holds its
float32 result, one block of rows of its sources, and each adapter's
entries (12 bytes per stored value); the top-k cuts of its trimmed sources
take one uint32 buffer of the map's size, freed before the result is
allocated. The hash and the save stream the map's own buffer, and the load
reads the file straight into the new map's buffer.
In a publish, `sparsify` holds the float32 magnitudes, their partition
copy and its boolean result, `apply_mask` its float32 result, and
`encode` a one-byte boolean per element for its support scan plus
scratch in proportion to the kept entries.
"""

import tracemalloc

import numpy as np
import pytest

from lota import (
    ParameterMap,
    ToyModel,
    apply_mask,
    digest,
    encode,
    load_checkpoint,
    merge_lota,
    save_checkpoint,
    sparsify,
    ties_merge,
)
from lota.sparsity import TaskVector

# traced peak bytes per parameter; the result of a merge or a load is 4
BUDGET = {
    "sparsify": 10.0,
    "apply_mask": 6.0,
    "encode": 3.0,
    "ties_merge": 8.0,
    "merge_lota": 12.0,
    "digest": 1.0,
    "save_checkpoint": 1.0,
    "load_checkpoint": 6.0,
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
    path = tmp_path_factory.mktemp("budget") / "base.ckpt"
    save_checkpoint(base, path)
    return base, tvs, (masks[0], masked[0]), adapters, path


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("op", sorted(BUDGET))
def test_peak_per_parameter(problem, tmp_path, op):
    base, tvs, (mask, masked), adapters, path = problem
    fresh = ParameterMap.from_flat(base.layout, base.flat.copy())  # not yet hashed
    calls = {
        "sparsify": lambda: sparsify(tvs[0], 0.9),
        "apply_mask": lambda: apply_mask(tvs[0], mask),
        "encode": lambda: encode(masked),
        "ties_merge": lambda: ties_merge(base, tvs, [0.2] * len(tvs)),
        "merge_lota": lambda: merge_lota(base, adapters),
        "digest": lambda: digest(fresh),
        "save_checkpoint": lambda: save_checkpoint(base, tmp_path / "out.ckpt"),
        "load_checkpoint": lambda: load_checkpoint(path),
    }
    per_parameter = traced_peak(calls[op]) / base.total_elements
    assert per_parameter <= BUDGET[op]
