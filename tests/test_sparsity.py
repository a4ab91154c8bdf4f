import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lota import (
    AlignmentError,
    CapacityError,
    ConfigError,
    FormatError,
    ParameterMap,
    SparsityMask,
    TaskVector,
    all_false_mask,
    apply_mask,
    compute_task_vector,
    digest,
    load_mask,
    mask_complement,
    mask_union,
    random_mask,
    save_mask,
    sparsify,
    zeros_like,
)
from lota.container import build_container
from lota.sparsity import topk_keep, topk_keep_flat


def tv_from(entries):
    pm = ParameterMap(entries)
    return TaskVector(entries=pm, base_digest=digest(zeros_like(pm)))


def random_tv(seed, shapes=None):
    rng = np.random.default_rng(seed)
    shapes = shapes or {"a.weight": (5, 7), "b.bias": (11,)}
    return tv_from(
        {n: rng.standard_normal(s).astype(np.float32) for n, s in shapes.items()}
    )


class TestComputeTaskVector:
    def test_identical_maps_give_zero(self):
        pm = ParameterMap({"w": np.ones((2, 2), np.float32)})
        tv = compute_task_vector(pm, pm)
        assert np.count_nonzero(tv.entries.flat) == 0

    def test_zero_base_gives_finetuned(self):
        rng = np.random.default_rng(0)
        w_f = ParameterMap({"w": rng.standard_normal(6).astype(np.float32)})
        tv = compute_task_vector(w_f, zeros_like(w_f))
        np.testing.assert_array_equal(tv.entries["w"], w_f["w"])

    def test_matches_element_loop(self):
        rng = np.random.default_rng(1)
        a = ParameterMap({"w": rng.standard_normal((4, 3)).astype(np.float32)})
        b = ParameterMap({"w": rng.standard_normal((4, 3)).astype(np.float32)})
        tv = compute_task_vector(a, b)
        for i in range(4):
            for j in range(3):
                assert tv.entries["w"][i, j] == np.float32(a["w"][i, j] - b["w"][i, j])

    def test_base_digest_recorded(self):
        rng = np.random.default_rng(2)
        a = ParameterMap({"w": rng.standard_normal(3).astype(np.float32)})
        b = ParameterMap({"w": rng.standard_normal(3).astype(np.float32)})
        assert compute_task_vector(a, b).base_digest == digest(b)

    def test_misalignment_rejected(self):
        a = ParameterMap({"w": np.ones(3, np.float32)})
        b = ParameterMap({"w": np.ones(4, np.float32)})
        with pytest.raises(AlignmentError):
            compute_task_vector(a, b)


class TestSparsify:
    def test_forced_top2(self):
        tv = tv_from({"w": np.array([0.5, -0.1, 0.3, 0.0], np.float32)})
        mask = sparsify(tv, 0.5)
        np.testing.assert_array_equal(mask["w"], [True, False, True, False])

    def test_s_zero_keeps_all(self):
        tv = random_tv(0)
        mask = sparsify(tv, 0.0)
        assert mask.kept_count == tv.total_elements
        applied = apply_mask(tv, mask)
        for name, arr in tv.entries.items():
            np.testing.assert_array_equal(applied.entries[name], arr)

    def test_tie_broken_by_name_order(self):
        tv = tv_from(
            {
                "a": np.array([0.2], np.float32),
                "b": np.array([0.2, 0.1], np.float32),
            }
        )
        mask = sparsify(tv, 2 / 3)
        assert mask.kept_count == 1
        assert mask["a"][0] and not mask["b"].any()

    def test_declared_sparsity_within_rounding(self):
        tv = random_tv(3)
        for s in (0.1, 0.33, 0.9):
            mask = sparsify(tv, s)
            assert abs(mask.measured_sparsity - s) <= 1.0 / tv.total_elements

    def test_matches_sort_oracle(self):
        # brute-force: sort (|v| desc, global index asc), keep first k
        rng = np.random.default_rng(7)
        tv = random_tv(7, {"m": (100,), "n": (50, 2)})
        n = tv.total_elements
        flat = np.concatenate([a.ravel() for _, a in tv.entries.items()])
        for s in (0.2, 0.5, 0.77, 0.99):
            mask = sparsify(tv, s)
            k = int(np.floor((1 - s) * n + 0.5))
            order = sorted(range(n), key=lambda i: (-abs(flat[i]), i))
            expected = np.zeros(n, dtype=bool)
            expected[order[:k]] = True
            np.testing.assert_array_equal(mask.flat, expected)

    def test_monotone_nesting(self):
        tv = random_tv(11)
        prev = sparsify(tv, 0.1).flat
        for s in (0.3, 0.6, 0.9):
            cur = sparsify(tv, s).flat
            assert not (cur & ~prev).any()
            prev = cur

    def test_permutation_consistency(self):
        rng = np.random.default_rng(13)
        arrs = {f"t{i}": rng.standard_normal(9).astype(np.float32) for i in range(3)}
        mask = sparsify(tv_from(arrs), 0.6)
        renamed = {f"z{n}": a for n, a in arrs.items()}
        mask2 = sparsify(tv_from(renamed), 0.6)
        for name in arrs:
            np.testing.assert_array_equal(mask[name], mask2["z" + name])


class TestApplyMask:
    def test_all_true_identity(self):
        tv = random_tv(4)
        everything = np.ones(tv.total_elements, bool)
        out = apply_mask(tv, SparsityMask.from_flat(tv.entries.layout, everything))
        for name, arr in tv.entries.items():
            np.testing.assert_array_equal(out.entries[name], arr)

    def test_all_false_zeroes(self):
        tv = random_tv(5)
        out = apply_mask(tv, all_false_mask(tv.entries))
        assert np.count_nonzero(out.entries.flat) == 0

    def test_nnz_equals_k(self):
        tv = random_tv(6)
        mask = sparsify(tv, 0.7)
        assert np.count_nonzero(apply_mask(tv, mask).entries.flat) == mask.kept_count

    def test_largest_magnitudes_preserved(self):
        tv = random_tv(8, {"x": (200,)})
        s = 0.9
        masked = apply_mask(tv, sparsify(tv, s))
        flat = np.abs(tv.entries["x"])
        k = int(np.floor((1 - s) * 200 + 0.5))
        top = np.sort(flat)[::-1][:k]
        kept = np.abs(masked.entries["x"])
        np.testing.assert_array_equal(np.sort(kept[kept > 0])[::-1], top)


def reference_topk(entries, k, allowed=None):
    """Full-sort top-k: magnitude descending, then global position."""
    mags = np.concatenate(
        [np.abs(arr, dtype=np.float32).ravel() for _, arr in entries.items()]
    )
    n = mags.size
    if allowed is None:
        candidates = np.arange(n, dtype=np.int64)
    else:
        candidates = np.flatnonzero(allowed)
    if k > candidates.size:
        raise CapacityError(
            f"cannot keep {k} elements: only {candidates.size} positions allowed"
        )
    order = np.lexsort((candidates, -mags[candidates]))
    kept_flat = np.zeros(n, dtype=bool)
    kept_flat[candidates[order[:k]]] = True
    return kept_flat


FMAX = float(np.finfo(np.float32).max)
TINY = float(np.finfo(np.float32).smallest_subnormal)
# zeros of both signs, subnormals (the smallest and the largest), the
# smallest normal and the largest finite float32, among ordinary values
TIE_POOL = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, 1e-30, TINY, -TINY, 2 * TINY,
            1.1754942e-38, float(np.finfo(np.float32).tiny), FMAX, -FMAX]


@st.composite
def tied_entries(draw):
    """Several tensors of values from a small pool, so ties are heavy."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    return ParameterMap({
        f"t{i}": np.array(
            draw(st.lists(st.sampled_from(TIE_POOL), min_size=n, max_size=n)),
            dtype=np.float32,
        )
        for i, n in enumerate(sizes)
    })


class TestTopkOracle:
    @settings(max_examples=200, deadline=None)
    @given(tied_entries(), st.data())
    def test_matches_full_sort_bitwise(self, entries, data):
        n = entries.total_elements
        allowed = data.draw(
            st.none()
            | st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)
        )
        size = n if allowed is None else int(np.count_nonzero(allowed))
        k = data.draw(st.sampled_from(
            sorted({0, min(1, size), size // 2, max(size - 1, 0), size})
        ))
        got = topk_keep_flat(entries, k, allowed)
        assert got.dtype == np.bool_
        np.testing.assert_array_equal(got, reference_topk(entries, k, allowed))
        with pytest.raises(CapacityError):
            topk_keep_flat(entries, size + 1, allowed)

    # topk_keep selects on the uint32 bit patterns of the float32 magnitudes
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(TIE_POOL)
                 | st.floats(width=32, allow_nan=False, allow_infinity=False),
                 min_size=1, max_size=40),
        st.data(),
    )
    def test_integer_key_selection_matches_full_sort(self, values, data):
        flat = np.array(values, dtype=np.float32)
        n = flat.size
        k = data.draw(st.sampled_from(sorted({0, 1, n - 1, n})) | st.integers(0, n))
        got = topk_keep(np.abs(flat), k)
        np.testing.assert_array_equal(got, reference_topk(ParameterMap({"t": flat}), k))

    def test_refuses_magnitudes_that_are_not_float32(self):
        with pytest.raises(ValueError, match="float32"):
            topk_keep(np.abs(np.arange(4.0)), 2)


bool_arrays = st.integers(2, 40).flatmap(
    lambda n: st.lists(st.booleans(), min_size=n, max_size=n)
)


def mask_of(bits):
    arr = np.array(bits, dtype=bool)
    return SparsityMask({"w": arr}, declared_sparsity=1.0 - arr.sum() / arr.size)


class TestMaskAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(bool_arrays)
    def test_union_with_false_is_identity(self, bits):
        a = mask_of(bits)
        false = SparsityMask(
            {"w": np.zeros(len(bits), dtype=bool)}, declared_sparsity=1.0
        )
        assert mask_union(a, false) == a

    @settings(max_examples=60, deadline=None)
    @given(bool_arrays)
    def test_union_with_complement_is_all_true(self, bits):
        a = mask_of(bits)
        u = mask_union(a, mask_complement(a))
        assert u.kept_count == u.total_elements

    @settings(max_examples=60, deadline=None)
    @given(bool_arrays, bool_arrays)
    def test_a_subset_of_union(self, bits_a, bits_b):
        n = min(len(bits_a), len(bits_b))
        a, b = mask_of(bits_a[:n]), mask_of(bits_b[:n])
        assert np.count_nonzero(a.flat & mask_union(a, b).flat) == a.kept_count

    @settings(max_examples=60, deadline=None)
    @given(bool_arrays)
    def test_double_complement(self, bits):
        a = mask_of(bits)
        assert mask_complement(mask_complement(a)) == a

    @settings(max_examples=60, deadline=None)
    @given(bool_arrays)
    def test_complement_counts(self, bits):
        a = mask_of(bits)
        assert a.kept_count + mask_complement(a).kept_count == a.total_elements

    @settings(max_examples=60, deadline=None)
    @given(bool_arrays, bool_arrays)
    def test_de_morgan(self, bits_a, bits_b):
        n = min(len(bits_a), len(bits_b))
        a, b = mask_of(bits_a[:n]), mask_of(bits_b[:n])
        lhs = mask_complement(mask_union(a, b))
        rhs_bits = ~(np.array(bits_a[:n]) | np.array(bits_b[:n]))
        np.testing.assert_array_equal(lhs["w"], rhs_bits)


class TestRandomMask:
    def test_seed_determinism(self):
        pm = ParameterMap({"w": np.ones(100, np.float32)})
        assert random_mask(pm, 0.5, seed=9) == random_mask(pm, 0.5, seed=9)
        assert random_mask(pm, 0.5, seed=9) != random_mask(pm, 0.5, seed=10)

    def test_kept_count_rounding(self):
        pm = ParameterMap({"w": np.ones(1000, np.float32)})
        assert random_mask(pm, 0.9, seed=3).kept_count == 100

    def test_random_masks_near_analytic_expectation(self):
        # hypergeometric: |A∩B| for independent k-subsets of n
        n, keep = 100_000, 10_000
        pm = ParameterMap({"w": np.zeros(n, np.float32) + 1})
        a = random_mask(pm, 0.9, seed=1)
        b = random_mask(pm, 0.9, seed=2)
        inter = np.count_nonzero(a.flat & b.flat)
        mean = keep * keep / n
        var = mean * (n - keep) / n * (n - keep) / (n - 1)
        assert abs(inter - mean) <= 3 * np.sqrt(var)


class TestSparsityCheck:
    """`sparsify` and `random_mask` share the LoTA phase's one check of s."""

    @pytest.mark.parametrize("s", [1.0, 1.5, -0.1, float("nan"), True, "0.5"])
    @pytest.mark.parametrize("build", [
        lambda pm, s: sparsify(compute_task_vector(pm, zeros_like(pm)), s),
        lambda pm, s: random_mask(pm, s, seed=0),
    ], ids=["sparsify", "random_mask"])
    def test_out_of_range_refused(self, build, s):
        pm = ParameterMap({"w": np.arange(1, 11, dtype=np.float32)})
        with pytest.raises(ConfigError, match="sparsity must be"):
            build(pm, s)


class TestMaskIO:
    def test_round_trip(self, tmp_path):
        pm = ParameterMap({"w": np.ones((4, 5), np.float32)})
        mask = random_mask(pm, 0.7, seed=5)
        path = tmp_path / "m.mask"
        save_mask(mask, path, source="random", seed=5)
        loaded = load_mask(path)
        assert loaded == mask
        assert loaded.declared_sparsity == mask.declared_sparsity

    def test_scalar_keeps_shape(self, tmp_path):
        mask = SparsityMask({"s": np.array(True), "w": np.ones(3, bool)}, 0.0)
        assert mask["s"].shape == ()
        save_mask(mask, tmp_path / "m.mask")
        assert load_mask(tmp_path / "m.mask")["s"].shape == ()

    def test_bit_reproducible(self, tmp_path):
        pm = ParameterMap({"w": np.ones(64, np.float32)})
        mask = random_mask(pm, 0.5, seed=1)
        save_mask(mask, tmp_path / "a", source="x", seed=1)
        save_mask(mask, tmp_path / "b", source="x", seed=1)
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("kept, sidecar", [
        (1, '{"declared_sparsity": 0.25}'),  # the mask keeps 1 of 4: it is 0.75
        (1, '{"declared_sparsity": 1.5}'),
        (1, '{"declared_sparsity": 1e999}'),
        (1, '{"declared_sparsity": 1' + "0" * 400 + "}"),
        (1, '{"declared_sparsity": [0.75]}'),
        (1, '{"declared_sparsity": "0.75"}'),
        (0, '{"declared_sparsity": true}'),  # an all-false mask is 1.0 sparse
        (1, '{"source": "x"}'),
        (1, "[0.75]"),
        (1, "{"),
        (1, "[" * 100_000),
    ], ids=["disagrees", "above-1", "inf", "huge-int", "list", "string", "bool",
            "no-key", "not-object", "cut", "deep"])
    def test_bad_sidecar_rejected(self, tmp_path, kept, sidecar):
        path = tmp_path / "m.mask"
        mask = SparsityMask({"w": np.arange(4) < kept}, 1.0 - kept / 4)
        save_mask(mask, path)
        assert load_mask(path).declared_sparsity == 1.0 - kept / 4
        (tmp_path / "m.mask.json").write_text(sidecar)
        with pytest.raises(FormatError):
            load_mask(path)

    def test_empty_or_float_mask_file_rejected(self, tmp_path):
        path = tmp_path / "m.mask"
        (tmp_path / "m.mask.json").write_text('{"declared_sparsity": 0.0}')
        for entries, match in (({}, "at least one element"),
                               ({"w": np.ones(2, np.float32)}, "dtype mismatch")):
            path.write_bytes(build_container(entries, None))
            with pytest.raises(FormatError, match=match):
                load_mask(path)
