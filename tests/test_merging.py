import dataclasses
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lota import (
    AdapterRecord,
    AlignmentError,
    DigestMismatchError,
    ParameterMap,
    SparseAdapter,
    TaskVector,
    apply_adapter,
    digest,
    encode,
    merge_grid_search,
    merge_lota,
    ties_merge,
)
from lota import merging, params
from lota.adapter import encode_gaps
from lota.merging import _merge, _sort_columns, _trim_elect_mean

F32 = np.float32


def base_map(values):
    return ParameterMap({"w": np.asarray(values, dtype=np.float32)})


def tv_for(base, values):
    return TaskVector(
        entries=ParameterMap({"w": np.asarray(values, dtype=np.float32)}),
        base_digest=digest(base),
    )


# -- independent brute-force reference (scalar float32 emulation) -----------


def oracle_trim_kept(values, k):
    order = sorted(range(len(values)), key=lambda i: (-abs(values[i]), i))
    return set(order[:k])


def oracle_ties(base_values, per_task_values, fractions, lam=1.0):
    n = len(base_values)
    kept_sets = [
        oracle_trim_kept(vals, int(math.floor(f * n + 0.5)))
        for vals, f in zip(per_task_values, fractions)
    ]
    out = []
    for i in range(n):
        contribs = sorted(
            F32(vals[i])
            for t, vals in enumerate(per_task_values)
            if i in kept_sets[t]
        )
        total = F32(0.0)
        for v in contribs:
            total = F32(total + v)
        if total > 0:
            matching = [v for v in contribs if v > 0]
        elif total < 0:
            matching = [v for v in contribs if v < 0]
        else:
            matching = []
        if matching:
            acc = F32(0.0)
            for v in matching:
                acc = F32(acc + v)
            merged = F32(acc / F32(len(matching)))
        else:
            merged = F32(0.0)
        out.append(F32(F32(base_values[i]) + F32(F32(lam) * merged)))
    return np.array(out, dtype=np.float32)


def reference_trim_elect_mean(stacked):
    """Sign election and mean with a full `np.sort` of each column."""
    ordered = np.sort(stacked, axis=0)
    total = np.zeros(ordered.shape[1], dtype=np.float32)
    pos_sum = np.zeros_like(total)
    neg_sum = np.zeros_like(total)
    pos_count = np.zeros(ordered.shape[1], dtype=np.int64)
    neg_count = np.zeros_like(pos_count)
    zero = np.float32(0.0)
    for row in ordered:
        total += row
        pos_sum += np.where(row > 0, row, zero)
        neg_sum += np.where(row < 0, row, zero)
        pos_count += row > 0
        neg_count += row < 0
    merged = np.where(
        total > 0,
        pos_sum / np.maximum(pos_count, 1).astype(np.float32),
        np.where(
            total < 0,
            neg_sum / np.maximum(neg_count, 1).astype(np.float32),
            zero,
        ),
    )
    return merged.astype(np.float32)


def task_arithmetic(base, tvs, weights, lam=1.0):
    """w_P + lam * sum_i weights_i * tv_i: `_merge` without trim or election."""
    return _merge(base, tvs, [1.0] * len(tvs), weights, False, lam)


class TestTaskArithmetic:
    def test_single_vector_weight_one(self):
        base = base_map([1.0, -2.0, 0.5])
        tv = tv_for(base, [0.25, 0.0, -0.5])
        merged = task_arithmetic(base, [tv], [1.0], lam=1.0)
        applied = apply_adapter(base, encode(tv))
        assert merged == applied

    def test_opposite_vectors_cancel(self):
        base = base_map([1.0, 2.0])
        tv = tv_for(base, [0.5, -0.25])
        neg = tv_for(base, [-0.5, 0.25])
        merged = task_arithmetic(base, [tv, neg], [1.0, 1.0])
        assert merged == base

    def test_disjoint_supports(self):
        base = base_map([0.0, 0.0, 0.0, 0.0])
        a = tv_for(base, [1.0, 2.0, 0.0, 0.0])
        b = tv_for(base, [0.0, 0.0, 3.0, 4.0])
        merged = task_arithmetic(base, [a, b], [1.0, 1.0])
        np.testing.assert_array_equal(merged["w"], [1.0, 2.0, 3.0, 4.0])

    def test_digest_mismatch_rejected(self):
        base, other = base_map([1.0]), base_map([2.0])
        tv = tv_for(other, [0.5])
        with pytest.raises(DigestMismatchError):
            task_arithmetic(base, [tv], [1.0])


class TestTiesMerge:
    def test_single_task_full_fraction_is_task_arithmetic(self):
        base = base_map([1.0, -1.0, 0.25, 0.0])
        tv = tv_for(base, [0.5, 0.0, -0.125, 2.0])
        ties = ties_merge(base, [tv], [1.0], lam=1.0)
        plain = task_arithmetic(base, [tv], [1.0], lam=1.0)
        assert ties == plain

    def test_sign_election_example(self):
        # kept values (+0.4, -0.1): elected +, mean over {0.4}
        base = base_map([0.0])
        a, b = tv_for(base, [0.4]), tv_for(base, [-0.1])
        merged = ties_merge(base, [a, b], [1.0, 1.0])
        assert merged["w"][0] == F32(0.4)

    def test_exact_sign_tie_resolves_to_zero(self):
        base = base_map([1.0])
        a, b = tv_for(base, [0.3]), tv_for(base, [-0.3])
        merged = ties_merge(base, [a, b], [1.0, 1.0])
        assert merged["w"][0] == F32(1.0)

    def test_support_subset_of_trimmed_union(self):
        rng = np.random.default_rng(0)
        base = base_map(np.zeros(40))
        tvs = [tv_for(base, rng.standard_normal(40)) for _ in range(3)]
        fractions = [0.2, 0.3, 0.1]
        merged = ties_merge(base, tvs, fractions)
        n = 40
        union = np.zeros(n, dtype=bool)
        for tv, f in zip(tvs, fractions):
            k = int(math.floor(f * n + 0.5))
            kept = oracle_trim_kept(list(tv.entries["w"]), k)
            union[list(kept)] = True
        assert not (merged["w"][~union] != 0.0).any()

    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        base_vals = rng.standard_normal(n).astype(np.float32)
        base = base_map(base_vals)
        vals = [rng.standard_normal(n).astype(np.float32) for _ in range(2)]
        tvs = [tv_for(base, v) for v in vals]
        fractions = [float(rng.choice([0.2, 0.4, 0.6, 1.0])) for _ in range(2)]
        lam = float(rng.choice([0.5, 1.0]))
        merged = ties_merge(base, tvs, fractions, lam=lam)
        expected = oracle_ties(base_vals, vals, fractions, lam)
        np.testing.assert_array_equal(merged["w"], expected)

    def test_exhaustive_small_grid(self):
        # every 2-task instance over n=2 coordinates, 5-value grid
        grid = [-0.2, -0.1, 0.0, 0.1, 0.2]
        base = base_map([0.05, -0.05])
        count = 0
        for a_vals in itertools.product(grid, repeat=2):
            for b_vals in itertools.product(grid, repeat=2):
                tvs = [tv_for(base, a_vals), tv_for(base, b_vals)]
                for frac in ((0.5, 0.5), (1.0, 0.5), (1.0, 1.0)):
                    merged = ties_merge(base, tvs, frac)
                    expected = oracle_ties([0.05, -0.05], [a_vals, b_vals], frac)
                    np.testing.assert_array_equal(merged["w"], expected)
                    count += 1
        assert count == 625 * 3

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
    )
    def test_oracle_property(self, n, seed, n_tasks):
        rng = np.random.default_rng(seed)
        base_vals = rng.standard_normal(n).astype(np.float32)
        base = base_map(base_vals)
        vals = [
            np.round(rng.standard_normal(n), 1).astype(np.float32)
            for _ in range(n_tasks)
        ]
        tvs = [tv_for(base, v) for v in vals]
        fractions = [float(rng.choice([0.25, 0.5, 0.75, 1.0])) for _ in range(n_tasks)]
        merged = ties_merge(base, tvs, fractions)
        expected = oracle_ties(base_vals, vals, fractions)
        np.testing.assert_array_equal(merged["w"], expected)


# 3e-8 is below half an ulp of 1.0, so float32 sums of these depend on order
SIGNED_POOL = [0.0, -0.0, 3e-8, -3e-8, 0.3, -0.3, 1.0, -1.0, 1e-30, -1e-30]


class TestElectMeanOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda t: st.lists(
                st.lists(st.sampled_from(SIGNED_POOL), min_size=t, max_size=t),
                min_size=1,
                max_size=40,
            )
        )
    )
    def test_matches_full_sort_bitwise(self, columns):
        stacked = np.array(columns, dtype=np.float32).T.copy()
        before = stacked.copy()
        # equal values, ascending; +0.0 and -0.0 compare equal here
        np.testing.assert_array_equal(
            _sort_columns(stacked), np.sort(stacked, axis=0)
        )
        got = _trim_elect_mean(stacked)
        want = reference_trim_elect_mean(stacked)
        assert got.dtype == np.float32
        assert got.view(np.uint32).tolist() == want.view(np.uint32).tolist()
        assert stacked.view(np.uint32).tolist() == before.view(np.uint32).tolist()

    @pytest.mark.parametrize("n_rows", [1, 2, 3, 4, 5])
    def test_every_column_of_the_pool_bitwise(self, n_rows):
        # an incomplete network changes only a few dozen of these results
        stacked = np.array(
            list(itertools.product(SIGNED_POOL, repeat=n_rows)), dtype=np.float32
        ).T.copy()
        got = _trim_elect_mean(stacked)
        want = reference_trim_elect_mean(stacked)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


class TestMergeWithoutElection:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1.0, 0.5, -2.0]),
    )
    def test_untrimmed_sum_is_task_arithmetic_bitwise(self, n_tasks, seed, lam):
        rng = np.random.default_rng(seed)
        base = ParameterMap({
            "a": rng.standard_normal((3, 4)).astype(np.float32),
            "b": rng.standard_normal(5).astype(np.float32),
        })
        tvs = [
            TaskVector(
                entries=ParameterMap({
                    name: np.round(rng.standard_normal(a.shape), 1).astype(F32)
                    for name, a in base.items()
                }),
                base_digest=digest(base),
            )
            for _ in range(n_tasks)
        ]
        weights = [float(w) for w in rng.choice([1.0, 0.5, -0.75, 3.0], n_tasks)]
        merged = _merge(base, tvs, [1.0] * n_tasks, weights, False, lam)
        # the plain weighted sum, accumulated in task order
        total = np.zeros(base.total_elements, dtype=np.float32)
        for tv, w in zip(tvs, weights):
            total += tv.entries.flat * F32(w)
        plain = base.flat + F32(lam) * total
        assert merged.flat.tobytes() == plain.tobytes()


class TestMergeLota:
    def sparse_tv(self, base, positions, values):
        flat = np.zeros(base.total_elements, dtype=np.float32)
        flat[positions] = values
        return tv_for(base, flat)

    def test_disjoint_adapters_apply_both(self):
        base = base_map(np.zeros(10))
        a = encode(self.sparse_tv(base, [0, 3], [1.0, -2.0]))
        b = encode(self.sparse_tv(base, [5, 7], [0.5, 0.25]))
        merged = merge_lota(base, [a, b])
        both = apply_adapter(apply_adapter(base, a), b, check_digest=False)
        assert merged == both

    def test_same_adapter_twice_is_identity(self):
        base = base_map(np.zeros(8))
        adapter = encode(self.sparse_tv(base, [1, 4], [0.5, -0.75]))
        merged = merge_lota(base, [adapter, adapter])
        single = apply_adapter(base, adapter)
        assert merged == single

    def test_opposite_sign_overlap_resolves_to_zero(self):
        base = base_map(np.zeros(4))
        a = encode(self.sparse_tv(base, [2], [0.3]))
        b = encode(self.sparse_tv(base, [2], [-0.3]))
        merged = merge_lota(base, [a, b])
        assert merged["w"][2] == 0.0

    def test_permutation_invariant_bitwise(self):
        rng = np.random.default_rng(5)
        base = base_map(rng.standard_normal(30))
        adapters = []
        for i in range(3):
            flat = np.where(
                rng.random(30) < 0.3, rng.standard_normal(30), 0.0
            ).astype(np.float32)
            adapters.append(encode(tv_for(base, flat)))
        reference = merge_lota(base, adapters)
        for perm in itertools.permutations(range(3)):
            merged = merge_lota(base, [adapters[i] for i in perm])
            assert merged == reference


class TestGridSearch:
    def test_nine_cells_for_two_tasks(self):
        base = base_map(np.zeros(6))
        rng = np.random.default_rng(1)
        tvs = [tv_for(base, rng.standard_normal(6)) for _ in range(2)]
        grid = [0.1, 0.2, 0.3]
        result = merge_grid_search(
            base, tvs, [grid, grid], eval_fn=lambda pm: [float(pm["w"].sum())]
        )
        assert [row["fractions"] for row in result.table] == [
            list(cell) for cell in itertools.product(grid, grid)
        ]

    def test_base_is_serialized_once(self, monkeypatch):
        base = base_map(np.zeros(6))
        rng = np.random.default_rng(1)
        tvs = [tv_for(base, rng.standard_normal(6)) for _ in range(2)]
        fresh = ParameterMap.from_flat(base.layout, base.flat.copy())  # unhashed
        serialized = []
        original = params._checkpoint_parts
        monkeypatch.setattr(params, "_checkpoint_parts",
                            lambda pm: serialized.append(pm) or original(pm))
        grid = [0.1, 0.2, 0.3]
        result = merge_grid_search(fresh, tvs, [grid, grid], eval_fn=lambda pm: [0.0])
        assert len(result.table) == 9
        assert len(serialized) == 1 and serialized[0] is fresh

    def test_constant_objective_returns_first_cell(self):
        base = base_map(np.zeros(4))
        rng = np.random.default_rng(2)
        tvs = [tv_for(base, rng.standard_normal(4)) for _ in range(2)]
        result = merge_grid_search(
            base, tvs, [[0.5, 1.0], [0.5, 1.0]], eval_fn=lambda pm: [1.0, 1.0]
        )
        assert result.best is result.table[0]
        assert result.best["fractions"] == [0.5, 0.5]

    def test_single_cell_grid(self):
        base = base_map(np.zeros(4))
        tvs = [tv_for(base, [1.0, 0.0, 0.0, 0.0])]
        result = merge_grid_search(base, tvs, [[1.0]], eval_fn=lambda pm: [0.0])
        assert result.table == [result.best]
        assert result.best["fractions"] == [1.0]

    def test_one_fraction_source_shrinks_grid(self):
        base = base_map(np.zeros(4))
        rng = np.random.default_rng(3)
        tvs = [tv_for(base, rng.standard_normal(4)) for _ in range(2)]
        result = merge_grid_search(
            base, tvs, [[1.0], [0.1, 0.2, 0.3]],
            eval_fn=lambda pm: [float(pm["w"].max())],
        )
        assert len(result.table) == 3
        assert all(row["fractions"][0] == 1.0 for row in result.table)

    def test_best_cell_has_highest_mean_utility(self):
        base = base_map(np.zeros(4))
        tvs = [tv_for(base, [4.0, 3.0, 2.0, 1.0])]
        # the kept coordinates raise the first utility and lower the second
        result = merge_grid_search(
            base, tvs, [[0.25, 0.5, 1.0]],
            eval_fn=lambda pm: [float(pm["w"].sum()), -0.5 * float(pm["w"].sum())],
        )
        assert [row["utilities"] for row in result.table] == [
            [4.0, -2.0], [7.0, -3.5], [10.0, -5.0]
        ]
        assert [row["score"] for row in result.table] == [1.0, 1.75, 2.5]
        assert result.best is result.table[2]

    def test_each_cell_merged_and_scored_once(self, monkeypatch):
        base = base_map(np.zeros(4))
        adapter = encode(tv_for(base, [0.0, 2.0, 0.0, -1.0]))
        tv = tv_for(base, [1.0, -1.0, 3.0, 0.5])
        merges, scored = [], []
        monkeypatch.setattr(merging, "ties_merge",
                            lambda *a, **k: merges.append(a) or ties_merge(*a, **k))
        result = merge_grid_search(
            base, [adapter, tv], [[1.0], [0.25, 0.5]],
            eval_fn=lambda pm: scored.append(pm) or [0.0],
        )
        assert len(merges) == len(scored) == len(result.table) == 2
        assert scored[1] == ties_merge(base, [adapter, tv], [1.0, 0.5])

    @pytest.mark.parametrize("grids", [[[0.5]], [[0.5], []]])
    def test_one_nonempty_grid_per_source(self, grids):
        base = base_map(np.zeros(4))
        tvs = [tv_for(base, [1.0, 0.0, 0.0, 0.0])] * 2
        with pytest.raises(ValueError, match="one nonempty trim grid per source"):
            merge_grid_search(base, tvs, grids, eval_fn=lambda pm: [0.0])


class TestMergeArgumentCheck:
    """Every merge entry point refuses bad arguments in `_merge`, before any work."""

    def setup_method(self):
        self.base = base_map(np.zeros(4))
        self.tvs = [tv_for(self.base, [1.0, 0.0, -2.0, 0.0])] * 2

    def test_fraction_count_refused(self):
        with pytest.raises(ValueError, match="one trim fraction and one weight"):
            ties_merge(self.base, self.tvs, [0.5])
        with pytest.raises(ValueError, match="one trim fraction and one weight"):
            _merge(self.base, self.tvs, [0.5, 0.5, 0.5], [1.0, 1.0, 1.0], True, 1.0)

    def test_weight_count_refused(self):
        with pytest.raises(ValueError, match="one trim fraction and one weight"):
            ties_merge(self.base, self.tvs, [0.5, 0.5], weights=[1.0])
        with pytest.raises(ValueError, match="one trim fraction and one weight"):
            _merge(self.base, self.tvs, [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], False, 1.0)

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5, float("nan")])
    def test_trim_fraction_outside_unit_interval_refused(self, fraction):
        with pytest.raises(ValueError, match=r"trim fractions must be in \(0, 1\]"):
            ties_merge(self.base, self.tvs, [0.5, fraction])

    def test_empty_election_refused(self):
        with pytest.raises(ValueError, match="need at least one task vector"):
            ties_merge(self.base, [], [])
        with pytest.raises(ValueError, match="need at least one task vector"):
            merge_lota(self.base, [])


# -- sparse merge core against the dense (tasks, n) reference ----------------

LAYOUTS = [{"w": (7,)}, {"a": (2, 3), "b": (4,), "c": ()}, {"x": (3, 3), "y": (1,)}]
# 1e-30 * 1e-20 underflows to a float32 zero of the product's sign
WEIGHTS = [1.0, -1.0, 0.5, 3.0, 1e-20, -1e-20]


def reference_merge(base, vectors, fractions, weights, lam, elect):
    """The dense merge: trim and weight each task, then one (T, n) stack."""
    n = base.size
    rows = []
    for v, f, w in zip(vectors, fractions, weights):
        kept = np.zeros(n, dtype=bool)
        kept[list(oracle_trim_kept(list(v), int(math.floor(f * n + 0.5))))] = True
        rows.append(np.where(kept, v * F32(w), F32(0.0)))
    if elect:
        merged = reference_trim_elect_mean(np.stack(rows))
    else:
        merged = np.zeros(n, dtype=np.float32)
        for row in rows:
            merged += row
    return base + F32(lam) * merged


@st.composite
def merge_cases(draw):
    shapes = draw(st.sampled_from(LAYOUTS))
    n = sum(math.prod(shape) for shape in shapes.values())
    t = draw(st.integers(1, 6))
    pool = st.sampled_from(SIGNED_POOL)
    base = np.array(draw(st.lists(pool, min_size=n, max_size=n)), dtype=F32)
    support = draw(st.sampled_from(["dense", "disjoint", "nested", "random"]))
    vectors = []
    for i in range(t):
        v = np.array(draw(st.lists(pool, min_size=n, max_size=n)), dtype=F32)
        if support == "disjoint":
            v[np.arange(n) % t != i] = 0.0
        elif support == "nested":
            v[n - (i * n) // t :] = 0.0
        elif support == "random":
            v[~np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))] = 0.0
        vectors.append(v)
    fractions = draw(st.lists(st.sampled_from([0.1, 0.25, 0.5, 0.75, 1.0]),
                              min_size=t, max_size=t))
    weights = draw(st.lists(st.sampled_from(WEIGHTS), min_size=t, max_size=t))
    lam = draw(st.sampled_from([1.0, -1.0, 0.5, -2.0]))
    return shapes, base, vectors, fractions, weights, lam


def as_map(shapes, flat):
    layout = ParameterMap({k: np.zeros(s, F32) for k, s in shapes.items()}).layout
    return ParameterMap.from_flat(layout, flat.copy())


def with_stored_zeros(tv, extra):
    """The adapter of `tv`, also storing the zeros at flat positions `extra`."""
    records = []
    for name, lo in zip(tv.entries.names, tv.entries.layout.offsets):
        arr = tv.entries[name].ravel()
        stored = np.flatnonzero((arr != 0) | extra[lo : lo + arr.size])
        values = arr[stored].copy()
        values.flags.writeable = False
        records.append(AdapterRecord(name, tv.entries[name].shape, encode_gaps(stored),
                                     values))
    return SparseAdapter(tv.base_digest, tuple(records))


def assert_bitwise(merged, want):
    assert merged.flat.view(np.uint32).tolist() == want.view(np.uint32).tolist()


class TestSparseCoreOracle:
    @settings(max_examples=150, deadline=None)
    @given(merge_cases())
    def test_task_vectors_match_dense_reference(self, case):
        shapes, base_flat, vectors, fractions, weights, lam = case
        base = as_map(shapes, base_flat)
        tvs = [TaskVector(as_map(shapes, v), digest(base)) for v in vectors]
        want = reference_merge(base_flat, vectors, fractions, weights, lam, True)
        assert_bitwise(ties_merge(base, tvs, fractions, lam=lam, weights=weights), want)
        for elect in (True, False):
            want = reference_merge(base_flat, vectors, fractions, weights, lam, elect)
            assert_bitwise(_merge(base, tvs, fractions, weights, elect, lam), want)
        ones = [1.0] * len(tvs)
        want = reference_merge(base_flat, vectors, ones, weights, lam, False)
        assert_bitwise(task_arithmetic(base, tvs, weights, lam=lam), want)

    @settings(max_examples=150, deadline=None)
    @given(merge_cases(), st.booleans(), st.data())
    def test_adapters_match_dense_reference(self, case, reverse, data):
        shapes, base_flat, vectors, fractions, weights, lam = case
        base = as_map(shapes, base_flat)
        adapters = []
        for v in vectors:
            extra = np.array(data.draw(st.lists(st.booleans(), min_size=v.size,
                                                max_size=v.size)))
            adapter = with_stored_zeros(TaskVector(as_map(shapes, v), digest(base)), extra)
            if reverse:  # a file may hold its records in any order
                adapter = dataclasses.replace(adapter, records=adapter.records[::-1])
            adapters.append(adapter)
        ones = [1.0] * len(adapters)
        want = reference_merge(base_flat, vectors, ones, ones, lam, True)
        assert_bitwise(merge_lota(base, adapters, lam=lam), want)
        for elect in (True, False):
            want = reference_merge(base_flat, vectors, fractions, weights, lam, elect)
            assert_bitwise(_merge(base, adapters, fractions, weights, elect, lam), want)

    @settings(max_examples=100, deadline=None)
    @given(merge_cases(), st.data())
    def test_mixed_sources_match_dense_reference(self, case, data):
        shapes, base_flat, vectors, fractions, weights, lam = case
        base = as_map(shapes, base_flat)
        sources = []
        for v in vectors:
            tv = TaskVector(as_map(shapes, v), digest(base))
            sources.append(encode(tv) if data.draw(st.booleans()) else tv)
        for elect in (True, False):
            want = reference_merge(base_flat, vectors, fractions, weights, lam, elect)
            assert_bitwise(_merge(base, sources, fractions, weights, elect, lam), want)


@pytest.fixture(scope="class", params=[3, 7])
def small_blocks(request):
    """The merge walk in blocks of 3 or 7 columns, so that the small maps
    here cross block edges, most of them not at a multiple of the block."""
    with mock.patch.object(merging, "_BLOCK", request.param):
        yield request.param


@pytest.mark.usefixtures("small_blocks")
class TestSparseCoreOracleInSmallBlocks(TestSparseCoreOracle):
    pass


# nonzero, of both signs, so that every coordinate a source covers counts
MANY_POOL = [0.3, -0.3, 1.0, -1.0, 3e-8, -3e-8, 0.5, -2.0]


def many_sources(support, count, n, rng):
    """`count` flat task vectors over n coordinates: each dense ("shared"),
    each on a coordinate of its own ("disjoint"), or all one ("identical")."""
    if support == "identical":
        return [rng.choice(MANY_POOL, n).astype(F32)] * count
    vectors = []
    for i in range(count):
        v = rng.choice(MANY_POOL, n).astype(F32)
        if support == "disjoint":
            v[np.arange(n) != i] = 0.0
        vectors.append(v)
    return vectors


class TestManySources:
    """More sources than a one-byte coverage counter can count.

    A counter that wrapped would take a coordinate of 256 sources for one
    that a single source covers, and merge it to that source's value."""

    @pytest.mark.parametrize("support, count", [
        ("shared", 255), ("shared", 256), ("shared", 300), ("disjoint", 300),
        ("identical", 300),
    ])
    def test_matches_dense_reference(self, support, count):
        shapes = {"w": (count,)} if support == "disjoint" else LAYOUTS[1]
        n = sum(math.prod(shape) for shape in shapes.values())
        rng = np.random.default_rng(count)
        base_flat = rng.choice(MANY_POOL, n).astype(F32)
        vectors = many_sources(support, count, n, rng)
        base = as_map(shapes, base_flat)
        tvs = [TaskVector(as_map(shapes, v), digest(base)) for v in vectors]
        adapters = [encode(tv) for tv in tvs]
        ones = [1.0] * count
        want = reference_merge(base_flat, vectors, ones, ones, 1.0, True)
        assert_bitwise(ties_merge(base, tvs, ones), want)
        assert_bitwise(merge_lota(base, adapters), want)
        halves = [0.5] * count
        want = reference_merge(base_flat, vectors, halves, ones, 1.0, True)
        for sources in (tvs, adapters):
            assert_bitwise(ties_merge(base, sources, halves), want)


@pytest.mark.usefixtures("small_blocks")
class TestManySourcesInSmallBlocks(TestManySources):
    pass


# magnitude 0.5 at positions 3-17, larger at 0, 1 and 19, smaller at 2 and 18
TIED = np.array([1.0, -2.0, 0.25] + [0.5, -0.5] * 7 + [0.5, -0.25, 3.0], F32)
# ties at 0.5 again, among zeros of both signs
SIGNED_ZEROS = np.resize(np.array([0.0, -0.5, -0.0, 0.5], F32), 20)
# at trim 0.5 its negative values are trimmed: a -0.0 in its row at each
# odd position, where the base below is -0.0 too
TRIMMED_NEGATIVE = np.resize(np.array([0.3, -1e-30], F32), 20)


@pytest.mark.usefixtures("small_blocks")
class TestBlockEdges:
    """Cuts, zeros and mixed sources at the edges of small blocks."""

    # a fraction of 0.75 keeps the 3 values above 0.5 and the ties at
    # 3-14, so the tie run crosses two edges of 7-column blocks and the
    # cut lands in the last block; 0.01 keeps none (k = 0), 1.0 all
    @pytest.mark.parametrize("fraction", [0.01, 0.75, 1.0])
    @pytest.mark.parametrize("elect", [True, False])
    def test_threshold_ties_across_block_edges(self, fraction, elect):
        rng = np.random.default_rng(0)
        odd = np.arange(20) % 2 == 1
        base_flat = np.where(odd, -0.0, rng.choice(MANY_POOL, 20)).astype(F32)
        base = base_map(base_flat)
        vectors = [TIED, -TIED, SIGNED_ZEROS, TRIMMED_NEGATIVE]
        tvs = [tv_for(base, v) for v in vectors]
        extra = np.arange(20) % 3 == 0  # stored zeros too
        sources = [tvs[0], encode(tvs[1]), with_stored_zeros(tvs[2], extra), tvs[3]]
        fractions = [fraction, fraction, fraction, 0.5]
        weights = [1.0, 0.5, -2.0, -1.0]
        want = reference_merge(base_flat, vectors, fractions, weights, -0.5, elect)
        assert_bitwise(_merge(base, sources, fractions, weights, elect, -0.5), want)
        want = reference_merge(base_flat, vectors, fractions, [1.0] * 4, 1.0, True)
        for each in (tvs, sources):
            assert_bitwise(ties_merge(base, each, fractions), want)


class TestAdapterMergeChecks:
    """Adapters are checked against the base before anything is sized from them."""

    def adapter(self, base_values, forge_dims):
        base = ParameterMap({"a": np.asarray(base_values, F32), "b": np.ones(3, F32)})
        entries = {"a": np.full(len(base_values), 0.5, F32), "b": np.zeros(3, F32)}
        adapter = encode(TaskVector(ParameterMap(entries), digest(base)))
        if forge_dims:
            adapter = dataclasses.replace(adapter, records=tuple(
                dataclasses.replace(r, shape=(2**40,)) if r.name == "b" else r
                for r in adapter.records
            ))
        return base, adapter

    def merges(self, base, adapter):
        return [
            lambda: merge_lota(base, [adapter]),
            lambda: _merge(base, [adapter], [0.5], [0.5], True, 1.0),
            lambda: _merge(base, [adapter], [0.5], [0.5], False, 1.0),
        ]

    @pytest.mark.parametrize("other_base, error", [
        (False, AlignmentError), (True, DigestMismatchError),
    ])
    def test_forged_dims_rejected_without_allocating(self, other_base, error):
        base, adapter = self.adapter([1.0, 2.0], forge_dims=True)
        if other_base:
            base, _ = self.adapter([1.0, 3.0], forge_dims=False)
        for merge in self.merges(base, adapter):
            tracemalloc.start()
            try:
                with pytest.raises(error):
                    merge()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20

    def test_missing_tensor_rejected(self):
        base, adapter = self.adapter([1.0, 2.0], forge_dims=False)
        partial = dataclasses.replace(adapter, records=adapter.records[:1])
        for merge in self.merges(base, partial):
            with pytest.raises(AlignmentError, match="each base tensor once"):
                merge()
