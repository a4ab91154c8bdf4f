import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lota import (
    AlignmentError,
    DigestMismatchError,
    FormatError,
    ParameterMap,
    TaskVector,
    apply_adapter,
    compression_report,
    compute_task_vector,
    decode,
    digest,
    encode,
    load_adapter,
    save_adapter,
    save_checkpoint,
    zeros_like,
)
from lota.adapter import FORMAT, decode_gaps, encode_gaps
from lota.container import build_container


def tv_with_indices(n, indices, values=None, name="w"):
    flat = np.zeros(n, dtype=np.float32)
    values = values if values is not None else np.arange(1, len(indices) + 1)
    flat[np.array(indices, dtype=np.int64)] = np.asarray(values, dtype=np.float32)
    pm = ParameterMap({name: flat})
    return TaskVector(entries=pm, base_digest=digest(zeros_like(pm)))


def tv_of(entries):
    pm = ParameterMap(entries)
    return TaskVector(entries=pm, base_digest=digest(zeros_like(pm)))


def forged_adapter(dims, entries=None, **metadata):
    """Adapter file bytes for one tensor 'w' of `dims`, written by hand.

    With no `entries`, 'w' stores no values (c = 0).
    """
    meta = {"base_digest": "00" * 32, "format": FORMAT, "shapes": {"w": list(dims)}}
    return build_container(entries or {}, {**meta, **metadata})


def old_lta_adapter():
    """An adapter in the pre-container LTA version-2 layout: one 0-d tensor
    'w' that stores the value 1.0 at index 0."""
    record = (
        struct.pack("<H", 1) + b"w" + struct.pack("<BQQ", 0, 1, 1)
        + b"\x00" + np.float32(1.0).tobytes()
    )
    return b"LTA1" + struct.pack("<H", 2) + bytes(32) + struct.pack("<I", 1) + record


def adapter_bytes(adapter, tmp_path):
    path = tmp_path / "bytes.lta"
    save_adapter(adapter, path)
    return path.read_bytes()


def load_bytes(blob, tmp_path):
    path = tmp_path / "forged.lta"
    path.write_bytes(blob)
    return load_adapter(path)


class TestGapCodec:
    def test_worked_example(self):
        # indices [3, 10, 300]: gaps 3, 7, 290 = 255 + 35
        assert encode_gaps(np.array([3, 10, 300])) == bytes([3, 7, 0xFF, 35])

    def test_gap_exactly_255(self):
        assert encode_gaps(np.array([0, 255])) == bytes([0, 0xFF, 0])

    def test_multiple_continuations(self):
        # gap 510 -> 255 + 255 + 0
        assert encode_gaps(np.array([510])) == bytes([0xFF, 0xFF, 0])

    def test_decode_inverse(self):
        for idx in ([0], [254], [255], [256], [3, 10, 300], [0, 255, 510, 1000]):
            arr = np.array(idx, dtype=np.int64)
            out = decode_gaps(encode_gaps(arr), n=2000, c=len(idx))
            np.testing.assert_array_equal(out, arr)

    # the gaps' dtype holds the last index plus the count (4 here), which
    # bounds the stream length: each side of the uint8, uint16 and uint32
    # limits gives the bytes of the int64 formula
    @pytest.mark.parametrize("last", [251, 252, 65_531, 65_532, 2**32 - 5, 2**32 - 4])
    def test_gap_dtype_bounds(self, last):
        idx = np.array([0, 1, 2, last], dtype=np.int64)
        gaps = np.diff(idx, prepend=0)
        want = b"".join(b"\xff" * (g // 255) + bytes([g % 255]) for g in gaps.tolist())
        assert encode_gaps(idx) == want
        np.testing.assert_array_equal(decode_gaps(want, n=last + 1, c=4), idx)

    def test_index_out_of_range(self):
        stream = encode_gaps(np.array([5]))
        with pytest.raises(FormatError, match="out of range"):
            decode_gaps(stream, n=5, c=1)

    def test_dangling_continuation(self):
        with pytest.raises(FormatError, match="dangling"):
            decode_gaps(bytes([3, 0xFF]), n=10, c=1)

    def test_count_mismatch(self):
        with pytest.raises(FormatError):
            decode_gaps(bytes([1, 1]), n=10, c=3)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=5000), min_size=1, max_size=60, unique=True
        )
    )
    def test_round_trip_property(self, raw):
        idx = np.array(sorted(raw), dtype=np.int64)
        out = decode_gaps(encode_gaps(idx), n=5001, c=len(idx))
        np.testing.assert_array_equal(out, idx)

    # byte streams rich in continuations and zero gaps; n and c each near
    # the stream's own last index and count, so both bounds are exercised
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from([0, 1, 254, 255]) | st.integers(0, 255), max_size=40),
        st.integers(-2, 2),
        st.integers(-1, 1),
    )
    def test_decode_matches_per_gap_reference(self, stream, dn, dc):
        stream = bytes(stream)
        n = max(sum(stream) + dn, 0)
        c = max(sum(b != 255 for b in stream) + dc, 0)
        try:
            want = reference_decode_gaps(stream, n, c)
        except FormatError:
            with pytest.raises(FormatError):
                decode_gaps(stream, n, c)
            return
        got = decode_gaps(stream, n, c)
        assert got.dtype == np.int64 and got.tolist() == want


def reference_decode_gaps(stream: bytes, n: int, c: int) -> list[int]:
    """The gap codec's decoder one gap at a time: each 255 adds 255 to the
    gap, and any other byte adds itself and ends the gap."""
    indices, gap = [], 0
    for byte in stream:
        gap += byte
        if byte == 255:
            continue
        if indices and gap == 0:
            raise FormatError("repeated index")
        indices.append(gap + (indices[-1] if indices else 0))
        gap = 0
    if gap:
        raise FormatError("dangling continuation")
    if len(indices) != c:
        raise FormatError("count mismatch")
    if indices and indices[-1] >= n:
        raise FormatError("out of range")
    return indices


TINY32 = float(np.finfo(np.float32).smallest_subnormal)
# signed zeros and subnormals among ordinary values
SUPPORT_POOL = st.sampled_from(
    [0.0, -0.0, TINY32, -TINY32, 1.1754942e-38, -1.1754942e-38, 1.0, -2.5]
) | st.floats(width=32, allow_nan=False, allow_infinity=False)


class TestEncodeDecode:
    def test_all_zero_vector(self):
        tv = tv_with_indices(10, [])
        adapter = encode(tv)
        assert adapter.c_total == 0
        assert adapter.records[0].n == 10

    def test_round_trip_bitwise(self):
        rng = np.random.default_rng(0)
        flat = rng.standard_normal(500).astype(np.float32)
        flat[rng.random(500) < 0.9] = 0.0
        pm = ParameterMap({"a": flat.reshape(25, 20), "b": flat[:100].copy()})
        tv = TaskVector(entries=pm, base_digest=digest(zeros_like(pm)))
        back = decode(encode(tv))
        assert back.base_digest == tv.base_digest
        for name, arr in tv.entries.items():
            assert arr.tobytes() == back.entries[name].tobytes()
            assert arr.shape == back.entries[name].shape

    def test_scalar_keeps_shape(self):
        tv = tv_of({"s": np.array(-1.5, dtype=np.float32)})
        back = decode(encode(tv))
        assert back.entries["s"].shape == ()
        assert back.entries["s"].tobytes() == tv.entries["s"].tobytes()

    def test_empty_record_decodes_to_zeros(self):
        tv = tv_with_indices(7, [])
        back = decode(encode(tv))
        np.testing.assert_array_equal(back.entries["w"], np.zeros(7, np.float32))

    def test_deterministic_bytes(self, tmp_path):
        tv = tv_with_indices(50, [1, 30, 49], [0.5, -0.25, 3.0])
        first = adapter_bytes(encode(tv), tmp_path)
        assert adapter_bytes(encode(tv), tmp_path) == first

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.floats(0.0, 1.0),
    )
    def test_round_trip_random_sparsity(self, seed, density):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 3000))
        flat = np.zeros(n, dtype=np.float32)
        keep = rng.random(n) < density
        flat[keep] = rng.standard_normal(int(keep.sum())).astype(np.float32)
        pm = ParameterMap({"t": flat})
        tv = TaskVector(entries=pm, base_digest=digest(zeros_like(pm)))
        back = decode(encode(tv))
        assert flat.tobytes() == back.entries["t"].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(SUPPORT_POOL, min_size=1, max_size=60), st.data())
    def test_support_is_flatnonzero_and_zeros_read_back_positive(self, values, data):
        # -0.0 is a zero: not stored, and read back as +0.0
        flat = np.array(values, dtype=np.float32)
        cut = data.draw(st.integers(0, flat.size - 1))
        parts = {"a": flat[:cut], "b": flat[cut:]} if cut else {"a": flat}
        tv = tv_of(parts)
        adapter = encode(tv)
        back = decode(adapter)
        for rec in adapter.records:
            arr = tv.entries[rec.name].ravel()
            np.testing.assert_array_equal(rec.indices(), np.flatnonzero(arr))
            assert rec.values.dtype == np.float32
            assert rec.values.tobytes() == arr[np.flatnonzero(arr)].tobytes()
            assert not rec.values.flags.writeable
            want = np.where(arr == 0, np.float32(0.0), arr)  # every zero as +0.0
            assert back.entries[rec.name].ravel().tobytes() == want.tobytes()


GAPS_3_7 = np.array([3, 4], np.uint8)  # indices 3 and 7


class TestAdapterFile:
    def test_file_round_trip(self, tmp_path):
        tv = tv_with_indices(400, [0, 256, 399], [1.0, -2.0, 0.5])
        adapter = encode(tv)
        path = tmp_path / "a.lta"
        save_adapter(adapter, path)
        loaded = load_adapter(path)
        assert adapter_bytes(loaded, tmp_path) == path.read_bytes()
        back = decode(loaded)
        np.testing.assert_array_equal(back.entries["w"], tv.entries["w"])

    def test_file_round_trip_keeps_shapes(self, tmp_path):
        rng = np.random.default_rng(3)
        matrix = rng.standard_normal((5, 4)).astype(np.float32)
        matrix[rng.random((5, 4)) < 0.6] = 0.0
        entries = {
            "scalar": np.array(-1.5, dtype=np.float32),
            "zero_scalar": np.array(0.0, dtype=np.float32),
            "vector": np.array([0, 2, 0, 0, -3, 0, 1], dtype=np.float32),
            "matrix": matrix,
        }
        tv = tv_of(entries)
        path = tmp_path / "shapes.lta"
        save_adapter(encode(tv), path)
        back = decode(load_adapter(path))
        for name, arr in tv.entries.items():
            assert back.entries[name].shape == arr.shape
            assert back.entries[name].dtype == arr.dtype
            assert back.entries[name].tobytes() == arr.tobytes()

    def test_one_typed_entry_pair_per_stored_tensor(self, tmp_path):
        tv = tv_of({"a": np.array([0, 2.5, 0, -1], np.float32),
                    "z": np.zeros((2, 3), np.float32)})
        path = tmp_path / "a.lta"
        save_adapter(encode(tv), path)
        blob = path.read_bytes()
        header = json.loads(blob[8 : 8 + int.from_bytes(blob[:8], "little")])
        meta = header.pop("__metadata__")
        assert meta == {"base_digest": tv.base_digest.hex(), "format": FORMAT,
                        "shapes": {"a": [4], "z": [2, 3]}}
        assert {name: (e["dtype"], e["shape"]) for name, e in header.items()} == {
            "a/gaps": ("U8", [2]), "a/values": ("F32", [2])}

    def test_forged_header_loads(self, tmp_path):
        (rec,) = load_bytes(forged_adapter((2, 3)), tmp_path).records
        assert (rec.shape, rec.n, rec.c) == ((2, 3), 6, 0)

    def test_unknown_format_tag_rejected(self, tmp_path):
        blob = forged_adapter((10,), format="lota-adapter-2")
        with pytest.raises(FormatError, match="unknown format tag 'lota-adapter-2'"):
            load_bytes(blob, tmp_path)

    def test_zero_dim_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="non-positive dimension"):
            load_bytes(forged_adapter((4, 0)), tmp_path)

    def test_dims_product_overflow_rejected(self, tmp_path):
        # 2**62 * 4 = 2**64, which a wrapping int64 product would read as 0
        with pytest.raises(FormatError, match="overflows int64"):
            load_bytes(forged_adapter((2**62, 4)), tmp_path)

    def test_truncated_dims_rejected(self, tmp_path):
        blob = forged_adapter((5, 5))  # no payload: the cut lands in the dims
        with pytest.raises(FormatError, match="truncated"):
            load_bytes(blob[:-3], tmp_path)

    def test_too_many_dims_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="more than"):
            load_bytes(forged_adapter((1,) * 33), tmp_path)

    def test_unallocatable_record_rejected_by_decode(self, tmp_path):
        # 2**62 float32s is 2**64 bytes: numpy refuses without allocating
        adapter = load_bytes(forged_adapter((2**62,)), tmp_path)
        with pytest.raises(FormatError, match="cannot allocate .* for 'w'"):
            decode(adapter)

    def test_not_an_adapter_file_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(ParameterMap({"w": np.ones(3, np.float32)}), path)
        with pytest.raises(FormatError, match="not an adapter file"):
            load_adapter(path)
        with pytest.raises(FormatError, match="truncated"):
            load_bytes(b"NOPE" + bytes(64), tmp_path)

    def test_old_lta_format_named(self, tmp_path):
        with pytest.raises(FormatError, match="old LTA adapter format"):
            load_bytes(old_lta_adapter(), tmp_path)

    @pytest.mark.parametrize("entries, metadata, match", [
        ({"w/gaps": GAPS_3_7}, {}, "do not match"),
        ({"w/values": np.ones(2, np.float32)}, {}, "do not match"),
        ({"w/gaps": GAPS_3_7, "w/values": np.ones(2, np.float32),
          "x/gaps": GAPS_3_7}, {}, "do not match"),
        ({"w/gaps": GAPS_3_7, "w/values": np.ones(2, np.uint8)}, {}, "wrong dtype"),
        ({"w/gaps": GAPS_3_7, "w/values": np.ones((1, 2), np.float32)}, {},
         "wrong dtype or rank"),
        ({"w/gaps": GAPS_3_7, "w/values": np.array([1, np.inf], np.float32)}, {},
         "non-finite"),
        ({"w/gaps": GAPS_3_7, "w/values": np.ones(3, np.float32)}, {},
         "expected 3"),
        ({"w/gaps": np.array([3, 9], np.uint8), "w/values": np.ones(2, np.float32)},
         {}, "out of range"),
        ({}, {"base_digest": "00" * 31}, "base digest"),
        ({}, {"base_digest": "zz" * 32}, "malformed adapter metadata"),
        ({}, {"shapes": [["w", [10]]]}, "malformed adapter metadata"),
        ({}, {"shapes": {"": [10]}}, "empty tensor name"),
        ({}, {"shapes": {"w": [1.5]}}, "non-integer"),
    ], ids=["gaps-only", "values-only", "extra-entry", "u8-values", "2d-values",
            "inf-value", "count-mismatch", "index-range", "short-digest",
            "hex-digest", "shapes-list", "empty-name", "float-dim"])
    def test_forged_entries_rejected(self, tmp_path, entries, metadata, match):
        with pytest.raises(FormatError, match=match):
            load_bytes(forged_adapter((10,), entries, **metadata), tmp_path)

    def test_truncated(self, tmp_path):
        blob = adapter_bytes(encode(tv_with_indices(50, [3, 7])), tmp_path)
        with pytest.raises(FormatError, match="truncated"):
            load_bytes(blob[:-3], tmp_path)

    def test_trailing_bytes(self, tmp_path):
        blob = adapter_bytes(encode(tv_with_indices(50, [3, 7])), tmp_path)
        with pytest.raises(FormatError, match="trailing"):
            load_bytes(blob + b"x", tmp_path)


class TestApplyAdapter:
    def base(self, seed=0, n=60):
        rng = np.random.default_rng(seed)
        return ParameterMap({"w": rng.standard_normal(n).astype(np.float32)})

    def test_apply_then_diff_recovers(self):
        # dyadic values keep float32 addition exact, so the inverse pair
        # round-trips bitwise; untouched positions recover exact zeros
        rng = np.random.default_rng(1)
        base_flat = (rng.integers(-512, 512, size=60) / 256.0).astype(np.float32)
        w_p = ParameterMap({"w": base_flat})
        delta = np.where(
            rng.random(60) < 0.2, rng.integers(1, 64, size=60) / 256.0, 0.0
        ).astype(np.float32)
        tv = TaskVector(entries=ParameterMap({"w": delta}), base_digest=digest(w_p))
        adapter = encode(tv)
        recovered = compute_task_vector(apply_adapter(w_p, adapter), w_p)
        np.testing.assert_array_equal(
            recovered.entries["w"], decode(adapter).entries["w"]
        )

    def test_untouched_positions_stay_bitwise(self):
        w_p = self.base()
        rng = np.random.default_rng(1)
        flat = np.where(
            rng.random(60) < 0.2, rng.standard_normal(60), 0.0
        ).astype(np.float32)
        tv = TaskVector(entries=ParameterMap({"w": flat}), base_digest=digest(w_p))
        w_new = apply_adapter(w_p, encode(tv))
        untouched = flat == 0.0
        np.testing.assert_array_equal(
            w_new["w"][untouched], w_p["w"][untouched]
        )

    def test_empty_adapter_is_identity(self):
        w_p = self.base(2)
        tv = TaskVector(
            entries=ParameterMap({"w": np.zeros(60, np.float32)}),
            base_digest=digest(w_p),
        )
        out = apply_adapter(w_p, encode(tv))
        assert out["w"].tobytes() == w_p["w"].tobytes()

    def test_digest_mismatch(self):
        w_p, other = self.base(3), self.base(4)
        tv = TaskVector(
            entries=ParameterMap({"w": np.zeros(60, np.float32)}),
            base_digest=digest(w_p),
        )
        adapter = encode(tv)
        with pytest.raises(DigestMismatchError):
            apply_adapter(other, adapter)
        out = apply_adapter(other, adapter, check_digest=False)
        assert out["w"].tobytes() == other["w"].tobytes()

    def test_size_mismatch(self):
        w_p = self.base(5)
        small = ParameterMap({"w": np.ones(10, np.float32)})
        tv = TaskVector(entries=small, base_digest=digest(w_p))
        with pytest.raises(AlignmentError):
            apply_adapter(w_p, encode(tv), check_digest=False)


    def test_loaded_adapter_rejects_reshaped_base(self, tmp_path):
        # same name and size as the adapter's tensor, different shape
        w_p = ParameterMap({"w": np.ones((6, 4), np.float32)})
        delta = np.zeros((4, 6), np.float32)
        delta[1, 2] = 0.5
        tv = TaskVector(entries=ParameterMap({"w": delta}), base_digest=digest(w_p))
        path = tmp_path / "w.lta"
        save_adapter(encode(tv), path)
        with pytest.raises(AlignmentError, match="shape mismatch"):
            apply_adapter(w_p, load_adapter(path))


# bounded so that w_f - w_p cannot overflow float32
FINITE32 = st.floats(-(2.0**100), 2.0**100, width=32)


class TestRoundTripFidelity:
    """`apply_adapter(w_p, encode(compute_task_vector(w_f, w_p)))` rounds
    twice in float32, so it restores w_f to within one spacing of the
    larger magnitude, not bitwise."""

    @staticmethod
    def round_trip(w_p, w_f):
        w_p = ParameterMap({"w": np.array(w_p, np.float32)})
        w_f = ParameterMap({"w": np.array(w_f, np.float32)})
        restored = apply_adapter(w_p, encode(compute_task_vector(w_f, w_p)))
        return w_p.flat, w_f.flat, restored.flat

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(FINITE32, FINITE32), min_size=1, max_size=64))
    def test_within_one_spacing_of_the_larger_magnitude(self, pairs):
        w_p, w_f, restored = self.round_trip(*zip(*pairs))
        bound = np.spacing(np.maximum(np.abs(w_p), np.abs(w_f)))
        assert (np.abs(restored - w_f.astype(np.float64)) <= bound).all()

    def test_not_bitwise(self):
        # 1e-8 - 1 rounds to -1, so the replayed weight is 0, not 1e-8
        _, w_f, restored = self.round_trip([1.0], [1e-8])
        assert restored.tolist() == [0.0] and w_f[0] != 0.0


class TestCompressionReport:
    def make_adapter(self, n, c, seed=0):
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(n, size=c, replace=False)) if c else []
        tv = tv_with_indices(n, idx, rng.standard_normal(c) + 2.0 if c else None)
        return encode(tv)

    def test_ratio_80x_at_99_percent(self):
        report = compression_report(self.make_adapter(1000, 10))
        assert report.ideal_ratio == 80.0

    def test_ratio_8x_at_90_percent(self):
        report = compression_report(self.make_adapter(1000, 100))
        assert report.ideal_ratio == 8.0

    def test_dense_adapter_is_larger_than_dense_storage(self):
        report = compression_report(self.make_adapter(1000, 1000))
        assert report.ideal_ratio == 0.8

    def test_empty_adapter_reports_infinity(self):
        report = compression_report(self.make_adapter(1000, 0))
        assert math.isinf(report.ideal_ratio)
        assert report.measured_ratio > 0

    def test_measured_below_ideal(self):
        for c in (10, 100, 500):
            report = compression_report(self.make_adapter(2000, c, seed=c))
            assert report.measured_ratio <= report.ideal_ratio

    def test_measured_close_to_ideal_at_scale(self):
        report = compression_report(self.make_adapter(1_000_000, 100_000, seed=1))
        assert report.measured_ratio >= 0.95 * report.ideal_ratio

    def test_bits_accounting(self, tmp_path):
        adapter = self.make_adapter(1000, 100, seed=2)
        report = compression_report(adapter)
        total_bits = 8 * len(adapter_bytes(adapter, tmp_path))
        assert report.payload_bits + report.overhead_bits == total_bits
