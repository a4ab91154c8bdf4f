import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lota import (
    AlignmentError,
    FormatError,
    NonFiniteError,
    ParameterMap,
    compute_task_vector,
    digest,
    encode,
    linear_combine,
    load_checkpoint,
    random_mask,
    save_adapter,
    save_checkpoint,
    save_mask,
)
from lota.params import serialize_checkpoint


def small_map(seed=0):
    rng = np.random.default_rng(seed)
    return ParameterMap(
        {
            "layer0.weight": rng.standard_normal((3, 4)).astype(np.float32),
            "layer0.bias": rng.standard_normal(4).astype(np.float32),
        }
    )


# -- hypothesis strategy for randomized maps -------------------------------

names_st = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12
)
finite_f32 = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=32
)


@st.composite
def parameter_maps(draw):
    n_tensors = draw(st.integers(min_value=0, max_value=4))
    entries = {}
    for name in draw(
        st.lists(names_st, min_size=n_tensors, max_size=n_tensors, unique=True)
    ):
        shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
        count = int(np.prod(shape))
        values = draw(
            st.lists(finite_f32, min_size=count, max_size=count).map(
                lambda v: np.array(v, dtype=np.float32)
            )
        )
        entries[name] = values.reshape(shape)
    return ParameterMap(entries) if entries else None


class TestParameterMap:
    def test_lexicographic_iteration(self):
        pm = ParameterMap(
            {"b": np.ones(1, np.float32), "a": np.ones(1, np.float32)}
        )
        assert pm.names == ("a", "b")

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            ParameterMap({"w": np.array([1.0, np.nan], dtype=np.float32)})

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            ParameterMap({"": np.ones(1, np.float32)})

    def test_immutable(self):
        pm = small_map()
        with pytest.raises(ValueError):
            pm["layer0.bias"][0] = 1.0


class TestCheckpointRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        pm = small_map()
        path = tmp_path / "a.ckpt"
        save_checkpoint(pm, path)
        loaded = load_checkpoint(path)
        assert loaded == pm

    def test_save_deterministic(self, tmp_path):
        pm = small_map()
        save_checkpoint(pm, tmp_path / "a")
        save_checkpoint(pm, tmp_path / "b")
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_one_element_change_touches_payload_only(self, tmp_path):
        pm = small_map()
        entries = pm.to_dict()
        entries["layer0.bias"][1] += 0.5
        other = ParameterMap(entries)
        blob_a = serialize_checkpoint(pm)
        blob_b = serialize_checkpoint(other)
        (header_len,) = struct.unpack("<Q", blob_a[:8])
        assert blob_a[: 8 + header_len] == blob_b[: 8 + header_len]
        assert blob_a[8 + header_len :] != blob_b[8 + header_len :]

    def test_header_lists_names_in_order(self):
        pm = ParameterMap(
            {"b": np.ones(1, np.float32), "a": np.ones(2, np.float32)}
        )
        blob = serialize_checkpoint(pm)
        (header_len,) = struct.unpack("<Q", blob[:8])
        header = blob[8 : 8 + header_len].decode()
        assert header.index('"a"') < header.index('"b"')
        meta = json.loads(header)
        assert meta["a"]["data_offsets"] == [0, 8]
        assert meta["b"]["data_offsets"] == [8, 12]

    def test_scalar_keeps_shape(self, tmp_path):
        pm = ParameterMap({"s": np.array(2.5, dtype=np.float32)})
        assert pm["s"].shape == ()
        path = tmp_path / "scalar.ckpt"
        save_checkpoint(pm, path)
        loaded = load_checkpoint(path)
        assert loaded["s"].shape == ()
        assert loaded["s"].tobytes() == pm["s"].tobytes()

    def test_empty_map_round_trips(self, tmp_path):
        pm = ParameterMap({})
        path = tmp_path / "empty.ckpt"
        save_checkpoint(pm, path)
        assert len(load_checkpoint(path)) == 0

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(struct.pack("<Q", 10_000) + b"{}")
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        blob = serialize_checkpoint(small_map())
        path = tmp_path / "bad.ckpt"
        path.write_bytes(blob[:-4])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_duplicate_names_rejected(self, tmp_path):
        header = b'{"a":{"data_offsets":[0,4],"dtype":"F32","shape":[1]},"a":{"data_offsets":[4,8],"dtype":"F32","shape":[1]}}'
        payload = np.zeros(2, dtype="<f4").tobytes()
        path = tmp_path / "dup.ckpt"
        path.write_bytes(struct.pack("<Q", len(header)) + header + payload)
        with pytest.raises(FormatError, match="duplicate"):
            load_checkpoint(path)

    def test_non_finite_values_rejected(self, tmp_path):
        header = b'{"a":{"data_offsets":[0,4],"dtype":"F32","shape":[1]}}'
        payload = np.array([np.inf], dtype="<f4").tobytes()
        path = tmp_path / "inf.ckpt"
        path.write_bytes(struct.pack("<Q", len(header)) + header + payload)
        with pytest.raises(NonFiniteError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "shape, payload_floats",
        [([2**32, 2**32], 0), ([2**70], 1), ([2**31, 2**31, 4], 0)],
    )
    def test_forged_shape_product_rejected(self, tmp_path, shape, payload_floats):
        # the first and last products wrap to 0 in int64; 2**70 overflows it
        entry = {"data_offsets": [0, 4 * payload_floats], "dtype": "F32",
                 "shape": shape}
        header = json.dumps({"a": entry}).encode()
        payload = np.zeros(payload_floats, dtype="<f4").tobytes()
        path = tmp_path / "forged.ckpt"
        path.write_bytes(struct.pack("<Q", len(header)) + header + payload)
        with pytest.raises(FormatError, match="larger than the payload"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "offsets, shape", [([0.0, 4.0], [1]), ([0, 4], [1.5]), ([0, 4], [True])]
    )
    def test_non_integer_header_fields_rejected(self, tmp_path, offsets, shape):
        entry = {"data_offsets": offsets, "dtype": "F32", "shape": shape}
        header = json.dumps({"a": entry}).encode()
        path = tmp_path / "forged.ckpt"
        path.write_bytes(struct.pack("<Q", len(header)) + header + bytes(4))
        with pytest.raises(FormatError, match="non-integer"):
            load_checkpoint(path)

    @settings(max_examples=120, deadline=None)
    @given(parameter_maps())
    def test_round_trip_property(self, tmp_path_factory, pm):
        if pm is None:
            pm = ParameterMap({})
        tmp = tmp_path_factory.mktemp("rt") / "m.ckpt"
        save_checkpoint(pm, tmp)
        loaded = load_checkpoint(tmp)
        assert loaded.names == pm.names
        for name, arr in pm.items():
            assert arr.tobytes() == loaded[name].tobytes()
            assert arr.shape == loaded[name].shape


SAVERS = {
    "checkpoint": lambda path, seed: save_checkpoint(small_map(seed), path),
    "adapter": lambda path, seed: save_adapter(
        encode(compute_task_vector(small_map(seed), small_map())), path
    ),
    "mask": lambda path, seed: save_mask(random_mask(small_map(), 0.5, seed), path),
}


def directory_bytes(path):
    return {p.name: p.read_bytes() for p in path.iterdir()}


class TestAtomicSave:
    @pytest.mark.parametrize("kind", sorted(SAVERS))
    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch, kind):
        path = tmp_path / "artifact"
        SAVERS[kind](path, 1)
        before = directory_bytes(tmp_path)

        def fail(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            SAVERS[kind](path, 2)
        assert directory_bytes(tmp_path) == before  # no temp file either

    def test_mask_sidecar_failure_keeps_container(self, tmp_path):
        path = tmp_path / "mask.bin"
        save_mask(random_mask(small_map(), 0.5, 1), path)
        before = directory_bytes(tmp_path)
        with pytest.raises(TypeError):  # the seed is not JSON-serializable
            save_mask(random_mask(small_map(), 0.5, 2), path, seed=object())
        assert directory_bytes(tmp_path) == before

    def test_overwrite_replaces_content(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(small_map(1), path)
        save_checkpoint(small_map(2), path)
        assert load_checkpoint(path) == small_map(2)
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


class TestDigest:
    def test_identical_maps_same_digest(self):
        assert digest(small_map(1)) == digest(small_map(1))

    def test_sign_bit_flip_changes_digest(self):
        pm = small_map()
        entries = pm.to_dict()
        entries["layer0.weight"][0, 0] = -entries["layer0.weight"][0, 0]
        assert digest(pm) != digest(ParameterMap(entries))

    def test_scalar_and_one_element_vector_differ(self):
        scalar = ParameterMap({"s": np.array(1.0, dtype=np.float32)})
        vector = ParameterMap({"s": np.ones(1, np.float32)})
        assert digest(scalar) != digest(vector)

    def test_rename_changes_digest(self):
        pm = small_map()
        renamed = {("x" if n == "layer0.bias" else n): a for n, a in pm.items()}
        assert digest(pm) != digest(ParameterMap(renamed))


class TestLinearCombine:
    def reference(self, coeffs, maps):
        # independent per-element loop oracle
        out = {}
        for name in maps[0].names:
            shape = maps[0][name].shape
            acc = np.zeros(shape, dtype=np.float32)
            flat = acc.reshape(-1)
            for i in range(flat.size):
                val = np.float32(0.0)
                for c, pm in zip(coeffs, maps):
                    val = np.float32(val + np.float32(c) * pm[name].reshape(-1)[i])
                flat[i] = val
            out[name] = acc
        return out

    def test_identity(self):
        a, b = small_map(1), small_map(2)
        out = linear_combine([1.0, 0.0], [a, b])
        assert out == a

    def test_idempotent_average(self):
        a = small_map(3)
        assert linear_combine([0.5, 0.5], [a, a]) == a

    def test_self_cancel(self):
        a = small_map(4)
        out = linear_combine([1.0, -1.0], [a, a])
        assert all(np.all(arr == 0.0) for _, arr in out.items())

    def test_misalignment_rejected(self):
        a = small_map()
        b = ParameterMap({"other": np.ones(2, np.float32)})
        with pytest.raises(AlignmentError):
            linear_combine([1.0, 1.0], [a, b])

    @pytest.mark.parametrize("seed", range(5))
    def test_against_element_loop(self, seed):
        rng = np.random.default_rng(seed)
        maps = [small_map(seed * 10 + i) for i in range(3)]
        coeffs = [float(rng.choice([-1.0, 0.0, 0.5, 1.0])) for _ in range(3)]
        expected = self.reference(coeffs, maps)
        got = linear_combine(coeffs, maps)
        for name, arr in expected.items():
            np.testing.assert_array_equal(got[name], arr)
