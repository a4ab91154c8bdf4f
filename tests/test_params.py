import json
import os
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lota import (
    AlignmentError,
    FormatError,
    NonFiniteError,
    ParameterMap,
    SparsityMask,
    compute_task_vector,
    digest,
    encode,
    load_adapter,
    load_checkpoint,
    random_mask,
    save_adapter,
    save_checkpoint,
    save_mask,
)
from lota.adapter import FORMAT as ADAPTER_FORMAT
from lota.container import container_parts
from lota.params import Layout, declared_layout, serialize_checkpoint, tagged_metadata
from lota.sparsity import MASK_FORMAT, load_mask


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
        with pytest.raises(ValueError):
            SparsityMask({"": np.ones(1, bool)}, declared_sparsity=0.0)

    def test_rejects_zero_size_tensor(self):
        with pytest.raises(ValueError, match="empty tensor"):
            ParameterMap({"w": np.ones(1, np.float32), "z": np.ones((2, 0))})
        with pytest.raises(ValueError, match="empty tensor"):
            SparsityMask(
                {"w": np.ones(1, bool), "z": np.ones((0,), bool)},
                declared_sparsity=0.0,
            )

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

    @pytest.mark.parametrize("save", [
        lambda entries, path: save_checkpoint(ParameterMap(entries), path),
        lambda entries, path: save_mask(SparsityMask(
            {n: a != 0 for n, a in entries.items()}, 0.0), path),
    ], ids=["checkpoint", "mask"])
    def test_reserved_name_refused_before_writing(self, tmp_path, save):
        entries = {"__metadata__": np.ones(2, np.float32), "w": np.ones(3, np.float32)}
        with pytest.raises(ValueError, match="'__metadata__' is a reserved name"):
            save(entries, tmp_path / "m")
        assert list(tmp_path.iterdir()) == []

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

    def test_deeply_nested_header_rejected(self, tmp_path):
        header = b"[" * 100_000
        path = tmp_path / "deep.ckpt"
        path.write_bytes(struct.pack("<Q", len(header)) + header)
        with pytest.raises(FormatError, match="malformed header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("header, match", [
        ([], "not a JSON object"),
        ({"__metadata__": [1]}, "__metadata__ is not a JSON object"),
        ({"": {"data_offsets": [0, 4], "dtype": "F32", "shape": [1]}}, "empty tensor name"),
    ], ids=["list", "metadata-list", "empty-name"])
    def test_malformed_header_rejected(self, tmp_path, header, match):
        raw = json.dumps(header).encode()
        path = tmp_path / "bad.ckpt"
        path.write_bytes(struct.pack("<Q", len(raw)) + raw + bytes(4))
        with pytest.raises(FormatError, match=f"malformed header: {match}"):
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

    def test_checkpoint_refuses_u8_entries(self, tmp_path):
        path = tmp_path / "m.mask"
        save_mask(random_mask(small_map(), 0.5, 1), path)
        with pytest.raises(FormatError, match="dtype mismatch .* expected F32, got U8"):
            load_checkpoint(path)

    @settings(max_examples=120, deadline=None)
    @given(parameter_maps())
    def test_round_trip_property(self, tmp_path_factory, pm):
        if pm is None:
            pm = ParameterMap({})
        tmp = tmp_path_factory.mktemp("rt") / "m.ckpt"
        if "__metadata__" in pm.names:  # the container's reserved name
            with pytest.raises(ValueError, match="reserved"):
                save_checkpoint(pm, tmp)
            assert not tmp.exists()
            return
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


# -- the layout contract: one flat buffer in sorted-name, row-major order --


@st.composite
def named_arrays(draw, dtype):
    # not the container's reserved name, which no map can be saved under
    tensor_names = names_st.filter(lambda name: name != "__metadata__")
    names = draw(st.lists(tensor_names, min_size=1, max_size=4, unique=True))
    entries = {}
    for name in names:
        shape = tuple(draw(st.lists(st.integers(1, 4), max_size=3)))  # 0-d too
        count = int(np.prod(shape))
        if dtype is bool:
            values = draw(st.lists(st.booleans(), min_size=count, max_size=count))
        else:
            values = draw(st.lists(finite_f32, min_size=count, max_size=count))
        entries[name] = np.array(values, dtype=dtype).reshape(shape)
    return entries


def build(entries):
    if next(iter(entries.values())).dtype == np.bool_:
        kept = sum(int(a.sum()) for a in entries.values())
        total = sum(a.size for a in entries.values())
        return SparsityMask(entries, declared_sparsity=1.0 - kept / total)
    return ParameterMap(entries)


def stored_payload(m, tmp_dir):
    """The payload region of the map's container file: a checkpoint's
    float32 buffer, or a mask's bits packed."""
    path = Path(tmp_dir) / "m.bin"
    if isinstance(m, SparsityMask):
        save_mask(m, path)
    else:
        save_checkpoint(m, path)
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<Q", blob[:8])
    return blob[8 + header_len :]


class TestLayoutContract:
    @given(st.one_of(named_arrays(np.float32), named_arrays(bool)))
    @settings(max_examples=60)
    def test_flat_views_and_container_share_one_order(self, entries):
        m = build(entries)
        names = sorted(entries)
        assert m.names == m.layout.names == tuple(names)
        expected = np.concatenate([entries[n].ravel() for n in names])
        assert m.flat.dtype == expected.dtype
        assert m.flat.tobytes() == expected.tobytes()
        for name in names:
            view = m[name]
            assert view.shape == entries[name].shape
            assert not view.flags.writeable
            assert np.shares_memory(view, m.flat)
        again = type(m).from_flat(m.layout, m.flat.copy())
        assert again == m and again.layout is m.layout
        with tempfile.TemporaryDirectory() as tmp_dir:
            stored = np.packbits(m.flat) if isinstance(m, SparsityMask) else m.flat
            assert stored_payload(m, tmp_dir) == stored.tobytes()
            path = Path(tmp_dir) / "m.bin"
            loaded = load_mask(path) if isinstance(m, SparsityMask) else (
                load_checkpoint(path))
            assert loaded == m

    def test_require_aligned_names_the_first_difference_in_name_order(self):
        ab = Layout({"a": (2,), "b": (3,)})
        ab.require_aligned(Layout({"b": (3,), "a": (2,)}))
        with pytest.raises(AlignmentError,
                           match=r"^masks are not aligned at 'b': \(3,\) against \(1, 3\)$"):
            ab.require_aligned(Layout({"a": (2,), "b": (1, 3)}), "masks")
        with pytest.raises(AlignmentError, match=r"at 'a': missing against \(2,\)$"):
            Layout({"b": (3,), "c": ()}).require_aligned(ab)
        with pytest.raises(AlignmentError, match=r"at 'a': \(2,\) against \(\)$"):
            ab.require_aligned(Layout({"a": (), "c": (3,)}))

    def test_from_flat_rejects_a_buffer_that_does_not_fit(self):
        pm = small_map()
        with pytest.raises(ValueError, match="does not fit"):
            ParameterMap.from_flat(pm.layout, np.zeros(pm.total_elements + 1, np.float32))
        with pytest.raises(ValueError, match="does not fit"):
            ParameterMap.from_flat(pm.layout, pm.flat.astype(np.float64))

    def test_from_flat_rejects_non_finite(self):
        pm = small_map()
        flat = pm.flat.copy()
        flat[-1] = np.inf
        with pytest.raises(NonFiniteError, match="layer0.weight"):
            ParameterMap.from_flat(pm.layout, flat)


def forged_declaration(path, load, **forged):
    """A file that `load` (load_adapter or load_mask) reads, whose metadata
    declares one tensor 'w' of 10 elements, then has the keys of `forged`."""
    tag, entries, extra = {
        load_adapter: (ADAPTER_FORMAT, {}, {"base_digest": "00" * 32}),
        load_mask: (MASK_FORMAT, {"bits": np.zeros(2, np.uint8)}, {}),
    }[load]
    meta = {**tagged_metadata(tag, Layout({"w": (10,)}), **extra), **forged}
    path.write_bytes(b"".join(container_parts(entries, meta)))
    Path(f"{path}.json").write_text('{"declared_sparsity": 1.0}')
    return path


class TestTensorDeclaration:
    """An adapter and a mask file declare their tensors the one way, and
    refuse a forged declaration alike, before anything is sized from it."""

    @pytest.mark.parametrize("meta, match", [
        ({"shapes": [["w", [10]]]}, "shapes is not an object"),
        ({"shapes": {"": [10]}}, "empty tensor name"),
        ({"shapes": {"w": [1.5]}}, "non-integer shape"),
        ({"shapes": {"w": [4, 0]}}, "non-positive dimension"),
        ({"shapes": {"w": [1] * 33}}, "33 dims, more than 32"),
        ({"shapes": {"a": [2**62], "b": [2**62]}}, "9223372036854775808 elements"),
        ({"format": "lota-other-1"}, "unknown format tag 'lota-other-1'"),
    ], ids=["list", "empty-name", "float-dim", "zero-dim", "33-dims", "past-int64",
            "wrong-tag"])
    @pytest.mark.parametrize("load", [load_adapter, load_mask], ids=["adapter", "mask"])
    def test_forged_declaration_refused(self, tmp_path, load, meta, match):
        path = forged_declaration(tmp_path / "forged", load, **meta)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=match):
                load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("load", [load_adapter, load_mask], ids=["adapter", "mask"])
    def test_declaration_as_written_is_read(self, tmp_path, load):
        assert load(forged_declaration(tmp_path / "f", load)).layout == Layout({"w": (10,)})

    def test_written_declaration_reads_back_as_its_layout(self):
        layout = Layout({"b": (2, 3), "a": (), "c": (1,) * 32})
        meta = tagged_metadata("lota-x-1", layout, base_digest="ab")
        assert meta == {"base_digest": "ab", "format": "lota-x-1",
                        "shapes": {"a": [], "b": [2, 3], "c": [1] * 32}}
        assert declared_layout(json.loads(json.dumps(meta)), "lota-x-1", "x") == layout

    @pytest.mark.parametrize("meta", [None, {}, {"format": None}])
    def test_untagged_metadata_names_the_artifact(self, meta):
        with pytest.raises(FormatError, match="^not an adapter file: unknown format tag None$"):
            declared_layout(meta, ADAPTER_FORMAT, "adapter")
        with pytest.raises(FormatError, match="^not a mask file"):
            declared_layout(meta, MASK_FORMAT, "mask")
