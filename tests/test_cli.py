import dataclasses
import errno
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lota import (
    ParameterMap,
    SparsityMask,
    load_adapter,
    load_checkpoint,
    save_adapter,
    save_checkpoint,
    save_mask,
)
from lota import container
from lota.cli import dispatch, _experiment_spec_from_config
from lota.harness import EXPERIMENT_KINDS
from test_adapter import forged_adapter, old_lta_adapter


@pytest.fixture
def base_ckpt(tmp_path):
    rng = np.random.default_rng(0)
    pm = ParameterMap(
        {
            "layer0.weight": rng.standard_normal((6, 4)).astype(np.float32),
            "layer0.bias": rng.standard_normal(4).astype(np.float32),
        }
    )
    path = tmp_path / "base.ckpt"
    save_checkpoint(pm, path)
    return pm, path


def tweaked(pm, scale=0.1, seed=1):
    rng = np.random.default_rng(seed)
    entries = pm.to_dict()
    for name in entries:
        bump = rng.random(entries[name].shape) < 0.3
        entries[name] += scale * bump.astype(np.float32)
    return ParameterMap(entries)


def train_config(tmp_path, **overrides):
    config = {
        "model": {"widths": [6, 16, 3]},
        "init_seed": 3,
        "task": {
            "generator": "gaussian-cluster-classification",
            "input_dim": 6,
            "output_dim": 3,
            "train_size": 128,
            "test_size": 64,
            "noise": 0.4,
            "seed": 5,
            "params": {"separation": 2.0},
        },
        "train": {
            "learning_rate": 0.01,
            "batch_size": 32,
            "epochs": 3,
            "calibration_epochs": 1,
            "seed": 9,
        },
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestDiffApply:
    def test_diff_self_gives_empty_adapter(self, base_ckpt, tmp_path):
        _, path = base_ckpt
        out = tmp_path / "out"
        assert dispatch(["diff", str(path), str(path), "--out", str(out)]) == 0
        adapter = load_adapter(out / "adapter.lta")
        assert adapter.c_total == 0
        assert (out / "provenance.json").exists()

    def test_diff_then_apply_round_trip(self, base_ckpt, tmp_path):
        pm, path = base_ckpt
        finetuned = tweaked(pm)
        ft_path = tmp_path / "ft.ckpt"
        save_checkpoint(finetuned, ft_path)
        out1 = tmp_path / "diffout"
        assert dispatch(["diff", str(path), str(ft_path), "--out", str(out1)]) == 0
        out2 = tmp_path / "applyout"
        assert dispatch(
            ["apply", "--base", str(path), "--adapter",
             str(out1 / "adapter.lta"), "--out", str(out2)]
        ) == 0
        result = load_checkpoint(out2 / "model.ckpt")
        assert result == finetuned

    def test_apply_wrong_base_exits_2(self, base_ckpt, tmp_path, capsys):
        pm, path = base_ckpt
        other = tweaked(pm, seed=9)
        other_path = tmp_path / "other.ckpt"
        save_checkpoint(other, other_path)
        ft_path = tmp_path / "ft.ckpt"
        save_checkpoint(tweaked(pm), ft_path)
        out1 = tmp_path / "diffout"
        dispatch(["diff", str(path), str(ft_path), "--out", str(out1)])
        code = dispatch(
            ["apply", "--base", str(other_path), "--adapter",
             str(out1 / "adapter.lta"), "--out", str(tmp_path / "x")]
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "DigestMismatchError"

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = dispatch(
            ["diff", str(tmp_path / "absent.ckpt"), str(tmp_path / "b.ckpt"),
             "--out", str(tmp_path / "o")]
        )
        assert code == 1

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["diff"])  # missing positionals
        assert exc.value.code == 1


class TestCodecCommands:
    def test_encode_decode_cycle(self, base_ckpt, tmp_path):
        pm, path = base_ckpt
        delta_entries = {
            n: np.where(
                np.random.default_rng(2).random(a.shape) < 0.4, 0.25, 0.0
            ).astype(np.float32)
            for n, a in pm.items()
        }
        delta_path = tmp_path / "delta.ckpt"
        save_checkpoint(ParameterMap(delta_entries), delta_path)
        out1 = tmp_path / "enc"
        assert dispatch(
            ["encode", "--base", str(path), "--delta", str(delta_path),
             "--out", str(out1)]
        ) == 0
        out2 = tmp_path / "dec"
        assert dispatch(
            ["decode", "--adapter", str(out1 / "adapter.lta"), "--out", str(out2)]
        ) == 0
        recovered = load_checkpoint(out2 / "delta.ckpt")
        for name, arr in delta_entries.items():
            np.testing.assert_array_equal(recovered[name], arr)

    @pytest.mark.parametrize("command", ["decode", "sparsify"])
    def test_unallocatable_record_exits_2(self, command, tmp_path, capsys):
        path = tmp_path / "forged.lta"
        path.write_bytes(forged_adapter((2**62,)))
        extra = ["--sparsity", "0.5"] if command == "sparsify" else []
        code = dispatch(
            [command, "--adapter", str(path), "--out", str(tmp_path / "o"), *extra]
        )
        assert code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "FormatError"
        assert "'w'" in error["message"]

    def test_inspect_reports_80x(self, tmp_path, capsys):
        n = 1_000_000
        flat = np.zeros(n, dtype=np.float32)
        idx = np.random.default_rng(0).choice(n, size=n // 100, replace=False)
        flat[idx] = 1.5
        pm = ParameterMap({"w": flat})
        zero = ParameterMap({"w": np.zeros(n, np.float32)})
        save_checkpoint(zero, tmp_path / "zero.ckpt")
        save_checkpoint(pm, tmp_path / "delta.ckpt")
        out = tmp_path / "enc"
        dispatch(["encode", "--base", str(tmp_path / "zero.ckpt"),
                  "--delta", str(tmp_path / "delta.ckpt"), "--out", str(out)])
        capsys.readouterr()
        assert dispatch(["inspect", "--adapter", str(out / "adapter.lta")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["compression"]["ideal_ratio"] == 80.0
        assert payload["c_total"] == n // 100

    def test_inspect_bad_mask_sidecar_exits_2(self, tmp_path, capsys):
        path = tmp_path / "m.bin"
        mask = SparsityMask({"w": np.array([True, False, False, False])}, 0.75)
        save_mask(mask, path)
        (tmp_path / "m.bin.json").write_text('{"declared_sparsity": 0.25}')
        assert dispatch(["inspect", "--mask", str(path)]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "FormatError"
        assert "inconsistent" in error["message"]

    def test_inspect_old_lta_adapter_exits_2(self, tmp_path, capsys):
        path = tmp_path / "old.lta"
        path.write_bytes(old_lta_adapter())
        assert dispatch(["inspect", "--adapter", str(path)]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "FormatError"
        assert "old LTA adapter format" in error["message"]

    def test_inspect_requires_one_target(self, capsys):
        assert dispatch(["inspect"]) == 1


def lotto_task(seed, output_dim=3):
    return {
        "generator": "gaussian-cluster-classification",
        "input_dim": 6, "output_dim": output_dim, "train_size": 96,
        "test_size": 32, "noise": 0.4, "seed": seed,
        "params": {"separation": 2.0},
    }


def lotto_config(tmp_path, **overrides):
    config = {
        "model": {"widths": [6, 16, 3]},
        "init_seed": 1,
        "tasks": [lotto_task(3), lotto_task(4)],
        "train": {"learning_rate": 0.01, "batch_size": 32, "epochs": 2,
                  "calibration_epochs": 1, "seed": 8},
        "sparsity": 0.9,
    }
    config.update(overrides)
    path = tmp_path / "lotto.json"
    path.write_text(json.dumps(config))
    return path


def config_error(capsys, argv) -> str:
    """Run `lota argv`: exit 1, a ConfigError on stderr; returns its message."""
    assert dispatch(argv) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ConfigError"
    return error["message"]


class TestTrainingCommands:
    def test_lota_idempotent_artifacts(self, tmp_path):
        config = train_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert dispatch(["lota", "--config", str(config), "--out", str(out1)]) == 0
        assert dispatch(["lota", "--config", str(config), "--out", str(out2)]) == 0
        for name in ("initial.ckpt", "final.ckpt", "adapter.lta", "mask.bin",
                     "mask.bin.json", "run.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_train_writes_checkpoints(self, tmp_path):
        config = train_config(tmp_path)
        out = tmp_path / "t"
        assert dispatch(["train", "--config", str(config), "--out", str(out)]) == 0
        final = load_checkpoint(out / "final.ckpt")
        initial = load_checkpoint(out / "initial.ckpt")
        assert final.names == initial.names

    def test_sparsity_flag_overrides_config(self, tmp_path, capsys):
        config = train_config(tmp_path)
        out = tmp_path / "s99"
        assert dispatch(
            ["lota", "--config", str(config), "--out", str(out),
             "--sparsity", "0.99"]
        ) == 0
        capsys.readouterr()
        dispatch(["inspect", "--mask", str(out / "mask.bin")])
        payload = json.loads(capsys.readouterr().out)
        assert payload["declared_sparsity"] == 0.99

    def test_lotto_outputs_disjoint_masks(self, tmp_path, capsys):
        path = lotto_config(tmp_path)
        out = tmp_path / "lo"
        assert dispatch(["lotto", "--config", str(path), "--out", str(out)]) == 0
        from lota import load_mask

        m0 = load_mask(out / "task0.mask.bin")
        m1 = load_mask(out / "task1.mask.bin")
        assert np.count_nonzero(m0.flat & m1.flat) == 0


class TestMergeCommand:
    def test_merge_two_adapters(self, base_ckpt, tmp_path):
        pm, path = base_ckpt
        outs = []
        for seed in (1, 2):
            ft = tweaked(pm, seed=seed)
            ft_path = tmp_path / f"ft{seed}.ckpt"
            save_checkpoint(ft, ft_path)
            out = tmp_path / f"d{seed}"
            dispatch(["diff", str(path), str(ft_path), "--out", str(out)])
            outs.append(str(out / "adapter.lta"))
        merge_config = tmp_path / "merge.json"
        merge_config.write_text(
            json.dumps({"base": str(path), "adapters": outs, "scaling": 1.0})
        )
        out = tmp_path / "merged"
        assert dispatch(["merge", "--config", str(merge_config), "--out", str(out)]) == 0
        merged = load_checkpoint(out / "merged.ckpt")
        assert merged.names == pm.names
        assert (out / "merge_spec.json").exists()

    def merge_forged(self, base_ckpt, tmp_path, capsys, source, mode):
        """Exit code, error type and traced peak of a merge of a forged adapter.

        The adapter is a diff against `source` whose `layer0.bias` record
        claims dims (2**40,).
        """
        pm, path = base_ckpt
        source_path, ft_path = tmp_path / "source.ckpt", tmp_path / "ft.ckpt"
        save_checkpoint(source, source_path)
        save_checkpoint(tweaked(source), ft_path)
        dispatch(["diff", str(source_path), str(ft_path), "--out", str(tmp_path / "d")])
        adapter = load_adapter(tmp_path / "d" / "adapter.lta")
        records = tuple(
            dataclasses.replace(r, shape=(2**40,)) if r.name == "layer0.bias" else r
            for r in adapter.records
        )
        forged = tmp_path / "forged.lta"
        save_adapter(dataclasses.replace(adapter, records=records), forged)
        merge_config = tmp_path / "merge.json"
        merge_config.write_text(json.dumps(
            {"base": str(path), "adapters": [str(forged)], **mode}
        ))
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = dispatch(["merge", "--config", str(merge_config),
                             "--out", str(tmp_path / "m")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return code, json.loads(capsys.readouterr().err)["error"]["type"], peak

    @pytest.mark.parametrize("elect", [True, False])
    def test_forged_dims_rejected_before_decode(self, base_ckpt, tmp_path,
                                                capsys, elect):
        code, error, peak = self.merge_forged(
            base_ckpt, tmp_path, capsys, base_ckpt[0], {"elect_signs": elect}
        )
        assert (code, error) == (2, "AlignmentError")
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("mode, other_base, error", [
        ({"entries": [{"trim_keep_fraction": 0.5}]}, False, "AlignmentError"),
        ({}, True, "DigestMismatchError"),
        ({"entries": [{"trim_keep_fraction": 0.5}]}, True, "DigestMismatchError"),
        ({"elect_signs": False}, True, "DigestMismatchError"),
    ], ids=["elect-entries", "other-base", "other-base-elect-entries",
            "other-base-no-elect"])
    def test_forged_adapter_rejected_before_allocating(
        self, base_ckpt, tmp_path, capsys, mode, other_base, error
    ):
        pm, _ = base_ckpt
        source = tweaked(pm, seed=7) if other_base else pm
        code, got, peak = self.merge_forged(base_ckpt, tmp_path, capsys, source, mode)
        assert (code, got) == (2, error)
        assert peak < 16 * 2**20

    def merge_with_entry(self, base_ckpt, tmp_path, elect, entry):
        pm, path = base_ckpt
        ft_path = tmp_path / "ft.ckpt"
        save_checkpoint(tweaked(pm), ft_path)
        dispatch(["diff", str(path), str(ft_path), "--out", str(tmp_path / "d")])
        merge_config = tmp_path / "merge.json"
        merge_config.write_text(json.dumps({
            "base": str(path), "adapters": [str(tmp_path / "d" / "adapter.lta")],
            "elect_signs": elect, "entries": [entry],
        }))
        out = tmp_path / "m"
        return dispatch(["merge", "--config", str(merge_config), "--out", str(out)]), out

    @pytest.mark.parametrize("fraction", [-0.5, 0, 1.5, "0.5"])
    @pytest.mark.parametrize("elect", [True, False])
    def test_bad_trim_fraction_exits_1(self, base_ckpt, tmp_path, capsys, elect,
                                       fraction):
        code, out = self.merge_with_entry(
            base_ckpt, tmp_path, elect, {"trim_keep_fraction": fraction}
        )
        assert code == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ConfigError"
        assert "trim_keep_fraction" in error["message"]
        assert not (out / "merged.ckpt").exists()

    @pytest.mark.parametrize("weight", ["1", True, None, float("inf")])
    @pytest.mark.parametrize("elect", [True, False])
    def test_bad_weight_exits_1(self, base_ckpt, tmp_path, capsys, elect, weight):
        code, out = self.merge_with_entry(base_ckpt, tmp_path, elect, {"weight": weight})
        assert code == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ConfigError"
        assert "weight" in error["message"]
        assert not (out / "merged.ckpt").exists()


    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"entries": [1]}, "entries"),
            ({"entries": [1], "elect_signs": False}, "entries"),
            ({"entries": {"weight": 1.0}}, "entries"),
            ({"scaling": "x"}, "scaling"),
            ({"scaling": "nan"}, "scaling"),
            ({"scaling": float("nan")}, "scaling"),
            ({"scaling": float("inf"), "elect_signs": False}, "scaling"),
            ({"scaling": True}, "scaling"),
            ({"scaling": 10**400}, "scaling"),
            ({"elect_signs": "false"}, "elect_signs"),
            ({"elect_signs": 0}, "elect_signs"),
            ({"elect_signs": None}, "elect_signs"),
            ({"adapters": "a.lta"}, "adapters"),
            ({"adapters": [1]}, "adapters"),
            ({"adapters": {"a": "a.lta"}}, "adapters"),
            ({"base": 7}, "base"),
            ({"adapters": []}, "adapters"),
        ],
    )
    def test_bad_config_exits_1_before_loading(
        self, base_ckpt, tmp_path, capsys, monkeypatch, overrides, field
    ):
        pm, path = base_ckpt
        ft_path = tmp_path / "ft.ckpt"
        save_checkpoint(tweaked(pm), ft_path)
        dispatch(["diff", str(path), str(ft_path), "--out", str(tmp_path / "d")])
        config = {"base": str(path), "adapters": [str(tmp_path / "d" / "adapter.lta")]}
        config.update(overrides)
        merge_config = tmp_path / "merge.json"
        merge_config.write_text(json.dumps(config))
        loads = []
        for name in ("load_checkpoint", "load_adapter"):
            monkeypatch.setattr(f"lota.cli.{name}", lambda *a, _n=name: loads.append(_n))
        capsys.readouterr()
        out = tmp_path / "m"
        assert dispatch(["merge", "--config", str(merge_config), "--out", str(out)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ConfigError"
        assert field in error["message"]
        assert loads == []
        assert not out.exists()


class TestConfigObject:
    @pytest.mark.parametrize("command", ["train", "lota", "lotto", "merge", "experiment"])
    @pytest.mark.parametrize("text", ["[1]", "3", "null", '"x"'])
    def test_non_object_config_exits_1(self, tmp_path, capsys, command, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        out = tmp_path / "o"
        assert dispatch([command, "--config", str(path), "--out", str(out)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {
            "type": "ConfigError", "message": f"config {path} must be a JSON object"
        }
        assert not out.exists()


class TestExperimentCommand:
    def experiment_config(self, tmp_path, kind="sparsity-ablation"):
        task = {
            "generator": "gaussian-cluster-classification",
            "input_dim": 6, "output_dim": 3, "train_size": 96,
            "test_size": 64, "noise": 0.4, "seed": 2,
            "params": {"separation": 2.0},
        }
        config = {
            "kind": kind,
            "model": {"widths": [6, 16, 3]},
            "train": {"learning_rate": 0.01, "batch_size": 32, "epochs": 2,
                      "calibration_epochs": 1},
            "seeds": [0, 1],
        }
        if kind == "sparsity-ablation":
            config.update(task=task, grid=[0.0, 0.9], iterative_schedule=None)
        elif kind == "calibration-ablation":
            config.update(task=task)
        else:
            config.update(task_a=task, task_b={**task, "seed": 3})
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config))
        return path

    def test_experiment_report_reproducible(self, tmp_path):
        config = self.experiment_config(tmp_path)
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        assert dispatch(["experiment", "--config", str(config), "--out", str(out1)]) == 0
        assert dispatch(["experiment", "--config", str(config), "--out", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()

    def test_unknown_kind_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "nonsense"}))
        assert dispatch(["experiment", "--config", str(path), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("kind", sorted(EXPERIMENT_KINDS))
    def test_defaults_config_resolves_to_default_spec(self, kind):
        _, default_factory = EXPERIMENT_KINDS[kind]
        spec = _experiment_spec_from_config(
            {"kind": kind, "defaults": True, "seeds": [3]}
        )
        assert spec == default_factory(seeds=(3,))

    @pytest.mark.parametrize("kind", sorted(EXPERIMENT_KINDS))
    def test_written_default_spec_resolves_to_itself(self, kind):
        """The config a benchmark writes: the kind and every spec field."""
        spec = EXPERIMENT_KINDS[kind][1]()
        assert _experiment_spec_from_config({"kind": kind, **spec.to_json_dict()}) == spec
        written = json.loads(json.dumps({"kind": kind, **spec.to_json_dict()}))
        assert _experiment_spec_from_config(written) == spec

    @pytest.mark.parametrize("defaults", [True, False])
    @pytest.mark.parametrize(
        "seeds", [[], 5, [True], [1.5], ["1"], [0, None], "01", {"0": 1}]
    )
    def test_bad_seeds_exit_1(self, tmp_path, capsys, defaults, seeds):
        path = self.experiment_config(tmp_path)
        config = json.loads(path.read_text())
        config.update(seeds=seeds, defaults=defaults)
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert dispatch(["experiment", "--config", str(path), "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ConfigError"
        assert not out.exists()

    @pytest.mark.parametrize(
        "train",
        [
            5,
            "ab",
            {"learning_rate": 0.01, "batch_size": 32, "epochs": 2, "bogus": 1},
            {"learning_rate": "x", "batch_size": 32, "epochs": 2},
        ],
    )
    def test_bad_train_config_exits_1(self, tmp_path, capsys, train):
        path = self.experiment_config(tmp_path)
        config = json.loads(path.read_text())
        config["train"] = train
        path.write_text(json.dumps(config))
        assert dispatch(["experiment", "--config", str(path),
                         "--out", str(tmp_path / "o")]) == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ConfigError"

    def test_unhashable_kind_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": ["merging"]}))
        assert dispatch(["experiment", "--config", str(path),
                         "--out", str(tmp_path / "o")]) == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ConfigError"

    BAD_SPEC_VALUES = {
        "grid-str": ("sparsity-ablation", ("grid",), ["x"], "grid"),
        "grid-1.5": ("sparsity-ablation", ("grid",), [1.5], "grid"),
        "widths-zero": ("sparsity-ablation", ("model", "widths"), [0, 3], "widths"),
        "activation": ("sparsity-ablation", ("model", "activation"), "x",
                       "activation"),
        "epochs-float": ("sparsity-ablation", ("train", "epochs"), 2.5, "epochs"),
        "batch-float": ("sparsity-ablation", ("train", "batch_size"), 32.5,
                        "batch_size"),
        "width-input-dim": ("sparsity-ablation", ("model", "widths"), [5, 16, 3],
                            "input_dim"),
        "width-output-dim": ("sparsity-ablation", ("model", "widths"), [6, 16, 2],
                             "output_dim"),
        "schedule-str": ("sparsity-ablation", ("iterative_schedule",), ["x"],
                         "iterative_schedule"),
        "schedule-decreasing": ("sparsity-ablation", ("iterative_schedule",),
                                [0.99, 0.9], "iterative_schedule"),
        **{
            f"{kind}-sparsity-{value}": (kind, ("sparsity",), value, "sparsity")
            for kind in ("sequential", "calibration-ablation", "merging")
            for value in (1.5, True, "x")
        },
        "mix-fraction-true": ("sequential", ("mix_fraction",), True, "mix_fraction"),
        "interference-nan": ("sequential", ("interference_threshold",),
                             float("nan"), "interference_threshold"),
        "fractions-2.0": ("calibration-ablation", ("fractions",), [1.0, 2.0],
                          "fractions"),
        "scaling-str": ("merging", ("scaling",), "x", "scaling"),
        "fraction-grid-2.0": ("merging", ("fraction_grid",), [2.0], "fraction_grid"),
        "fraction-grid-empty": ("merging", ("fraction_grid",), [], "fraction_grid"),
        "require-interference-str": ("sequential", ("require_interference",), "no",
                                     "require_interference"),
        "interference-without-fft-pair": ("sequential", ("method_pairs",), ["lota->fft"],
                                          "require_interference"),
    }

    @pytest.mark.parametrize(
        "kind, path, value, field", BAD_SPEC_VALUES.values(), ids=BAD_SPEC_VALUES
    )
    def test_bad_spec_value_exits_1(
        self, tmp_path, capsys, kind, path, value, field
    ):
        config_path = self.experiment_config(tmp_path, kind)
        config = json.loads(config_path.read_text())
        *parents, key = path
        target = config
        for parent in parents:
            target = target[parent]
        target[key] = value
        config_path.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert dispatch(["experiment", "--config", str(config_path),
                         "--out", str(out)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ConfigError"
        assert field in error["message"]
        assert not out.exists()


class TestTrainConfigTypes:
    @pytest.mark.parametrize("command", ["train", "lota"])
    @pytest.mark.parametrize(
        "key, value", [("epochs", 2.5), ("batch_size", 32.0), ("seed", "9"),
                       ("calibration_epochs", True)]
    )
    def test_non_integer_count_exits_1(self, tmp_path, capsys, command, key, value):
        config = train_config(tmp_path)
        data = json.loads(config.read_text())
        data["train"][key] = value
        config.write_text(json.dumps(data))
        out = tmp_path / "o"
        assert dispatch([command, "--config", str(config), "--out", str(out)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ConfigError"
        assert key in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "lota"])
    @pytest.mark.parametrize(
        "key, value", [("learning_rate", True), ("learning_rate", float("nan")),
                       ("learning_rate", "0.01"), ("clip_group_norm", float("inf")),
                       ("rmsprop_decay", False), ("rmsprop_epsilon", float("-inf"))]
    )
    def test_non_finite_rate_exits_1(self, tmp_path, capsys, command, key, value):
        config = train_config(tmp_path)
        data = json.loads(config.read_text())
        data["train"][key] = value
        config.write_text(json.dumps(data))
        out = tmp_path / "o"
        argv = [command, "--config", str(config), "--out", str(out)]
        assert key in config_error(capsys, argv)
        assert not out.exists()

    def test_first_width_must_match_input_dim(self, tmp_path, capsys):
        config = train_config(tmp_path, model={"widths": [5, 16, 3]})
        assert dispatch(["train", "--config", str(config),
                         "--out", str(tmp_path / "o")]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ConfigError"
        assert "input_dim" in error["message"]

    def test_last_width_must_match_output_dim(self, tmp_path, capsys):
        config = train_config(tmp_path, model={"widths": [6, 16, 2]})
        assert dispatch(["lota", "--config", str(config),
                         "--out", str(tmp_path / "o")]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ConfigError"
        assert "output_dim" in error["message"]

    @pytest.mark.parametrize("overrides, field", [
        ({"model": {"widths": [5, 16, 3]}}, "input_dim"),
        ({"model": {"widths": [6, 16, 2]}}, "output_dim"),
        ({"tasks": [lotto_task(3), lotto_task(4, output_dim=4)]}, "output_dim"),
    ], ids=["first-width", "last-width", "second-task"])
    def test_lotto_checks_each_task(self, tmp_path, capsys, overrides, field):
        out = tmp_path / "o"
        argv = ["lotto", "--config", str(lotto_config(tmp_path, **overrides)),
                "--out", str(out)]
        assert field in config_error(capsys, argv)
        assert not out.exists()


class TestScalarConfigFields:
    """`sparsity`, `calibration_fraction` and `init_seed` of `lota lota` and
    `lota lotto` must be finite non-bool numbers in range (an integer >= 0 for
    `init_seed`)."""

    @pytest.mark.parametrize("command, key, value", [
        ("lota", "sparsity", "x"),
        ("lota", "sparsity", "0.9"),
        ("lota", "sparsity", 1.5),
        ("lota", "sparsity", True),
        ("lota", "calibration_fraction", True),
        ("lota", "calibration_fraction", "x"),
        ("lota", "init_seed", "x"),
        ("lota", "init_seed", 1.5),
        ("lota", "init_seed", -1),
        ("lotto", "sparsity", "x"),
        ("lotto", "sparsity", "0.9"),
        ("lotto", "init_seed", "x"),
        ("lotto", "init_seed", 1.5),
        ("lotto", "init_seed", -1),
    ])
    def test_bad_value_exits_1(self, tmp_path, capsys, command, key, value):
        make = train_config if command == "lota" else lotto_config
        path = make(tmp_path, **{key: value})
        out = tmp_path / "o"
        argv = [command, "--config", str(path), "--out", str(out)]
        assert key in config_error(capsys, argv)
        assert not out.exists()

    def test_sparsity_flag_checked(self, tmp_path, capsys):
        out = tmp_path / "o"
        lota_inputs = ["--config", str(train_config(tmp_path))]
        # sparsify checks the flag before it reads the (here missing) adapter
        sparsify_inputs = ["--adapter", str(tmp_path / "missing.lta")]
        for command, inputs, value in (("lota", lota_inputs, "1.0"),
                                       ("sparsify", sparsify_inputs, "1.5"),
                                       ("sparsify", sparsify_inputs, "nan")):
            argv = [command, *inputs, "--out", str(out), "--sparsity", value]
            assert "sparsity" in config_error(capsys, argv)
            assert not out.exists()


class TestMaskPathFields:
    """A mask path in a config must be a string before any file is read."""

    def test_train_mask_must_be_a_string(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["train", "--config", str(train_config(tmp_path, mask=5)),
                "--out", str(out)]
        assert "mask" in config_error(capsys, argv)
        assert not out.exists()

    def test_train_object_may_not_set_a_mask(self, tmp_path, capsys):
        config = json.loads(train_config(tmp_path).read_text())
        config["train"]["mask"] = "foo"
        path = tmp_path / "masked.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        argv = ["train", "--config", str(path), "--out", str(out)]
        assert "mask" in config_error(capsys, argv)
        assert not out.exists()

    def test_lotto_initial_constraints_must_be_a_string(self, tmp_path, capsys):
        out = tmp_path / "o"
        path = lotto_config(tmp_path, initial_constraints=5)
        argv = ["lotto", "--config", str(path), "--out", str(out)]
        assert "initial_constraints" in config_error(capsys, argv)
        assert not out.exists()


class TestUnreadKeys:
    """A run command refuses a config key that it does not read, before it
    reads a file or takes a step, and `train` takes no --sparsity flag."""

    @pytest.mark.parametrize("command, key, value", [
        ("train", "sparsity", 0.5),
        ("lota", "mask", "does-not-exist.bin"),
        ("lotto", "calibration_fraction", 0.0),
        ("lotto", "task", lotto_task(5)),
    ], ids=["train-sparsity", "lota-mask", "lotto-calibration_fraction", "lotto-task"])
    def test_unread_key_exits_1(self, tmp_path, capsys, monkeypatch, command, key, value):
        make = lotto_config if command == "lotto" else train_config
        monkeypatch.setattr("lota.cli.load_mask", lambda *a: pytest.fail("read a mask"))
        out = tmp_path / "o"
        argv = [command, "--config", str(make(tmp_path, **{key: value})),
                "--out", str(out)]
        message = config_error(capsys, argv)
        assert f"unknown key {key!r}" in message and f"lota {command}" in message
        assert not out.exists()

    def test_train_takes_no_sparsity_flag(self, tmp_path, capsys):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            dispatch(["train", "--config", str(train_config(tmp_path)),
                      "--out", str(out), "--sparsity", "0.5"])
        assert exc.value.code == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "UsageError" and "--sparsity" in error["message"]
        assert not out.exists()


class TestProvenance:
    def test_each_artifact_command_records_what_it_wrote(self, base_ckpt, tmp_path):
        """provenance.json names exactly the files that the command wrote to
        --out, its subcommand and its resolved config."""
        pm, base = base_ckpt
        ft = tmp_path / "ft.ckpt"
        save_checkpoint(tweaked(pm), ft)
        base, ft = str(base), str(ft)
        adapter = str(tmp_path / "out-diff" / "adapter.lta")
        run = json.loads(train_config(tmp_path).read_text())
        lotto = json.loads(lotto_config(tmp_path).read_text())
        merge = {"base": base, "adapters": [adapter]}
        experiment = {
            "kind": "sparsity-ablation", "model": {"widths": [6, 16, 3]},
            "train": {"learning_rate": 0.01, "batch_size": 32, "epochs": 1},
            "seeds": [0], "task": lotto_task(2), "grid": [0.9],
            "iterative_schedule": None,
        }
        for name, config in (("merge", merge), ("experiment", experiment)):
            (tmp_path / f"{name}.json").write_text(json.dumps(config))
        commands = [
            ("diff", [base, ft], {"base": base, "finetuned": ft}),
            ("sparsify", ["--adapter", adapter, "--sparsity", "0.5"],
             {"adapter": adapter, "sparsity": 0.5}),
            ("train", ["--config", str(tmp_path / "config.json")], run),
            ("lota", ["--config", str(tmp_path / "config.json"), "--sparsity", "0.95"],
             {**run, "sparsity": 0.95}),
            ("lotto", ["--config", str(tmp_path / "lotto.json")], lotto),
            ("encode", ["--base", base, "--delta", ft], {"base": base, "delta": ft}),
            ("decode", ["--adapter", adapter], {"adapter": adapter}),
            ("apply", ["--base", base, "--adapter", adapter],
             {"base": base, "adapter": adapter, "check_digest": True}),
            ("merge", ["--config", str(tmp_path / "merge.json")], merge),
            ("experiment", ["--config", str(tmp_path / "experiment.json"), "--seed", "3"],
             {**experiment, "seeds": [3]}),
        ]
        for command, argv, config in commands:
            out = tmp_path / f"out-{command}"
            assert dispatch([command, *argv, "--out", str(out)]) == 0, command
            provenance = json.loads((out / "provenance.json").read_text())
            written = sorted(p.name for p in out.iterdir() if p.name != "provenance.json")
            assert provenance["outputs"] == written, command
            assert provenance["subcommand"] == command
            assert provenance["config"] == config, command

    @pytest.mark.parametrize("command", ["train", "lota", "lotto"])
    def test_seed_flag_is_the_recorded_seed(self, tmp_path, command):
        """`--seed 5` on a config with seed 9 records, and writes, what the
        config with seed 5 does."""
        make = lotto_config if command == "lotto" else train_config
        config = json.loads(make(tmp_path).read_text())
        runs = {}
        for seed, argv in ((9, ["--seed", "5"]), (5, [])):
            (tmp_path / f"seed{seed}").mkdir()
            path = make(tmp_path / f"seed{seed}", train={**config["train"], "seed": seed})
            out = tmp_path / f"out{seed}"
            assert dispatch([command, "--config", str(path), *argv, "--out", str(out)]) == 0
            provenance = json.loads((out / "provenance.json").read_text())
            runs[seed] = provenance["config"], (out / "final.ckpt").read_bytes()
        assert runs[9][0]["train"]["seed"] == 5
        assert runs[9] == runs[5]


ARTIFACT_COMMANDS = ("diff", "sparsify", "train", "lota", "lotto", "encode", "decode",
                     "apply", "merge", "experiment")


def artifact_argv(base_ckpt, tmp_path) -> dict[str, list[str]]:
    """The arguments, but --out, of a small run of each artifact command."""
    pm, base = base_ckpt
    ft = tmp_path / "ft.ckpt"
    save_checkpoint(tweaked(pm), ft)
    base, ft = str(base), str(ft)
    adapter = tmp_path / "adapter.lta"
    assert dispatch(["diff", base, ft, "--out", str(tmp_path)]) == 0
    experiment = {
        "kind": "sparsity-ablation", "model": {"widths": [6, 16, 3]},
        "train": {"learning_rate": 0.01, "batch_size": 32, "epochs": 1},
        "seeds": [0], "task": lotto_task(2), "grid": [0.9],
        "iterative_schedule": None,
    }
    merge = {"base": base, "adapters": [str(adapter)]}
    for name, config in (("merge", merge), ("experiment", experiment)):
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    return {
        "diff": [base, ft],
        "sparsify": ["--adapter", str(adapter), "--sparsity", "0.5"],
        "train": ["--config", str(train_config(tmp_path))],
        "lota": ["--config", str(train_config(tmp_path))],
        "lotto": ["--config", str(lotto_config(tmp_path))],
        "encode": ["--base", base, "--delta", ft],
        "decode": ["--adapter", str(adapter)],
        "apply": ["--base", base, "--adapter", str(adapter)],
        "merge": ["--config", str(tmp_path / "merge.json")],
        "experiment": ["--config", str(tmp_path / "experiment.json")],
    }


def fail_write(monkeypatch, k: int) -> list:
    """Make the k-th `write_atomic` call (from 1; 0 for none) raise ENOSPC.
    Returns the list of the paths that calls name, filled as they come."""
    calls = []

    def write_atomic(path, *parts):
        calls.append(path)
        if len(calls) == k:
            raise OSError(errno.ENOSPC, "No space left on device", str(path))
        container.write_atomic(path, *parts)

    for module in ("cli", "params", "adapter", "sparsity"):
        monkeypatch.setattr(f"lota.{module}.write_atomic", write_atomic)
    return calls


def snapshot(directory):
    """Each file of `directory`, name -> bytes; None if it does not exist."""
    if not directory.exists():
        return None
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class TestRunDirectory:
    """A run's outputs reach --out as one unit: a failure leaves --out as it
    was, and no staging directory is left beside it."""

    @pytest.mark.parametrize("command", ARTIFACT_COMMANDS)
    def test_failed_write_leaves_out_as_it_was(self, base_ckpt, tmp_path, capsys,
                                               monkeypatch, command):
        argv = [command, *artifact_argv(base_ckpt, tmp_path)[command], "--out"]
        runs = tmp_path / "runs"
        runs.mkdir()
        earlier = runs / "earlier"
        with monkeypatch.context() as m:
            writes = fail_write(m, 0)
            assert dispatch([*argv, str(earlier)]) == 0
        assert len(writes) >= 2  # the outputs and provenance.json
        for out in (runs / "empty", earlier):
            before = snapshot(out)
            for k in range(1, len(writes) + 1):
                with monkeypatch.context() as m:
                    fail_write(m, k)
                    assert dispatch([*argv, str(out)]) == 3, (out.name, k)
                assert json.loads(capsys.readouterr().err)["error"]["type"] == "OSError"
                assert snapshot(out) == before, (out.name, k)
                assert [p.name for p in runs.iterdir()] == ["earlier"], (out.name, k)

    @pytest.mark.parametrize("command", ARTIFACT_COMMANDS)
    def test_failed_move_leaves_no_provenance(self, base_ckpt, tmp_path, capsys,
                                              monkeypatch, command):
        argv = [command, *artifact_argv(base_ckpt, tmp_path)[command], "--out"]
        out = tmp_path / "runs" / "out"
        assert dispatch([*argv, str(out)]) == 0
        # the outputs, then provenance.json
        moves = len(json.loads((out / "provenance.json").read_text())["outputs"]) + 1
        replace = os.replace
        for k in range(1, moves + 1):
            calls = []

            def move(src, dst):
                if os.path.dirname(dst) == str(out):  # a move into --out
                    calls.append(dst)
                    if len(calls) == k:
                        raise OSError(errno.EXDEV, "Invalid cross-device link")
                replace(src, dst)

            with monkeypatch.context() as m:
                m.setattr(os, "replace", move)
                assert dispatch([*argv, str(out)]) == 3, k
            assert json.loads(capsys.readouterr().err)["error"]["type"] == "OSError"
            assert not (out / "provenance.json").exists(), k
            assert not [p for p in out.iterdir() if p.name.endswith(".staging")], k
            assert [p.name for p in out.parent.iterdir()] == ["out"], k

    def test_out_on_another_filesystem(self, base_ckpt, tmp_path, monkeypatch):
        # an existing --out that is a mount point: a move between it and its
        # parent fails with EXDEV, so staging must happen inside --out
        argv = ["lota", *artifact_argv(base_ckpt, tmp_path)["lota"], "--out"]
        out = tmp_path / "runs" / "out"
        assert dispatch([*argv, str(out)]) == 0
        replace = os.replace

        def move(src, dst):
            if Path(src).is_relative_to(out) != Path(dst).is_relative_to(out):
                raise OSError(errno.EXDEV, "Invalid cross-device link")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", move)
        assert dispatch([*argv, str(out), "--seed", "9"]) == 0
        provenance = json.loads((out / "provenance.json").read_text())
        assert provenance["config"]["train"]["seed"] == 9
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [*provenance["outputs"], "provenance.json"])
        assert [p.name for p in out.parent.iterdir()] == ["out"]

    @pytest.mark.skipif(os.geteuid() == 0, reason="root writes into any directory")
    def test_out_under_a_read_only_parent(self, base_ckpt, tmp_path):
        # an existing --out needs only itself to be writable, not its parent
        argv = ["lota", *artifact_argv(base_ckpt, tmp_path)["lota"], "--out"]
        runs = tmp_path / "runs"
        out = runs / "out"
        out.mkdir(parents=True)
        runs.chmod(0o555)
        try:
            assert dispatch([*argv, str(out)]) == 0
        finally:
            runs.chmod(0o755)
        provenance = json.loads((out / "provenance.json").read_text())
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [*provenance["outputs"], "provenance.json"])

    def test_out_naming_a_file_exits_3(self, base_ckpt, tmp_path, capsys):
        _, path = base_ckpt
        out = tmp_path / "out"
        out.write_bytes(b"not a directory")
        assert dispatch(["diff", str(path), str(path), "--out", str(out)]) == 3
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "NotADirectoryError"
        assert out.read_bytes() == b"not a directory"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["base.ckpt", "out"]
