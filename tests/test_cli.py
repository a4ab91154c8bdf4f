import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from lota import (
    ParameterMap,
    load_adapter,
    load_checkpoint,
    save_adapter,
    save_checkpoint,
)
from lota.cli import dispatch, _experiment_spec_from_config
from lota.harness import EXPERIMENT_KINDS
from test_adapter import forged_blob


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
        "sparsity": 0.8,
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
        path.write_bytes(forged_blob((2**62,)))
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

    def test_inspect_requires_one_target(self, capsys):
        assert dispatch(["inspect"]) == 1


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
        config = {
            "model": {"widths": [6, 16, 3]},
            "init_seed": 1,
            "tasks": [
                {
                    "generator": "gaussian-cluster-classification",
                    "input_dim": 6, "output_dim": 3, "train_size": 96,
                    "test_size": 32, "noise": 0.4, "seed": s,
                    "params": {"separation": 2.0},
                }
                for s in (3, 4)
            ],
            "train": {"learning_rate": 0.01, "batch_size": 32, "epochs": 2,
                      "calibration_epochs": 1, "seed": 8},
            "sparsity": 0.9,
        }
        path = tmp_path / "lotto.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "lo"
        assert dispatch(["lotto", "--config", str(path), "--out", str(out)]) == 0
        from lota import load_mask, overlap_stats

        m0 = load_mask(out / "task0.mask.bin")
        m1 = load_mask(out / "task1.mask.bin")
        assert overlap_stats(m0, m1).intersection_count == 0


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
    def experiment_config(self, tmp_path):
        config = {
            "kind": "sparsity-ablation",
            "model": {"widths": [6, 16, 3]},
            "task": {
                "generator": "gaussian-cluster-classification",
                "input_dim": 6, "output_dim": 3, "train_size": 96,
                "test_size": 64, "noise": 0.4, "seed": 2,
                "params": {"separation": 2.0},
            },
            "train": {"learning_rate": 0.01, "batch_size": 32, "epochs": 2,
                      "calibration_epochs": 1},
            "seeds": [0, 1],
            "grid": [0.0, 0.9],
            "iterative_schedule": None,
        }
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

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("grid",), ["x"], "grid"),
            (("grid",), [1.5], "grid"),
            (("model", "widths"), [0, 3], "widths"),
            (("model", "activation"), "x", "activation"),
            (("train", "epochs"), 2.5, "epochs"),
            (("train", "batch_size"), 32.5, "batch_size"),
            (("model", "widths"), [5, 16, 3], "input_dim"),
        ],
        ids=["grid-str", "grid-1.5", "widths-zero", "activation", "epochs-float",
             "batch-float", "width-input-dim"],
    )
    def test_bad_spec_value_exits_1(self, tmp_path, capsys, path, value, field):
        config_path = self.experiment_config(tmp_path)
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

    def test_first_width_must_match_input_dim(self, tmp_path, capsys):
        config = train_config(tmp_path, model={"widths": [5, 16, 3]})
        assert dispatch(["train", "--config", str(config),
                         "--out", str(tmp_path / "o")]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ConfigError"
        assert "input_dim" in error["message"]
