"""Behaviour oracle: SHA-256 digests of small experiment reports and artifacts.

Every refactor must keep these digests bit-identical. A change that alters
an output on purpose regenerates `golden.json` from the digests printed on
failure and says why in the change log.
"""

import hashlib
import json
from pathlib import Path

import pytest

from lota import training
from lota.cli import dispatch

GOLDEN = Path(__file__).with_name("golden.json")

MODEL = {"widths": [8, 24, 3]}
TRAIN = {"learning_rate": 0.01, "batch_size": 32, "epochs": 3,
         "calibration_epochs": 2}
SEEDS = [0, 1]


def cluster_task(seed, task_id, active=None, **params):
    params = {"separation": 2.0, **params}
    if active is not None:
        params["active_dims"] = active
    return {
        "generator": "gaussian-cluster-classification",
        "input_dim": 8, "output_dim": 3, "train_size": 128, "test_size": 128,
        "noise": 0.5, "seed": seed, "task_id": task_id, "params": params,
    }


TASK_A = cluster_task(0, "a", active=[0, 1, 2, 3])
TASK_B = cluster_task(1, "b", active=[4, 5, 6, 7])

EXPERIMENTS = {
    "sequential": {
        "model": MODEL, "task_a": TASK_A, "task_b": TASK_B, "train": TRAIN,
        "seeds": SEEDS, "require_interference": False,
    },
    "sparsity-ablation": {
        "model": MODEL, "task": cluster_task(2, "s"), "train": TRAIN,
        "seeds": SEEDS,
    },
    "calibration-ablation": {
        "model": MODEL, "task": cluster_task(3, "c-adapt", relabel_count=2),
        "base_task": cluster_task(3, "c-base"),
        "base_train": {"learning_rate": 0.01, "batch_size": 32, "epochs": 3},
        "train": TRAIN, "seeds": SEEDS,
    },
    "merging": {
        "model": MODEL, "task_a": TASK_A, "task_b": TASK_B, "train": TRAIN,
        "seeds": SEEDS,
    },
}

LOTA_CONFIG = {"model": MODEL, "task": cluster_task(4, "l"), "train": {
    **TRAIN, "seed": 5}, "sparsity": 0.8}
LOTA_OUTPUTS = ("final.ckpt", "adapter.lta", "mask.bin", "mask.bin.json",
                "run.json")

# a second adapter of the same base (same model and init seed), to merge with
LOTA_CONFIG_B = {**LOTA_CONFIG, "task": cluster_task(5, "m", active=[2, 3, 4]),
                 "train": {**TRAIN, "seed": 6}}

LOTTO_CONFIG = {"model": MODEL, "tasks": [TASK_A, TASK_B], "train": {
    **TRAIN, "seed": 7}, "sparsity": 0.7}
LOTTO_OUTPUTS = ("task0.adapter.lta", "task0.mask.bin", "task0.mask.bin.json",
                 "task1.adapter.lta", "task1.mask.bin", "task1.mask.bin.json",
                 "constraints.mask.bin", "constraints.mask.bin.json",
                 "final.ckpt", "run.json")

# a 128 x 128 weight group, over the 10,000 elements past which OpenBLAS
# splits a float64 dot product across threads, with a clip that scales it on
# some steps and not on others: CI runs this file under default threads and
# under one BLAS thread, and both must give these digests
WIDE_CONFIG = {
    "model": {"widths": [16, 128, 128, 4]},
    "task": {**cluster_task(8, "w"), "input_dim": 16, "output_dim": 4},
    "train": {"learning_rate": 0.01, "batch_size": 32, "epochs": 2, "seed": 3,
              "clip_group_norm": 0.2},
}

# trim fractions below the adapters' 20% density, so trimming drops values
WEIGHTED_ENTRIES = [{"weight": 0.7, "trim_keep_fraction": 0.1},
                    {"weight": 1.3, "trim_keep_fraction": 0.15}]
MERGES = {
    "merge-elect": {},
    "merge-sum-weighted": {"elect_signs": False, "scaling": 0.9,
                           "entries": WEIGHTED_ENTRIES},
    "merge-elect-weighted": {"elect_signs": True, "scaling": 0.9,
                             "entries": WEIGHTED_ENTRIES},
}
# more merges of the same adapters, each with the sha256 of its merged.ckpt:
# a sum without entries, and entries that leave a key out or give an integer
MORE_MERGES = {
    "merge-sum": (
        {"elect_signs": False},
        "156b4d57d7e74f126e087f83c2c89243cc020bd5cf5aafed64012dbf6b69a188"),
    "merge-elect-partial": (
        {"scaling": 2, "entries": [{"weight": 0.5},
                                   {"trim_keep_fraction": 0.15, "weight": -1}]},
        "1d44d7d3373d0b86c4616f48d5f9511333cd4b21e2c6327ffb67bc198f6cd3bb"),
    "merge-sum-whole": (
        {"elect_signs": False, "entries": [{"trim_keep_fraction": 1}, {}]},
        "156b4d57d7e74f126e087f83c2c89243cc020bd5cf5aafed64012dbf6b69a188"),
}
# the base_digest that each merge_spec.json records: LOTA_CONFIG's initial.ckpt
BASE_DIGEST = "f66548888955f8fa6db549507e2275c9ae88d25fd3d34932e32285919948cd25"
# each merge's merge_spec.json: elect_signs, scaling, and per adapter
# (trim_keep_fraction, weight); a sign-elect merge without entries keeps
# each adapter whole, and a number is written as the config gave it except
# that a weight and the scaling are floats
MERGE_SPECS = {
    "merge-elect": (True, 1.0, [(1.0, 1.0), (1.0, 1.0)]),
    "merge-sum-weighted": (False, 0.9, [(0.1, 0.7), (0.15, 1.3)]),
    "merge-elect-weighted": (True, 0.9, [(0.1, 0.7), (0.15, 1.3)]),
    "merge-sum": (False, 1.0, [(None, 1.0), (None, 1.0)]),
    "merge-elect-partial": (True, 2.0, [(None, 0.5), (0.15, -1.0)]),
    "merge-sum-whole": (False, 1.0, [(1, 1.0), (None, 1.0)]),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(tmp_path: Path, command: str, name: str, config: dict) -> Path:
    config_path = tmp_path / f"{name}.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / name
    assert dispatch([command, "--config", str(config_path), "--out", str(out)]) == 0
    return out


def current_digests(tmp_path: Path) -> dict[str, str]:
    digests = {}
    for kind, config in EXPERIMENTS.items():
        out = _run(tmp_path, "experiment", kind, {"kind": kind, **config})
        for name in ("report.json", "report.csv"):
            digests[f"{kind}/{name}"] = _sha256(out / name)
    out = _run(tmp_path, "lota", "lota", LOTA_CONFIG)
    for name in LOTA_OUTPUTS:
        digests[f"lota/{name}"] = _sha256(out / name)
    out_b = _run(tmp_path, "lota", "lota-b", LOTA_CONFIG_B)
    out_l = _run(tmp_path, "lotto", "lotto", LOTTO_CONFIG)
    for name in LOTTO_OUTPUTS:
        digests[f"lotto/{name}"] = _sha256(out_l / name)
    base = str(out / "initial.ckpt")
    adapters = [str(out / "adapter.lta"), str(out_b / "adapter.lta")]
    for name, extra in MERGES.items():
        merged = _run(tmp_path, "merge", name,
                      {"base": base, "adapters": adapters, **extra})
        digests[f"{name}/merged.ckpt"] = _sha256(merged / "merged.ckpt")
    out_w = _run(tmp_path, "train", "train-wide", WIDE_CONFIG)
    for name in ("final.ckpt", "run.json"):
        digests[f"train-wide/{name}"] = _sha256(out_w / name)
    applied = tmp_path / "apply"
    assert dispatch(["apply", "--base", base, "--adapter", adapters[1],
                     "--out", str(applied)]) == 0
    digests["apply/model.ckpt"] = _sha256(applied / "model.ckpt")
    return digests


# the default specs' reports, which tests/test_conclusions.py builds and checks
DEFAULT_PREFIX = "default/"


def test_outputs_match_golden_digests(tmp_path):
    expected = {k: v for k, v in json.loads(GOLDEN.read_text()).items()
                if not k.startswith(DEFAULT_PREFIX)}
    actual = current_digests(tmp_path)
    if actual != expected:
        changed = sorted(k for k in expected.keys() | actual.keys()
                         if expected.get(k) != actual.get(k))
        pytest.fail(
            f"golden digests changed for {changed}; new digests:\n"
            + json.dumps(actual, sort_keys=True, indent=2)
        )


def test_merge_spec_records_the_merge_it_ran(tmp_path):
    """Each merge's merge_spec.json byte for byte, and its merged.ckpt."""
    golden = json.loads(GOLDEN.read_text())
    out = _run(tmp_path, "lota", "lota", LOTA_CONFIG)
    out_b = _run(tmp_path, "lota", "lota-b", LOTA_CONFIG_B)
    base = str(out / "initial.ckpt")
    adapters = [str(out / "adapter.lta"), str(out_b / "adapter.lta")]
    for name, (elect, scaling, entries) in MERGE_SPECS.items():
        if name in MERGES:
            extra, merged_sha = MERGES[name], golden[f"{name}/merged.ckpt"]
        else:
            extra, merged_sha = MORE_MERGES[name]
        merged = _run(tmp_path, "merge", name,
                      {"base": base, "adapters": adapters, **extra})
        spec = {
            "base_digest": BASE_DIGEST, "elect_signs": elect, "scaling": scaling,
            "entries": [{"source": path, "trim_keep_fraction": fraction, "weight": weight}
                        for path, (fraction, weight) in zip(adapters, entries)],
        }
        want = json.dumps(spec, sort_keys=True, indent=2) + "\n"
        assert (merged / "merge_spec.json").read_text() == want, name
        assert _sha256(merged / "merged.ckpt") == merged_sha, name


def test_wide_case_clips_its_large_group_on_some_steps(tmp_path, monkeypatch):
    clipped = []
    original = training._clip_group_norm_inplace

    def spy(g, max_norm, scratch):
        original(g, max_norm, scratch)
        (k,) = [k for k, (lo, hi) in enumerate(scratch.spans) if hi - lo == 128 * 128]
        clipped.append(bool(scratch.norms[k, 0] > max_norm))

    monkeypatch.setattr(training, "_clip_group_norm_inplace", spy)
    _run(tmp_path, "train", "train-wide", WIDE_CONFIG)
    assert any(clipped) and not all(clipped)
