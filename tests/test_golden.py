"""Behaviour oracle: SHA-256 digests of small experiment reports and artifacts.

Every refactor must keep these digests bit-identical. A change that alters
an output on purpose regenerates `golden.json` from the digests printed on
failure and says why in the change log.
"""

import hashlib
import json
from pathlib import Path

import pytest

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
