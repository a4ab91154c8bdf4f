"""Self-tests of the benchmark: tiny smoke runs and the output checks.

    python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from lota import (  # noqa: E402
    ParameterMap,
    ToyModel,
    apply_mask,
    digest,
    encode,
    save_adapter,
    save_checkpoint,
    sparsify,
)
from lota.sparsity import TaskVector  # noqa: E402

from perfbench import checks, tracing  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in CONFIG["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(workload, trace, section):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in CONFIG[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("adapter-store", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture
def published(tmp_path):
    base = ToyModel.initialize((4, 6, 3), "tanh", "softmax-cross-entropy", 0).params
    rng = np.random.default_rng(0)
    delta = {n: rng.standard_normal(a.shape).astype(np.float32) for n, a in base.items()}
    tv = TaskVector(ParameterMap(delta), digest(base))
    masked = apply_mask(tv, sparsify(tv, 0.5))
    path = tmp_path / "task.lta"
    save_adapter(encode(masked), path)
    return path, dict(masked.entries.items())


def _value_reasons(reasons):
    return [r for r in reasons if "values of" in r]


def test_adapter_check_fires_on_a_flipped_byte(published):
    path, want = published
    assert _value_reasons(checks.check_adapter_file(path, want)) == []
    blob = bytearray(path.read_bytes())
    blob[-4] ^= 0x01  # lowest byte of the last stored float32 value
    path.write_bytes(bytes(blob))
    assert _value_reasons(checks.check_adapter_file(path, want))


def test_merged_checkpoint_check_fires_on_a_changed_value(tmp_path):
    merged = ToyModel.initialize((4, 6, 3), "tanh", "softmax-cross-entropy", 1).params
    want = dict(merged.items())
    path = tmp_path / "merged.ckpt"
    save_checkpoint(merged, path)
    assert checks.check_checkpoint_file(path, want) == []
    changed = merged.to_dict()
    changed["layer0.weight"][0, 0] += np.float32(1.0)
    save_checkpoint(ParameterMap(changed), path)
    assert _value_reasons(checks.check_checkpoint_file(path, want))


def test_a_removed_name_leaves_its_metric_out(monkeypatch, capsys):
    monkeypatch.setattr(
        tracing, "TARGETS",
        tracing.TARGETS + (("topk", "lota.sparsity", "no_such_function"),),
    )
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracer.layer_metrics(rounds=1, traced_wall_s=1.0, overhead_frac=0.0)
    assert "sparsity.topk_ms" not in metrics
    assert "merging.ties_ms" not in metrics
    assert "adapter.encode_ms" in metrics
    assert "no_such_function" in capsys.readouterr().err
