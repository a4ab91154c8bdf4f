"""Output checks. Each returns a list of failure reasons; empty means pass.

The expected values are computed here from the benchmark's own inputs,
not by asking `lota` again, except where the check is a round trip
through `lota`'s own file format.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np


def kept_count(s: float, n: int) -> int:
    """round((1 - s) * n), halves rounded up."""
    return math.floor((1.0 - s) * n + 0.5)


def param_count(widths) -> int:
    return sum(a * b + b for a, b in zip(widths, widths[1:]))


def same_tensors(expected: dict, actual: dict, what: str) -> list[str]:
    """Bitwise comparison of two name -> array maps, shapes included."""
    if sorted(expected) != sorted(actual):
        return [f"{what}: names differ"]
    reasons = []
    for name, want in expected.items():
        got = np.asarray(actual[name])
        if got.shape != want.shape:
            reasons.append(f"{what}: shape of {name} is {got.shape}, not {want.shape}")
        if got.size != want.size or got.dtype != want.dtype or (
            got.tobytes() != np.ascontiguousarray(want).tobytes()
        ):
            reasons.append(f"{what}: values of {name} differ")
    return reasons


def check_adapter_file(path: Path, expected: dict) -> list[str]:
    """A saved adapter loads and decodes to exactly `expected`."""
    from lota import decode, load_adapter

    tv = decode(load_adapter(path))
    return same_tensors(expected, dict(tv.entries.items()), f"reloaded {Path(path).name}")


def check_checkpoint_file(path: Path, expected: dict) -> list[str]:
    """A checkpoint file holds exactly `expected`."""
    from lota import load_checkpoint

    return same_tensors(expected, dict(load_checkpoint(path).items()), Path(path).name)


def _finite_numbers(value) -> bool:
    if isinstance(value, bool):
        return True
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_numbers(v) for v in value)
    return True


def check_sparsity_report(report: dict, spec) -> list[str]:
    """All grid rows present and finite; k per row is round((1 - s) * n)."""
    n = param_count(spec.model.widths)
    expected = {f"s={s}": kept_count(s, n) for s in spec.grid}
    if spec.iterative_schedule:
        expected["iterative"] = kept_count(spec.iterative_schedule[-1], n)
    rows = {row.get("row"): row for row in report.get("rows", [])}
    reasons = []
    if sorted(rows) != sorted(expected):
        reasons.append(f"report rows {sorted(map(str, rows))} != {sorted(expected)}")
    for label, k in expected.items():
        row = rows.get(label, {})
        if row.get("k") != k:
            reasons.append(f"row {label}: k={row.get('k')}, expected {k}")
        if len(row.get("per_seed", [])) != len(spec.seeds):
            reasons.append(f"row {label}: per-seed values missing")
    if not _finite_numbers(report):
        reasons.append("report holds a non-finite number")
    return reasons


def check_merging_report(report: dict, spec) -> list[str]:
    """Baselines and every pair present and finite; grid cells per pair."""
    rows = report.get("rows", [])
    baselines = sorted(r.get("task", "") for r in rows if r.get("role") == "baseline")
    pairs = {r.get("pair"): r for r in rows if r.get("role") == "pair"}
    reasons = []
    if baselines != ["task_a", "task_b"]:
        reasons.append(f"baseline rows {baselines}")
    if sorted(map(str, pairs)) != sorted(spec.pairs):
        reasons.append(f"pair rows {sorted(map(str, pairs))} != {sorted(spec.pairs)}")
    for pair in spec.pairs:
        # only the dense (fft) sides are searched over the trim grid
        cells = len(spec.fraction_grid) ** pair.split("+").count("fft")
        if pairs.get(pair, {}).get("cells") != cells:
            reasons.append(f"pair {pair}: cells != {cells}")
    if not _finite_numbers(report):
        reasons.append("report holds a non-finite number")
    return reasons


def mean_utility(report: dict) -> float:
    """Mean of every `*_mean` field of the report rows (all are utilities)."""
    values = [
        v for row in report["rows"] for k, v in row.items() if k.endswith("_mean")
    ]
    return float(np.mean(values))
