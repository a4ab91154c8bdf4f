"""Seeded experiments over synthetic tasks, with reproducible JSON reports.

`run_experiment` runs all seeds in lockstep and aggregates the per-seed
dicts into mean/SE report rows. Each `_<kind>_one_seed(spec, seed)` is a
lockstep generator (see `training`): it yields each list of runs it is
about to train, and the engine trains the union of every seed's runs as
replica stacks before it sends the seeds on. Utility is exact-match
accuracy for classification tasks and negative mean squared error for
regression tasks; all
instruction-following-style claims are mapped onto these desk-scale metrics.
Reports are deterministic for a given spec and carry no timing; the CLI
records wall time in provenance.json.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
from dataclasses import dataclass
from typing import Generator, Sequence

import numpy as np

from .adapter import compression_report
from .config import (BOOL, DIM_MAX, OBJECT, SEED_MAX, check_fields, checked, choice,
                     from_json, integer, optional, real, seq)
from .errors import ConfigError, HarnessError
from .merging import merge_grid_search
from .models import ACTIVATIONS, HEADS, Dataset, ToyModel
from .params import ParameterMap
from .sparsity import SPARSITY, SparsityMask, compute_task_vector
from .tasks import SyntheticTaskSpec
from .training import (
    FRACTION,
    Run,
    TrainConfig,
    _check_data,
    _lota_grid_lockstep,
    _solo,
    _together,
    _train_cache,
    iterative_lota,
    lota,
    lotto,
    mixed_data_fft,
    train,
)

SEQUENTIAL_METHOD_PAIRS = (
    "fft->fft",
    "lota->fft",
    "fft->lota",
    "lota->lotto",
    "fft->fft-mixed",
)

MERGE_PAIRS = ("fft+fft", "lota+fft", "fft+lota", "lota+lota")

METRIC_NOTE = (
    "utility = exact-match accuracy for classification tasks and negative "
    "mean squared error for regression tasks"
)


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from arbitrary labeled parts."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(
        hashlib.sha256(text.encode("utf-8")).digest()[:8], "little"
    ) >> 1


def evaluate(model: ToyModel, dataset: Dataset) -> float:
    """Deterministic scalar utility of a model on a dataset.

    Data that `train` would refuse for the model is refused here too, with
    the same `ConfigError`: an empty dataset, an input width that is not
    the model's, class indices out of range, or targets of the wrong kind
    for the head.
    """
    _check_data(model, dataset)
    outputs = model.forward(dataset.inputs)
    if dataset.is_classification:
        predictions = outputs.argmax(axis=1)
        return float((predictions == dataset.targets).mean())
    err = outputs - dataset.targets
    return float(-(err * err).sum(axis=1).mean())


@dataclass(frozen=True)
class ModelSpec:
    widths: tuple[int, ...] = checked(seq(integer(1, DIM_MAX), min_len=2))
    activation: str = checked(choice(ACTIVATIONS), default="tanh")
    head: str = checked(choice(HEADS), default="softmax-cross-entropy")

    def __post_init__(self):
        check_fields(self)

    def check_task(self, task: SyntheticTaskSpec) -> None:
        """The first and last widths must be the task's input_dim and output_dim."""
        if self.widths[0] != task.input_dim:
            raise ConfigError(
                f"first width {self.widths[0]} != task input_dim {task.input_dim}"
            )
        if self.widths[-1] != task.output_dim:
            raise ConfigError(
                f"last width {self.widths[-1]} != task output_dim {task.output_dim}"
            )

    def build(self, seed: int) -> ToyModel:
        return ToyModel.initialize(self.widths, self.activation, self.head, seed)


@dataclass
class MetricsReport:
    kind: str
    spec: dict
    seeds: list[int]
    rows: list[dict]
    notes: str = METRIC_NOTE

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    def to_csv(self) -> str:
        """Flat CSV of the report rows (scalar fields only)."""
        import csv

        keys: list[str] = []
        for row in self.rows:
            for key, value in row.items():
                if isinstance(value, (int, float, str)) and key not in keys:
                    keys.append(key)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=keys, extrasaction="ignore")
        writer.writeheader()
        for row in self.rows:
            writer.writerow(
                {
                    k: v
                    for k, v in row.items()
                    if isinstance(v, (int, float, str))
                }
            )
        return buf.getvalue()


def _stats(entries: Sequence[dict], fields: Sequence[str], se: bool = True) -> dict:
    """`<field>_mean` (and `<field>_se`) over per-seed entries, in field order."""
    out = {}
    for name in fields:
        arr = np.asarray([e[name] for e in entries], dtype=np.float64)
        out[f"{name}_mean"] = float(arr.mean())
        if se:
            out[f"{name}_se"] = (
                float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
            )
    return out


def _baseline_row(task: str, method: str, utilities: Sequence[float]) -> dict:
    return {
        "role": "baseline",
        "task": task,
        "method": method,
        **_stats([{"utility": u} for u in utilities], ("utility",)),
    }


@dataclass(frozen=True)
class _ExperimentSpec:
    """Base of the four experiment specs; subclasses set `kind`. `train` holds
    TrainConfig fields but `seed`, which each run derives from its seed."""

    kind = ""
    model: ModelSpec
    train: dict = checked(OBJECT)
    seeds: tuple[int, ...] = checked(seq(integer(0, SEED_MAX), min_len=1))

    def __post_init__(self):
        check_fields(self)
        for key in ("train", "base_train"):
            if getattr(self, key, None) is not None:
                from_json(TrainConfig, {**getattr(self, key), "seed": 0}, key)
        for f in dataclasses.fields(self):
            task = getattr(self, f.name)
            if isinstance(task, SyntheticTaskSpec):
                self.model.check_task(task)

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


def _train_config(base: dict, seed: int) -> TrainConfig:
    return TrainConfig(**{**base, "seed": seed})


# ---------------------------------------------------------------------------
# sequential forgetting experiment


@dataclass(frozen=True)
class SequentialSpec(_ExperimentSpec):
    kind = "sequential"

    task_a: SyntheticTaskSpec
    task_b: SyntheticTaskSpec
    method_pairs: tuple[str, ...] = checked(
        seq(choice(SEQUENTIAL_METHOD_PAIRS)), default=SEQUENTIAL_METHOD_PAIRS
    )
    sparsity: float = checked(SPARSITY, default=0.9)
    mix_fraction: float = checked(FRACTION, default=0.5)
    require_interference: bool = checked(BOOL, default=True)
    interference_threshold: float = checked(real(), default=0.10)

    def __post_init__(self):
        super().__post_init__()
        if self.require_interference and "fft->fft" not in self.method_pairs:
            raise ConfigError("require_interference needs the fft->fft pair in method_pairs")


def _sequential_one_seed(
    spec: SequentialSpec, seed: int
) -> Generator[list[Run], None, dict]:
    model = spec.model.build(derive_seed("init", seed))
    a_train, a_test = spec.task_a.reseeded(derive_seed("task-a", seed)).make()
    b_train, b_test = spec.task_b.reseeded(derive_seed("task-b", seed)).make()
    config = _train_config(spec.train, derive_seed("train", seed))

    yield [(model, a_train, config), (model, b_train, config)]
    w_fft_a, _ = train(model, a_train, config)
    lota_a = yield from lota.lockstep(model, a_train, spec.sparsity, config)
    w_fft_b, _ = train(model, b_train, config)
    baseline_b = evaluate(model.with_params(w_fft_b), b_test)
    baselines_a = {
        "fft": evaluate(model.with_params(w_fft_a), a_test),
        "lota": evaluate(model.with_params(lota_a.w_final), a_test),
    }

    out = {
        "baseline_a": baselines_a,
        "baseline_b": baseline_b,
        "pairs": {},
    }
    starts = {
        "fft": model.with_params(w_fft_a),
        "lota": model.with_params(lota_a.w_final),
    }
    pairs = [pair.split("->") for pair in spec.method_pairs]
    # every pair's B phase in lockstep: the dense arms train as one stack,
    # and so do the LoTA and LoTTO phases' calibrations, then their retrains
    phases = yield from _together([
        _b_phase(spec, method_b, starts[method_a], a_train, b_train, config, lota_a.mask)
        for method_a, method_b in pairs
    ])
    for pair, (method_a, _), (w_ab, extras) in zip(spec.method_pairs, pairs, phases):
        utility_a = evaluate(model.with_params(w_ab), a_test)
        utility_b = evaluate(model.with_params(w_ab), b_test)
        out["pairs"][pair] = {
            "utility_a": utility_a,
            "utility_b": utility_b,
            "drop_a": baselines_a[method_a] - utility_a,
            "drop_b": baseline_b - utility_b,
            **extras,
        }
    return out


def _b_phase(
    spec: SequentialSpec, method_b: str, start: ToyModel, a_train: Dataset,
    b_train: Dataset, config: TrainConfig, a_mask: SparsityMask,
) -> Generator[list[Run], None, tuple[ParameterMap, dict]]:
    """One pair's training on task B from `start`, as a lockstep generator:
    it returns the trained weights and the pair's extra report fields."""
    if method_b == "fft":
        yield [(start, b_train, config)]
        w_ab, _ = train(start, b_train, config)
        return w_ab, {}
    if method_b == "lota":
        result = yield from lota.lockstep(start, b_train, spec.sparsity, config)
        return result.w_final, {"mask_kept": result.mask.kept_count}
    if method_b == "lotto":  # only lota->lotto: its mask is the constraint
        result = yield from lotto.lockstep(
            start, [b_train], spec.sparsity, config, initial_constraints=a_mask
        )
        return result.w_final, {
            "mask_kept": result.masks[0].kept_count,
            "ideal_ratio": compression_report(result.adapters[0]).ideal_ratio,
        }
    # fft-mixed
    w_ab, _ = yield from mixed_data_fft.lockstep(
        start, b_train, a_train, spec.mix_fraction, config
    )
    return w_ab, {}


def _sequential_rows(spec: SequentialSpec, per_seed: list[dict]) -> list[dict]:
    """Post-B utilities and drops per method pair; checks the pair interferes."""
    task_a = spec.task_a.task_id or "task_a"
    rows = [
        _baseline_row(task_a, "fft", [r["baseline_a"]["fft"] for r in per_seed]),
        _baseline_row(task_a, "lota", [r["baseline_a"]["lota"] for r in per_seed]),
        _baseline_row(
            spec.task_b.task_id or "task_b", "fft", [r["baseline_b"] for r in per_seed]
        ),
    ]
    for pair in spec.method_pairs:
        entries = [r["pairs"][pair] for r in per_seed]
        rows.append(
            {
                "role": "pair",
                "pair": pair,
                **_stats(entries, ("utility_a", "utility_b")),
                **_stats(entries, ("drop_a", "drop_b"), se=False),
                "per_seed": entries,
            }
        )
    if spec.require_interference:
        drop = float(
            np.mean([r["pairs"]["fft->fft"]["drop_a"] for r in per_seed])
        )
        if drop < spec.interference_threshold:
            raise HarnessError(
                f"task pair does not interfere enough: fft->fft drop {drop:.3f} "
                f"< {spec.interference_threshold}"
            )
    return rows


# ---------------------------------------------------------------------------
# sparsity ablation


@dataclass(frozen=True)
class SparsityAblationSpec(_ExperimentSpec):
    kind = "sparsity-ablation"

    task: SyntheticTaskSpec
    grid: tuple[float, ...] = checked(
        seq(SPARSITY), default=(0.0, 0.25, 0.5, 0.75, 0.9, 0.99)
    )
    iterative_schedule: tuple[float, ...] | None = checked(
        optional(seq(SPARSITY)), default=(0.9, 0.99)
    )

    def __post_init__(self):
        super().__post_init__()
        schedule = self.iterative_schedule or ()
        if any(b <= a for a, b in zip(schedule, schedule[1:])):
            raise ConfigError("iterative_schedule must be strictly increasing")


def _sparsity_one_seed(
    spec: SparsityAblationSpec, seed: int
) -> Generator[list[Run], None, dict]:
    model = spec.model.build(derive_seed("init", seed))
    train_data, test_data = spec.task.reseeded(derive_seed("task", seed)).make()
    config = _train_config(spec.train, derive_seed("train", seed))
    grid = yield from _lota_grid_lockstep(
        model, [(train_data, s, 1.0) for s in spec.grid], config
    )
    out = {
        f"s={s}": {
            "utility": evaluate(model.with_params(result.w_final), test_data),
            "k": result.mask.kept_count,
        }
        for s, result in zip(spec.grid, grid)
    }
    if spec.iterative_schedule:
        result = yield from iterative_lota.lockstep(
            model, train_data, spec.iterative_schedule, config
        )
        out["iterative"] = {
            "utility": evaluate(model.with_params(result.w_final), test_data),
            "k": result.mask.kept_count,
        }
    return out


def _sparsity_rows(spec: SparsityAblationSpec, per_seed: list[dict]) -> list[dict]:
    """Utility across the sparsity grid, plus the iterative schedule row."""
    rows = []
    for label in per_seed[0]:
        entries = [r[label] for r in per_seed]
        rows.append(
            {
                "row": label,
                "k": entries[0]["k"],
                **_stats(entries, ("utility",)),
                "per_seed": [e["utility"] for e in entries],
            }
        )
    return rows


# ---------------------------------------------------------------------------
# calibration-data ablation


@dataclass(frozen=True)
class CalibrationAblationSpec(_ExperimentSpec):
    kind = "calibration-ablation"

    task: SyntheticTaskSpec
    fractions: tuple[float, ...] = checked(seq(FRACTION), default=(1.0, 0.1, 0.01, 0.0))
    sparsity: float = checked(SPARSITY, default=0.9)
    # optional pretraining stage; the adaptation task is reseeded with the
    # same per-run seed, so a relabeled-cluster task shares the base task's
    # cluster structure
    base_task: SyntheticTaskSpec | None = None
    base_train: dict | None = checked(optional(OBJECT), default=None)

    def __post_init__(self):
        super().__post_init__()
        if 1.0 not in self.fractions:
            raise ConfigError("fractions must include 1.0 as the zero-drop reference")


def _calibration_one_seed(
    spec: CalibrationAblationSpec, seed: int
) -> Generator[list[Run], None, dict]:
    model = spec.model.build(derive_seed("init", seed))
    task_seed = derive_seed("task", seed)
    train_data, test_data = spec.task.reseeded(task_seed).make()
    if spec.base_task is not None:
        base_train_data, _ = spec.base_task.reseeded(task_seed).make()
        base_config = _train_config(
            spec.base_train or spec.train, derive_seed("train", seed)
        )
        yield [(model, base_train_data, base_config)]
        w_p, _ = train(model, base_train_data, base_config)
        model = model.with_params(w_p)
    config = _train_config(spec.train, derive_seed("train", seed))
    grid = yield from _lota_grid_lockstep(
        model, [(train_data, spec.sparsity, f) for f in spec.fractions], config
    )
    return {
        fraction: evaluate(model.with_params(result.w_final), test_data)
        for fraction, result in zip(spec.fractions, grid)
    }


def _calibration_rows(
    spec: CalibrationAblationSpec, per_seed: list[dict]
) -> list[dict]:
    """Performance drop as the calibration data fraction shrinks to random."""
    rows = []
    for fraction in spec.fractions:
        entries = [
            {"utility": r[fraction], "drop": r[1.0] - r[fraction]} for r in per_seed
        ]
        rows.append(
            {
                "fraction": fraction,
                "mask_source": "random" if fraction == 0.0 else "calibrated",
                **_stats(entries, ("utility",)),
                **_stats(entries, ("drop",), se=False),
                "per_seed_drop": [e["drop"] for e in entries],
                "per_seed": [e["utility"] for e in entries],
            }
        )
    return rows


# ---------------------------------------------------------------------------
# merging experiment


@dataclass(frozen=True)
class MergingSpec(_ExperimentSpec):
    kind = "merging"

    task_a: SyntheticTaskSpec
    task_b: SyntheticTaskSpec
    pairs: tuple[str, ...] = checked(seq(choice(MERGE_PAIRS)), default=MERGE_PAIRS)
    fraction_grid: tuple[float, ...] = checked(seq(real("(0, 1]")), default=(0.1, 0.2, 0.3))
    sparsity: float = checked(SPARSITY, default=0.9)
    scaling: float = checked(real(), default=1.0)

    def __post_init__(self):
        super().__post_init__()
        # the grid searches the trim fraction of each fft side
        if not self.fraction_grid and any("fft" in p for p in self.pairs):
            raise ConfigError("fraction_grid must be nonempty when a pair has an fft side")


def _merging_one_seed(
    spec: MergingSpec, seed: int
) -> Generator[list[Run], None, dict]:
    model = spec.model.build(derive_seed("init", seed))
    a_train, a_test = spec.task_a.reseeded(derive_seed("task-a", seed)).make()
    b_train, b_test = spec.task_b.reseeded(derive_seed("task-b", seed)).make()
    config = _train_config(spec.train, derive_seed("train", seed))
    w_p = model.params

    yield [(model, a_train, config), (model, b_train, config)]
    w_fft_a, _ = train(model, a_train, config)
    w_fft_b, _ = train(model, b_train, config)
    lota_a, lota_b = yield from _lota_grid_lockstep(
        model, [(a_train, spec.sparsity, 1.0), (b_train, spec.sparsity, 1.0)], config
    )

    # each side's merge source and trim grid: an fft task vector is trimmed
    # over the grid, a lota adapter is already sparse and is kept whole
    sides = {
        ("a", "fft"): (compute_task_vector(w_fft_a, w_p), spec.fraction_grid),
        ("b", "fft"): (compute_task_vector(w_fft_b, w_p), spec.fraction_grid),
        ("a", "lota"): (lota_a.adapter, (1.0,)),
        ("b", "lota"): (lota_b.adapter, (1.0,)),
    }

    def utilities(merged: ParameterMap) -> tuple[float, float]:
        m = model.with_params(merged)
        return evaluate(m, a_test), evaluate(m, b_test)

    out = {
        "baseline_a": evaluate(model.with_params(w_fft_a), a_test),
        "baseline_b": evaluate(model.with_params(w_fft_b), b_test),
        "pairs": {},
    }
    for pair in spec.pairs:
        method_a, method_b = pair.split("+")
        (source_a, grid_a), (source_b, grid_b) = sides["a", method_a], sides["b", method_b]
        result = merge_grid_search(
            w_p, [source_a, source_b], [grid_a, grid_b], utilities, lam=spec.scaling
        )
        best = result.best
        out["pairs"][pair] = {
            "utility_a": best["utilities"][0],
            "utility_b": best["utilities"][1],
            "task_average": best["score"],
            "cells": len(result.table),
            "fractions": best["fractions"],
        }
    return out


def _merging_rows(spec: MergingSpec, per_seed: list[dict]) -> list[dict]:
    """Merged utilities per method pair; grid search ran on dense sides only."""
    rows = [
        _baseline_row(task, "fft", [r[key] for r in per_seed])
        for task, key in (("task_a", "baseline_a"), ("task_b", "baseline_b"))
    ]
    for pair in spec.pairs:
        entries = [r["pairs"][pair] for r in per_seed]
        rows.append(
            {
                "role": "pair",
                "pair": pair,
                "cells": entries[0]["cells"],
                **_stats(entries, ("utility_a", "utility_b", "task_average")),
                "per_seed": entries,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# the experiment engine


def run_experiment(spec: _ExperimentSpec) -> MetricsReport:
    """Run `spec` for every seed, then aggregate the per-seed dicts into rows.

    The seeds run in lockstep (`training._together`) inside one `train`
    cache for the whole experiment. So a training that the experiment repeats (a LoTA
    calibration equal to its FFT arm, a calibration shared across a
    sparsity grid, or a seed listed twice) runs once, and the runs that the
    seeds train ahead at the same point form replica stacks, each replica
    with its own start weights, data and shuffle: the FFT arms on tasks A
    and B of every seed as one stack, a grid's calibrations and then its
    retrains, each LoTA and LoTTO phase's calibrations and then its
    retrains (a sequential seed's task-B phases of every method pair
    together), the sequential dense arms on task B, the mixed-data runs,
    and each later stage of the iterative schedule. The outputs are
    bit-identical to running one uncached seed at a time.

    Memory grows linearly with the number of seeds. The cache, dropped
    when the call ends, keeps one final weight vector (4 bytes per
    parameter) and one record per distinct run: 4 runs per merging seed
    and 8 per sparsity-ablation seed. Every seed's data, models and
    results so far are alive at once, and a stack of R replicas holds
    their (R, P) float32 state with its gradients, RMSProp state and
    scratch (about 36 bytes per parameter and replica) plus their training
    data.
    """
    one_seed, build_rows = _kind_functions(spec)
    with _train_cache():
        per_seed = _solo(_together([one_seed(spec, seed) for seed in spec.seeds]))
    return MetricsReport(
        kind=spec.kind,
        spec=spec.to_json_dict(),
        seeds=list(spec.seeds),
        rows=build_rows(spec, per_seed),
    )


def _kind_functions(spec: _ExperimentSpec) -> tuple:
    """The one-seed generator and the row builder of `spec`'s kind."""
    # looked up per call, not at import: a tracer that rebinds the module's
    # one-seed functions must see its wrappers used
    return {
        SequentialSpec: (_sequential_one_seed, _sequential_rows),
        SparsityAblationSpec: (_sparsity_one_seed, _sparsity_rows),
        CalibrationAblationSpec: (_calibration_one_seed, _calibration_rows),
        MergingSpec: (_merging_one_seed, _merging_rows),
    }[type(spec)]


# ---------------------------------------------------------------------------
# tuned default specs
#
# Constants below were selected empirically so each experiment shows its
# directional trend reliably across the five default seeds; the docstring of
# each default_*_spec gives the reasoning behind its regime.

DEFAULT_SEEDS = (0, 1, 2, 3, 4)


def _subspace_cluster_pair(classes: int, separation: float, noise: float,
                           background: float) -> tuple[SyntheticTaskSpec, SyntheticTaskSpec]:
    common = dict(
        generator="gaussian-cluster-classification",
        input_dim=16,
        output_dim=classes,
        train_size=1024,
        test_size=1024,
        noise=noise,
    )
    task_a = SyntheticTaskSpec(
        seed=0,
        task_id="task-a",
        params={"active_dims": list(range(0, 8)), "separation": separation,
                "background": background},
        **common,
    )
    task_b = SyntheticTaskSpec(
        seed=1,
        task_id="task-b",
        params={"active_dims": list(range(8, 16)), "separation": separation,
                "background": background},
        **common,
    )
    return task_a, task_b


def default_sequential_spec(seeds=DEFAULT_SEEDS) -> SequentialSpec:
    """Interfering disjoint-subspace pair; short mask calibration.

    Background noise on the inactive dims makes dense training on task B
    random-walk task A's input columns (strong interference); the short
    calibration budget keeps mask extraction driven by systematic task-B
    gradients instead of that walk.
    """
    task_a, task_b = _subspace_cluster_pair(4, separation=1.6, noise=0.7,
                                            background=0.3)
    return SequentialSpec(
        model=ModelSpec(widths=(16, 96, 48, 4)),
        task_a=task_a,
        task_b=task_b,
        train=dict(learning_rate=0.01, batch_size=32, epochs=40,
                   calibration_epochs=3),
        seeds=tuple(seeds),
        sparsity=0.9,
        mix_fraction=0.5,
    )


def default_sparsity_spec(seeds=DEFAULT_SEEDS) -> SparsityAblationSpec:
    """Single full-dim cluster task; plateau holds through s=0.9."""
    task = SyntheticTaskSpec(
        generator="gaussian-cluster-classification",
        input_dim=16,
        output_dim=4,
        train_size=1024,
        test_size=2048,
        noise=0.7,
        seed=0,
        task_id="sparsity-task",
        params={"separation": 1.6},
    )
    return SparsityAblationSpec(
        model=ModelSpec(widths=(16, 96, 48, 4)),
        task=task,
        train=dict(learning_rate=0.01, batch_size=32, epochs=40,
                   calibration_epochs=3),
        seeds=tuple(seeds),
        grid=(0.0, 0.25, 0.5, 0.75, 0.9, 0.99),
        iterative_schedule=(0.9, 0.99),
    )


def default_calibration_spec(seeds=DEFAULT_SEEDS) -> CalibrationAblationSpec:
    """Relabeled-cluster adaptation of a pretrained base.

    Half of 16 clusters get cycled labels; the base model is pretrained on
    the original labeling. The large rmsprop_epsilon makes update sizes
    track gradient magnitudes, so mask quality (not raw capacity) decides
    how fast each mask adapts, and quality degrades monotonically with the
    calibration data fraction.
    """
    common = dict(
        generator="gaussian-cluster-classification",
        input_dim=16,
        output_dim=16,
        train_size=1024,
        test_size=2048,
        noise=0.6,
        seed=0,
        params={"separation": 2.0},
    )
    base_task = SyntheticTaskSpec(task_id="calibration-base", **common)
    adapt_task = SyntheticTaskSpec(
        task_id="calibration-adapt",
        **{**common, "params": {"separation": 2.0, "relabel_count": 8}},
    )
    return CalibrationAblationSpec(
        model=ModelSpec(widths=(16, 96, 48, 16)),
        task=adapt_task,
        base_task=base_task,
        base_train=dict(learning_rate=0.01, batch_size=32, epochs=40),
        train=dict(learning_rate=3e-4, batch_size=32, epochs=40,
                   calibration_epochs=40, rmsprop_epsilon=1e-2),
        seeds=tuple(seeds),
        fractions=(1.0, 0.1, 0.01, 0.0),
        sparsity=0.9,
    )


def default_merging_spec(seeds=DEFAULT_SEEDS) -> MergingSpec:
    """Well-separated disjoint-subspace pair with converged calibration."""
    task_a, task_b = _subspace_cluster_pair(4, separation=2.5, noise=0.5,
                                            background=0.1)
    return MergingSpec(
        model=ModelSpec(widths=(16, 96, 48, 4)),
        task_a=task_a,
        task_b=task_b,
        train=dict(learning_rate=0.01, batch_size=32, epochs=30,
                   calibration_epochs=30),
        seeds=tuple(seeds),
        pairs=MERGE_PAIRS,
        fraction_grid=(0.1, 0.2, 0.3),
        sparsity=0.9,
        scaling=1.0,
    )


# kind name -> (spec class, default spec factory)
EXPERIMENT_KINDS = {
    spec_cls.kind: (spec_cls, factory)
    for spec_cls, factory in (
        (SequentialSpec, default_sequential_spec),
        (SparsityAblationSpec, default_sparsity_spec),
        (CalibrationAblationSpec, default_calibration_spec),
        (MergingSpec, default_merging_spec),
    )
}
