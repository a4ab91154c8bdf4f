"""Masked-gradient training with RMSProp, plus the adaptation drivers.

The drivers implement three procedures over a base model w_P:
  * lota: calibrate by full fine-tuning, extract a magnitude mask from the
    task vector, reset to w_P, retrain with the mask.
  * iterative_lota: re-calibrate progressively sparser masks from the
    previous stage's sparse task vector.
  * lotto: sequential tasks under a growing constraint set; each task's
    mask is disjoint from every earlier one.

`train` keeps flat state and clips each group's gradient norm; with a mask,
RMSProp gathers and scatters only the kept indices, so coordinates with
mask=false stay bitwise-frozen at their initial values.

`train` is a pure function of what it reads, so inside `_train_cache()`
(which `harness.run_experiment` opens once per seed) a call whose model,
initial params, data, config and mask bits match an earlier call returns
that call's result instead of training again; outside it, nothing is cached.
"""

from __future__ import annotations

import contextlib
import contextvars
import copy
import dataclasses
import hashlib
import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .adapter import SparseAdapter, encode
from .errors import CapacityError, ConfigError, DivergenceError
from .models import Dataset, ToyModel, concat_datasets, _forward_backward_state
from .params import ParameterMap, digest
from .sparsity import (
    SparsityMask,
    all_false_mask,
    apply_mask,
    compute_task_vector,
    mask_complement,
    mask_union,
    random_mask,
    round_half_up,
    sparsify,
    support_mask,
    topk_keep_flat,
)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    batch_size: int
    epochs: int
    seed: int
    calibration_epochs: int | None = None
    rmsprop_decay: float = 0.99
    rmsprop_epsilon: float = 1e-8
    clip_group_norm: float = 1.0
    mask: SparsityMask | None = None

    def __post_init__(self):
        counts = (self.batch_size, self.epochs, self.seed, self.calibration_epochs)
        if not all(
            isinstance(v, numbers.Integral) and not isinstance(v, bool)
            for v in counts if v is not None
        ):
            raise ConfigError(
                "batch_size, epochs, seed and calibration_epochs must be integers"
            )
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.batch_size <= 0 or self.epochs < 0:
            raise ConfigError("batch_size must be > 0 and epochs >= 0")
        if not 0.0 < self.rmsprop_decay < 1.0:
            raise ConfigError("rmsprop_decay must be in (0, 1)")
        if self.rmsprop_epsilon <= 0 or self.clip_group_norm <= 0:
            raise ConfigError("rmsprop_epsilon and clip_group_norm must be > 0")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if self.calibration_epochs is not None and self.calibration_epochs < 0:
            raise ConfigError("calibration_epochs must be >= 0")

    def replace(self, **kwargs) -> "TrainConfig":
        return dataclasses.replace(self, **kwargs)

    def snapshot(self) -> dict:
        """JSON-friendly dict; the mask is summarized, not embedded."""
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        if self.mask is not None:
            out["mask"] = {
                "kept_count": self.mask.kept_count,
                "total_elements": self.mask.total_elements,
                "declared_sparsity": self.mask.declared_sparsity,
            }
        return out


@dataclass(frozen=True)
class OptimizerState:
    """Running second-moment accumulators, one per parameter group."""

    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def zeros(cls, params: ParameterMap) -> "OptimizerState":
        return cls(v=params.layout.views(np.zeros(params.total_elements, np.float32)))


@dataclass
class RunRecord:
    config: dict
    initial_digest: str
    final_digest: str | None
    loss_trace: list[float] = field(default_factory=list)
    diverged: bool = False

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


def clip_group_norm(grads: ParameterMap, max_norm: float) -> ParameterMap:
    """Scale each named group to L2 norm <= max_norm; smaller groups untouched."""
    if max_norm <= 0:
        raise ConfigError("max_norm must be > 0")
    out = grads.flat.copy()
    _clip_group_norm_inplace(grads.layout.views(out), max_norm)
    return ParameterMap.from_flat(grads.layout, out)


def _clip_group_norm_inplace(grads: dict[str, np.ndarray], max_norm: float) -> None:
    for g in grads.values():
        flat = g.ravel().astype(np.float64)
        norm = math.sqrt(float(np.dot(flat, flat)))
        if norm > max_norm:
            g *= np.float32(max_norm / norm)


def rmsprop_step(
    params: ParameterMap,
    grads: ParameterMap,
    state: OptimizerState,
    config: TrainConfig,
    mask: SparsityMask | None = None,
) -> tuple[ParameterMap, OptimizerState]:
    """One update: v <- d*v + (1-d)*g^2; w <- w - lr*g/(sqrt(v)+eps).

    A mask zeroes the gradient at mask=false coordinates: their weights stay
    bitwise, and a nonzero v there decays.
    """
    layout = params.layout
    layout.require_aligned(grads.layout, "params and grads")
    v = ParameterMap(state.v)
    layout.require_aligned(v.layout, "params and optimizer state")
    if mask is not None:
        mask.layout.require_aligned(layout, "mask and params")
    w, v = params.flat, v.flat.copy()
    keep = np.ones(w.size, bool) if mask is None else mask.flat
    new_w = w.copy()
    g = np.where(keep, grads.flat, np.float32(0.0))
    _rmsprop_update_inplace(new_w, g, v, config, None, np.empty(w.size))
    new_w = np.where(keep, new_w, w)  # shields frozen coordinates from ±0.0 flips
    if not np.isfinite(new_w).all():
        raise DivergenceError("non-finite parameter after optimizer step")
    out = ParameterMap.from_flat(layout, new_w)
    return out, OptimizerState(v=layout.views(v), step=state.step + 1)


def _rmsprop_update_inplace(w, g, v, config: TrainConfig, kept, w64) -> None:
    """RMSProp on flat float32 vectors, only at the `kept` indices if given.

    `w` and `v` hold only the updated coordinates; the gradient `g` and the
    float64 mirror `w64`, which gets the new weights, are full length.
    """
    decay = np.float32(config.rmsprop_decay)
    one_minus = np.float32(1.0 - config.rmsprop_decay)
    lr = np.float32(config.learning_rate)
    eps = np.float32(config.rmsprop_epsilon)
    if kept is not None:
        g = g[kept]
    v *= decay
    v += one_minus * (g * g)
    w -= lr * g / (np.sqrt(v) + eps)
    if kept is None:
        w64[...] = w
    else:
        w64[kept] = w.astype(np.float64)


# key -> (final weights, pristine record) while a `_train_cache()` is open
_TRAIN_CACHE: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "lota_train_cache", default=None
)


@contextlib.contextmanager
def _train_cache():
    """Memoize `train` inside the block; the results are dropped on exit."""
    token = _TRAIN_CACHE.set({})
    try:
        yield
    finally:
        _TRAIN_CACHE.reset(token)


def _train_key(
    model: ToyModel, initial_digest: str, dataset: Dataset, config: TrainConfig
) -> bytes:
    """SHA-256 over everything `train` reads.

    Data is keyed on content, not identity, and the mask on its bits: masks
    with equal kept counts but different bits train differently. The mask's
    declared sparsity is in the key because the record's config carries it.
    """
    mask = config.mask
    arrays = [dataset.inputs, dataset.targets]
    header = (
        model.widths, model.activation, model.head, initial_digest,
        [(a.dtype.str, a.shape) for a in arrays],
        [(f.name, getattr(config, f.name))
         for f in dataclasses.fields(config) if f.name != "mask"],
        None if mask is None else mask.declared_sparsity,
    )
    h = hashlib.sha256(repr(header).encode())
    if mask is not None:
        arrays.append(mask.flat)
    for a in arrays:  # contiguous: Dataset and the mask buffer ensure it
        h.update(a)
    return h.digest()


def train(
    model: ToyModel, dataset: Dataset, config: TrainConfig
) -> tuple[ParameterMap, RunRecord]:
    """Deterministic mini-batch training; returns final weights and record.

    The state is flat, in sorted name order: a float64 weight mirror that
    the forward pass reads and float32 gradients that it writes, each with
    one view per name, plus the float32 weights and RMSProp state. With a
    mask in the config, those two hold only the kept indices, so every
    mask=false coordinate stays bitwise equal to its initial value. This is
    bit-identical to a dense update of the masked gradient, whose v stays 0
    wherever the gradient is 0. The mirror holds exact float32 values.

    Inside `_train_cache()` a repeated call returns the first call's
    read-only weights and a fresh copy of its record; a run that diverges
    is not cached.
    """
    if len(dataset) == 0:
        raise ConfigError("dataset must be nonempty")
    layout, w = model.params.layout, model.params.flat
    if config.mask is not None:
        config.mask.layout.require_aligned(layout, "mask and model parameters")
    initial_digest = digest(model.params).hex()
    cache = _TRAIN_CACHE.get()
    if cache is not None:
        key = _train_key(model, initial_digest, dataset, config)
        if key in cache:
            final, record = cache[key]
            return final, copy.deepcopy(record)
    w64, g = w.astype(np.float64), np.empty_like(w)
    state64, grads = layout.views(w64), layout.views(g)
    kept = None if config.mask is None else np.flatnonzero(config.mask.flat)
    # the float32 weights that RMSProp updates
    w = w.copy() if kept is None else w[kept]
    v = np.zeros_like(w)
    record = RunRecord(config.snapshot(), initial_digest, None)
    n = len(dataset)
    for epoch in range(config.epochs):
        perm = np.random.default_rng(config.seed ^ epoch).permutation(n)
        batch_losses = []
        for lo in range(0, n, config.batch_size):
            batch = dataset.take(perm[lo : lo + config.batch_size])
            loss = _forward_backward_state(model, state64, batch, grads)
            if not np.isfinite(loss):
                record.diverged = True
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}", partial_record=record
                )
            _clip_group_norm_inplace(grads, config.clip_group_norm)
            _rmsprop_update_inplace(w, g, v, config, kept, w64)
            batch_losses.append(loss)
        record.loss_trace.append(float(np.mean(batch_losses)))
    final = ParameterMap.from_flat(layout, w64.astype(np.float32))
    record.final_digest = digest(final).hex()
    if cache is not None:
        cache[key] = (final, copy.deepcopy(record))
    return final, record


def _calibration_budget(config: TrainConfig) -> int:
    cal = config.calibration_epochs
    return config.epochs if cal is None else cal


@dataclass(frozen=True)
class LotaResult:
    adapter: SparseAdapter
    mask: SparsityMask
    w_final: ParameterMap
    calibration_record: RunRecord | None
    train_record: RunRecord


def lota(
    model: ToyModel,
    dataset: Dataset,
    s: float,
    config: TrainConfig,
    calibration_fraction: float = 1.0,
) -> LotaResult:
    """Calibrate a mask by dense training, then retrain w_P under the mask.

    calibration_fraction scales how much data the calibration phase sees;
    0 skips calibration entirely and draws a uniform random mask instead.
    """
    if not 0.0 <= calibration_fraction <= 1.0:
        raise ConfigError("calibration_fraction must be in [0, 1]")
    if config.mask is not None:
        raise ConfigError("lota builds its own mask; config.mask must be None")
    w_p = model.params
    calibration_record = None
    if calibration_fraction == 0.0:
        mask = random_mask(w_p, s, config.seed)
    else:
        n_cal = math.ceil(calibration_fraction * len(dataset))
        cal_data = dataset.take(np.arange(n_cal))
        cal_config = config.replace(epochs=_calibration_budget(config))
        w_f, calibration_record = train(model, cal_data, cal_config)
        mask = sparsify(compute_task_vector(w_f, w_p), s)
    w_final, train_record = train(model, dataset, config.replace(mask=mask))
    tv = apply_mask(compute_task_vector(w_final, w_p), mask)
    return LotaResult(
        adapter=encode(tv),
        mask=mask,
        w_final=w_final,
        calibration_record=calibration_record,
        train_record=train_record,
    )


@dataclass(frozen=True)
class IterativeLotaResult:
    adapter: SparseAdapter
    mask: SparsityMask
    w_final: ParameterMap
    stage_masks: list[SparsityMask]
    stage_records: list[RunRecord]


def iterative_lota(
    model: ToyModel,
    dataset: Dataset,
    sparsity_schedule: Sequence[float],
    config: TrainConfig,
) -> IterativeLotaResult:
    """Chain of sparse trainings with progressively sparser masks.

    Stage 0 calibrates from dense training; stage j extracts its mask from
    the task vector of stage j-1's sparse model, so kept sets are nested.
    """
    schedule = list(sparsity_schedule)
    if not schedule:
        raise ConfigError("sparsity schedule must be nonempty")
    if any(not 0.0 <= s < 1.0 for s in schedule):
        raise ConfigError("schedule entries must be in [0, 1)")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ConfigError("schedule must be strictly increasing")
    w_p = model.params
    first = lota(model, dataset, schedule[0], config)
    masks = [first.mask]
    records = [first.train_record]
    w_final, mask = first.w_final, first.mask
    n = w_p.total_elements
    for s in schedule[1:]:
        tv = compute_task_vector(w_final, w_p)
        k = round_half_up((1.0 - s) * n)
        kept = topk_keep_flat(tv.entries, k, allowed=mask.flat)
        mask = SparsityMask.from_flat(w_p.layout, kept, declared_sparsity=s)
        w_final, rec = train(model, dataset, config.replace(mask=mask))
        masks.append(mask)
        records.append(rec)
    tv = apply_mask(compute_task_vector(w_final, w_p), mask)
    return IterativeLotaResult(
        adapter=encode(tv),
        mask=mask,
        w_final=w_final,
        stage_masks=masks,
        stage_records=records,
    )


@dataclass(frozen=True)
class LottoResult:
    masks: list[SparsityMask]
    constraint_trace: list[SparsityMask]
    w_final: ParameterMap
    adapters: list[SparseAdapter]
    records: list[RunRecord]


def lotto(
    model: ToyModel,
    datasets: Sequence[Dataset],
    s: float,
    config: TrainConfig,
    initial_constraints: SparsityMask | None = None,
    base: ParameterMap | None = None,
) -> LottoResult:
    """Sequential adaptation with mutually disjoint per-task masks.

    Per task: train only outside the constraint set, extract a mask from
    that run's task vector (restricted to unconstrained coordinates),
    retrain under the mask, then add it to the constraint set. Constraints
    start from `initial_constraints`, else from the nonzero support of
    w_start against `base`, else empty.
    """
    if not datasets:
        raise ConfigError("lotto needs at least one dataset")
    if not 0.0 <= s < 1.0:
        raise ConfigError("sparsity ratio must be in [0, 1)")
    if config.mask is not None:
        raise ConfigError("lotto builds its own masks; config.mask must be None")
    w_i = model.params
    if initial_constraints is not None:
        initial_constraints.layout.require_aligned(
            w_i.layout, "constraints and model"
        )
        constraints = initial_constraints
    elif base is not None:
        constraints = support_mask(compute_task_vector(w_i, base))
    else:
        constraints = all_false_mask(w_i)
    n = w_i.total_elements
    k = round_half_up((1.0 - s) * n)
    trace = [constraints]
    masks: list[SparsityMask] = []
    adapters: list[SparseAdapter] = []
    records: list[RunRecord] = []
    for ds in datasets:
        allowed = ~constraints.flat
        if k > int(allowed.sum()):
            raise CapacityError(
                f"constraint set exhausted: need {k} free coordinates, "
                f"have {int(allowed.sum())}"
            )
        cal_config = config.replace(
            epochs=_calibration_budget(config), mask=mask_complement(constraints)
        )
        w_c, cal_rec = train(model.with_params(w_i), ds, cal_config)
        tv_c = compute_task_vector(w_c, w_i)
        task_mask = SparsityMask.from_flat(
            w_i.layout, topk_keep_flat(tv_c.entries, k, allowed=allowed), s
        )
        w_f, fin_rec = train(
            model.with_params(w_i), ds, config.replace(mask=task_mask)
        )
        adapters.append(encode(apply_mask(compute_task_vector(w_f, w_i), task_mask)))
        masks.append(task_mask)
        constraints = mask_union(constraints, task_mask)
        trace.append(constraints)
        records.extend([cal_rec, fin_rec])
        w_i = w_f
    return LottoResult(
        masks=masks,
        constraint_trace=trace,
        w_final=w_i,
        adapters=adapters,
        records=records,
    )


def mixed_data_fft(
    model: ToyModel,
    dataset_b: Dataset,
    dataset_a: Dataset,
    mix_fraction: float,
    config: TrainConfig,
) -> tuple[ParameterMap, RunRecord]:
    """Dense training on B plus a seed-deterministic sample of A mixed in."""
    if not 0.0 <= mix_fraction <= 1.0:
        raise ConfigError("mix_fraction must be in [0, 1]")
    if config.mask is not None:
        raise ConfigError("mixed-data training is dense; config.mask must be None")
    k = round_half_up(mix_fraction * len(dataset_b))
    if k == 0:
        return train(model, dataset_b, config)
    rng = np.random.default_rng(config.seed)
    idx = rng.choice(len(dataset_a), size=k, replace=k > len(dataset_a))
    mixed = concat_datasets([dataset_b, dataset_a.take(idx)], dataset_b.task_id)
    return train(model, mixed, config)
