"""Masked-gradient training with RMSProp, plus the adaptation drivers.

A LoTA phase (`_lota_phase`) runs on a base model w_P: calibrate by
training within an allowed set, extract the top-k of the task vector
within that set (`sparsify`), reset to w_P, retrain with the mask and
encode the adapter (`_retrain`). Each phase or retrain ends in a
`LotaResult`, and a driver returns the ones it ran.
  * lota: one phase, and its `LotaResult`. A grid of phases, such as the
    sparsity ablation's, is `_together` of one `lota.lockstep` per plan.
  * iterative_lota: one phase, then progressively sparser masks, each
    extracted from the previous stage's sparse task vector; it returns
    every stage's `LotaResult`, in order.
  * lotto: one phase per task, in sequence, under a growing constraint
    set; each task's mask is disjoint from every earlier one. It returns
    every task's `LotaResult`, in order.
  * mixed_data_fft: dense training on task B with a sample of A mixed in.

`train` keeps flat state and clips each group's gradient norm; with a mask,
RMSProp gathers and scatters only the kept indices, so coordinates with
mask=false stay bitwise-frozen at their initial values. Each run's data and
mask are checked against the model once, before any step.

`train` is a pure function of what it reads, so inside `_train_cache()`
(which `harness.run_experiment` opens once per experiment) a call whose
model, initial params, data, config and mask bits match an earlier call
returns that call's result instead of training again; outside it, nothing
is cached.

There is one optimizer step loop, over a leading replica axis: R runs
train in lockstep on an (R, P) state, and each replica is bit-identical to
its solo run. `_train_batch` forms the stacks: runs whose models differ
only in their params, which are each replica's start weights, whose
configs differ only in `mask` and `seed` and whose datasets share one
shape train as one stack. Each epoch draws one permutation per distinct
seed, and a step gathers each replica's slice of its own order from its
own dataset; when every run names one dataset and one seed, the step
gathers one shared batch. `train` is `_train_batch` of one run. Inside
`_train_cache()` each finished replica is stored exactly as `train` would
store it, under its own initial digest, so the `train` calls that follow
a batch only hit. A replica whose loss turns non-finite gets its
`DivergenceError` at that step; its row keeps stepping with the stack, but
nothing reads it again. It is not cached, so its `train` call raises as
before, and neither is one whose weights overflow while its loss stays
finite; the others in its stack keep their results.

Each driver is written once, as a lockstep generator, and it trains only
through `yield from _trained(runs)`: that yields the runs, so that the
driver above trains them ahead, and then returns their `train` calls,
which hit. `_solo` drives one such generator alone, training each list it
yields as one `_train_batch` while a memo is open, and each public driver
is `_solo` over its generator, which it keeps as `.lockstep`. `_together`
drives several as one generator that yields the union of their runs:
`harness.run_experiment` drives one per seed this way, and a sequential
seed its method pairs' task-B phases.

A stacked step issues a fixed set of numpy calls whatever R is. The
`_ReplicaStack` holds preallocated scratch for the clip and the update,
and the data is checked once, before the loop, not per step. The whole
step runs in float32: the clip takes its norms from the float32 gradients
themselves, once per parameter name over the whole stack, and RMSProp runs
in place on the scratch, in the order of the per-name formula.
"""

from __future__ import annotations

import contextlib
import contextvars
import copy
import dataclasses
import functools
import hashlib
import math
from dataclasses import dataclass, field
from typing import Generator, Sequence

import numpy as np

from .adapter import SparseAdapter, encode
from .config import (COUNT_MAX, SEED_MAX, check_fields, checked, increasing, integer,
                     optional, real, seq)
from .errors import ConfigError, DivergenceError, LotaError, NonFiniteError
from .models import Dataset, ToyModel, concat_datasets, _forward_backward_state
from .params import ParameterMap, digest
from .sparsity import (
    SPARSITY,
    SparsityMask,
    _kept_count,
    all_false_mask,
    apply_mask,
    compute_task_vector,
    mask_complement,
    mask_union,
    random_mask,
    round_half_up,
    sparsify,
)


POSITIVE = real("(0, inf)")
EPOCHS = integer(0, COUNT_MAX)
FRACTION = real("[0, 1]")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = checked(POSITIVE)
    batch_size: int = checked(integer(1, COUNT_MAX))
    epochs: int = checked(EPOCHS)
    seed: int = checked(integer(0, SEED_MAX))
    calibration_epochs: int | None = checked(optional(EPOCHS), default=None)
    rmsprop_decay: float = checked(real("(0, 1)"), default=0.99)
    rmsprop_epsilon: float = checked(POSITIVE, default=1e-8)
    clip_group_norm: float = checked(POSITIVE, default=1.0)
    # set in code only: a JSON config names a mask file instead
    mask: SparsityMask | None = None

    def __post_init__(self):
        check_fields(self)

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


@dataclass
class RunRecord:
    config: dict
    initial_digest: str
    final_digest: str | None
    loss_trace: list[float] = field(default_factory=list)
    diverged: bool = False

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


class _ClipScratch:
    """What the group clip of the (R, P) float32 gradients `g` in one `Layout`
    reuses each step.

    `spans` holds each parameter name's `(lo, hi)` in a row, and `parts` the
    views of `g` whose stacked product leaves the squared norm of replica r's
    group k in the float32 `norms[k, r]`.
    """

    def __init__(self, layout, g):
        replicas = len(g)
        self.spans = tuple(zip(layout.offsets, layout.offsets[1:]))
        self.norms = np.empty((len(self.spans), replicas), np.float32)
        # (R, 1, n) @ (R, n, 1) into an (R, 1, 1) view of norms[k]
        self.parts = [
            (g[:, None, lo:hi], g[:, lo:hi, None], out.reshape(replicas, 1, 1))
            for (lo, hi), out in zip(self.spans, self.norms)
        ]


def _clip_group_norm_inplace(g, max_norm: float, scratch: _ClipScratch) -> None:
    """Scale each group of the (R, P) gradients `g` to L2 norm <= max_norm.

    A group is one replica's coordinates of one parameter name, so each
    replica is clipped on its own. `scratch` is built over `g`. The norms
    are taken in float32 from `g` itself, once per name over the whole
    stack: the stacked `np.matmul` of each row's slice with itself runs that
    slice's `np.dot` (`sdot`), so each norm is bitwise `np.sqrt(np.dot(f,
    f))` of its group `f`, whatever the BLAS thread count. Only the groups
    over the bound are scaled, in place, by `max_norm / norm` rounded to
    float32; the rest stay untouched. A group over about 1.8e19 overflows
    its float32 sum of squares, and numpy warns; it takes its norm in
    float64 instead, so that it is scaled to the bound and not to zero.
    """
    for row, column, out in scratch.parts:
        np.matmul(row, column, out=out)
    norms = np.sqrt(scratch.norms, out=scratch.norms)
    for k, r in zip(*(norms > max_norm).nonzero()):
        lo, hi = scratch.spans[k]
        norm = float(norms[k, r])
        if norm == math.inf:
            norm = math.sqrt(np.square(g[r, lo:hi], dtype=np.float64).sum())
        g[r, lo:hi] *= np.float32(max_norm / norm)


def _rmsprop_update_inplace(w, g, v, config: TrainConfig, kept, state, scratch) -> None:
    """RMSProp on flat float32 vectors, only at the `kept` indices if given.

    `w` and `v` hold only the updated coordinates; the gradient `g` and the
    weights `state` are full length. Without `kept`, `w` is `state` itself;
    with it, the new weights of the kept coordinates are written back.
    `scratch` is float32 buffers of `w`'s length: two, and a third for the
    gathered gradient when `kept` is given. The arithmetic is that of
    `v = decay * v + (1 - decay) * g * g; w -= lr * g / (sqrt(v) + eps)`,
    in that order.
    """
    decay = np.float32(config.rmsprop_decay)
    one_minus = np.float32(1.0 - config.rmsprop_decay)
    lr = np.float32(config.learning_rate)
    eps = np.float32(config.rmsprop_epsilon)
    step, denom, *gathered = scratch
    if kept is not None:
        # "clip" writes straight into `out`; the kept indices are all valid
        g = g.take(kept, out=gathered[0], mode="clip")
    v *= decay
    np.multiply(g, g, out=step)
    step *= one_minus
    v += step
    np.multiply(g, lr, out=step)
    np.sqrt(v, out=denom)
    denom += eps
    step /= denom
    w -= step
    if kept is not None:
        state[kept] = w


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

    The state is flat and float32, in sorted name order: the weights that
    the forward pass reads and the gradients that it writes, each with one
    view per name, plus the RMSProp state. With a mask in the config, the
    update touches only the kept indices, so every mask=false coordinate
    stays bitwise equal to its initial value. This is bit-identical to a
    dense update of the masked gradient, whose v stays 0 wherever the
    gradient is 0.

    Inside `_train_cache()` a repeated call returns the first call's
    read-only weights and a fresh copy of its record; a run that diverges
    is not cached.
    """
    (result,) = _train_batch([(model, dataset, config)])
    if isinstance(result, LotaError):
        raise result
    return result


# what `train` takes: one run of a replica stack
Run = tuple[ToyModel, Dataset, TrainConfig]


def _train_batch(
    runs: Sequence[Run],
) -> list[tuple[ParameterMap, RunRecord] | LotaError]:
    """`train` for each `(model, dataset, config)` run, in replica stacks.

    Returns, per run, what `train` returns for it, or the error that
    `train` raises: the `ConfigError` or `AlignmentError` of a run that
    `_check_data` refuses, which joins no stack, a `DivergenceError`, or a
    `NonFiniteError` for weights that overflowed while the loss stayed
    finite. Runs whose models differ only in their params, whose configs
    differ only in `mask` and `seed` and whose datasets share one shape
    train as one stack, and runs that `train` would key equal train once.
    Inside `_train_cache()` a run that is cached is not trained again, and
    each run that finishes is cached exactly as `train` caches it, so a
    later `train` call is a hit.
    """
    cache = _TRAIN_CACHE.get()
    if cache is None:  # outside a memo, one of this call's own
        cache = {}
    results: list = [None] * len(runs)
    stacks: dict[tuple, dict[bytes, list[int]]] = {}  # stack -> key -> its runs
    for i, (model, dataset, config) in enumerate(runs):
        try:
            _check_data(model, dataset, config.mask)
        except LotaError as exc:
            results[i] = exc
            continue
        key = _train_key(model, digest(model.params).hex(), dataset, config)
        if key in cache:
            final, record = cache[key]
            results[i] = (final, copy.deepcopy(record))
            continue
        # one stack per architecture, config but for mask and seed, and data shapes
        stack = (model.widths, model.activation, model.head,
                 config.replace(mask=None, seed=0),
                 dataset.inputs.shape, dataset.targets.shape, dataset.targets.dtype)
        stacks.setdefault(stack, {}).setdefault(key, []).append(i)
    for misses in stacks.values():
        firsts = [runs[ids[0]] for ids in misses.values()]
        records = [
            RunRecord(c.snapshot(), digest(m.params).hex(), None) for m, _, c in firsts
        ]
        finals = _step_loop(firsts, records)
        for (key, ids), record, final in zip(misses.items(), records, finals):
            if not isinstance(final, LotaError):
                record.final_digest = digest(final).hex()
                cache[key] = (final, record)
            for i in ids:
                results[i] = (
                    final if isinstance(final, LotaError)
                    else (final, copy.deepcopy(record))
                )
    return results


def _solo(steps: Generator[list[Run], None, object]):
    """Drive a lockstep generator alone: train each list of runs that it
    yields into the open memo, and return what it returns."""
    while True:
        try:
            runs = next(steps)
        except StopIteration as stop:
            return stop.value
        if _TRAIN_CACHE.get() is not None:
            _train_batch(runs)  # a failed run is not cached: `train` raises it


def _trained(runs: list[Run]) -> Generator[list[Run], None, list]:
    """The one place a lockstep generator trains: yield `runs`, so that its
    driver trains them ahead, then return `train` of each, in order."""
    yield runs
    return [train(*run) for run in runs]


def _together(
    steps: Sequence[Generator[list[Run], None, object]],
) -> Generator[list[Run], None, list]:
    """Lockstep generators driven as one: it returns what each returns, in order.

    Each round sends every live generator on, in order, to its next yield,
    and yields the union of the runs they yielded, so that they train ahead
    as shared stacks. A generator that raises is dropped and its error
    kept, and so is every generator after it, which a one-at-a-time loop
    would never reach; at the end the error of the first failing generator
    is raised, which is the error that such a loop raises.
    """
    results: list = [None] * len(steps)
    live = dict(enumerate(steps))
    failure = None
    while live:
        runs = []
        for i in list(live):
            try:
                runs += next(live[i])
            except StopIteration as stop:
                results[i] = stop.value
                del live[i]
            except Exception as exc:  # any error: the loop would raise it
                failure = exc
                live = {j: gen for j, gen in live.items() if j < i}
                break
        if runs or live:
            yield runs
    if failure is not None:
        raise failure
    return results


def _driver(steps):
    """The solo driver of the lockstep generator function `steps`: it returns
    what the generator returns, and keeps `steps` as `.lockstep`."""

    @functools.wraps(steps)
    def solo(*args, **kwargs):
        return _solo(steps(*args, **kwargs))

    solo.lockstep = steps
    return solo


def _check_data(
    model: ToyModel, dataset: Dataset, mask: SparsityMask | None = None
) -> None:
    """Refuse a run before any step: a dataset that is empty or does not fit
    the model's input and head, or a mask not aligned with the model's params."""
    if len(dataset) == 0:
        raise ConfigError("dataset must be nonempty")
    width, outputs = model.widths[0], model.widths[-1]
    if dataset.inputs.shape[1] != width:
        raise ConfigError(
            f"inputs have width {dataset.inputs.shape[1]}; the model takes {width}"
        )
    targets = dataset.targets
    if model.head == "softmax-cross-entropy":
        if not dataset.is_classification:
            raise ConfigError("a cross-entropy head needs class-index targets")
        if targets.min() < 0 or targets.max() >= outputs:
            raise ConfigError(f"class indices must be in [0, {outputs})")
    elif dataset.is_classification or targets.shape[1:] != (outputs,):
        raise ConfigError(
            f"a mean-squared-error head needs float targets of width {outputs}"
        )
    if mask is not None:
        mask.layout.require_aligned(model.params.layout, "mask and model parameters")


def _epoch_order(seeds: Sequence[int], epoch: int, n: int) -> np.ndarray:
    """The order in which each replica visits its n examples in `epoch`.

    One `(n,)` permutation that every replica shares when all have one
    seed, else the `(R, n)` stack of each replica's seed's permutation.
    """
    perms = {  # one draw per distinct seed
        s: np.random.default_rng(s ^ epoch).permutation(n) for s in dict.fromkeys(seeds)
    }
    if len(perms) == 1:
        (perm,) = perms.values()
        return perm
    return np.stack([perms[s] for s in seeds])


def _step_loop(
    runs: Sequence[Run], records: list[RunRecord]
) -> list[ParameterMap | DivergenceError | NonFiniteError]:
    """The optimizer step loop: one replica per run, all in lockstep.

    Replica r starts from the params of `runs[r]`'s model and trains on its
    dataset under its mask, visiting the data in the order that its seed
    draws each epoch; the datasets share one length, and every other
    hyperparameter is shared. Each step gathers one index slice of the
    data: one batch that every replica shares when all name one dataset
    and one seed, else each replica's own rows. It then runs one
    forward/backward over the stack, one group clip that takes one norm
    per parameter name over the stack, and one RMSProp update over the
    replicas' kept sets. The stack's state, data and scratch are built
    once, by `_ReplicaStack(runs)`.

    A replica whose loss turns non-finite gets, at that step, the
    `DivergenceError` that its solo run raises. Its row keeps stepping
    with the stack, since every op of a step is per replica, but nothing
    reads it again: no more losses and no final weights. The loop returns
    once every replica has an outcome. A replica whose weights overflowed
    while its loss stayed finite ends with the `NonFiniteError` that its
    final weights raise, and the others keep their results. Appends each
    live replica's epoch losses to its record.
    """
    model, dataset, config = runs[0]
    layout = model.params.layout
    seeds = [c.seed for _, _, c in runs]
    stack = _ReplicaStack(runs)
    outcomes: list = [None] * len(runs)
    losses = [[] for _ in runs]
    n = len(dataset)
    for epoch in range(config.epochs):
        order = _epoch_order(seeds, epoch, n)
        for lo in range(0, n, config.batch_size):
            x, y = stack.batch(order[..., lo : lo + config.batch_size])
            loss = _forward_backward_state(model, stack.weights, x, y, stack.grads)
            values = loss.reshape(-1).tolist()  # one per replica
            if not all(map(math.isfinite, values)):
                for r, value in enumerate(values):
                    if outcomes[r] is None and not math.isfinite(value):
                        records[r].diverged = True
                        outcomes[r] = DivergenceError(
                            f"non-finite loss at epoch {epoch}", partial_record=records[r]
                        )
                if None not in outcomes:
                    return outcomes
            _clip_group_norm_inplace(stack.g, config.clip_group_norm, stack.clip)
            _rmsprop_update_inplace(
                stack.w, stack.g_flat, stack.v, config, stack.kept, stack.state_flat,
                stack.scratch,
            )
            for row, value in zip(losses, values):
                row.append(value)
        for r, row in enumerate(losses):
            if outcomes[r] is None:
                records[r].loss_trace.append(float(np.mean(row)))
            row.clear()
    for r, outcome in enumerate(outcomes):
        if outcome is None:
            try:
                outcomes[r] = ParameterMap.from_flat(layout, stack.state[r].copy())
            except NonFiniteError as exc:
                outcomes[r] = exc
    return outcomes


class _ReplicaStack:
    """The training state, data and scratch of the R replicas of `runs`,
    whose params share a `Layout` of size P; all of it is allocated here.

    Row r of the float32 weights `state` and gradients `g`, both (R, P),
    belongs to replica r. `v` is the RMSProp state of the updated
    coordinates: replica r's kept set (all of its P coordinates without a
    mask) at offset r * P of the flattened stack, concatenated in row
    order. `kept` holds those indices, or is None when no replica has a
    mask; then `w` is the flattened state itself, so the update needs no
    gather, and otherwise the kept weights, which each update writes back.
    The data `pool` is one dataset's inputs and targets that every row
    shares, or the per-row datasets concatenated in row order. The
    scratch of the clip (`clip`) and of the update (`scratch`) is built
    here once, and every row keeps its place until the loop ends.
    """

    def __init__(self, runs: Sequence[Run]):
        layout = runs[0][0].params.layout
        size = layout.size
        self.state = state = np.stack([m.params.flat for m, _, _ in runs])
        kept_sets = [None if c.mask is None else np.flatnonzero(c.mask.flat)
                     for _, _, c in runs]
        self.g = np.empty_like(state)
        self.state_flat, self.g_flat = state.reshape(-1), self.g.reshape(-1)
        self.kept = None
        if any(k is not None for k in kept_sets):
            self.kept = np.concatenate([
                (np.arange(size) if k is None else k) + row * size
                for row, k in enumerate(kept_sets)
            ])
        self.w = self.state_flat if self.kept is None else self.state_flat[self.kept]
        self.v = np.zeros_like(self.w)
        self.scratch = [np.empty_like(self.w) for _ in range(2 + (self.kept is not None))]
        self.clip = _ClipScratch(layout, self.g)
        # a lone replica runs on views without the replica axis, which is
        # the same arithmetic with less numpy overhead per call
        lone = len(state) == 1
        # per-row data is gathered from the (R * n, ...) concatenation, with
        # row r's indices offset by r * n, so one `take` serves every row
        datasets = [d for _, d, _ in runs]
        self.pool, self.offsets = (datasets[0].inputs, datasets[0].targets), None
        if any(d is not datasets[0] for d in datasets):
            n = len(datasets[0])
            self.pool = (np.concatenate([d.inputs for d in datasets]),
                         np.concatenate([d.targets for d in datasets]))
            self.offsets = np.arange(0, len(datasets) * n, n)[:, None]
        self.weights = layout.views(state[0] if lone else state)
        self.grads = layout.views(self.g[0] if lone else self.g)

    def batch(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The inputs and targets of the examples at `indices` for every row:
        `(b,)` indices that every row shares, or `(R, b)`, one row each."""
        if self.offsets is not None:
            indices = indices + self.offsets
        inputs, targets = self.pool
        return inputs.take(indices, 0), targets.take(indices, 0)


@dataclass(frozen=True)
class LotaResult:
    adapter: SparseAdapter
    mask: SparsityMask
    w_final: ParameterMap
    calibration_record: RunRecord | None
    train_record: RunRecord


def _retrain(
    model: ToyModel, dataset: Dataset, config: TrainConfig, mask: SparsityMask,
    calibration_record: RunRecord | None,
) -> Generator[list[Run], None, LotaResult]:
    """The retrain-and-encode half of a LoTA phase, as a lockstep generator:
    w_P trained under `mask`."""
    run = (model, dataset, config.replace(mask=mask))
    ((w_final, train_record),) = yield from _trained([run])
    tv = apply_mask(compute_task_vector(w_final, model.params), mask)
    return LotaResult(encode(tv), mask, w_final, calibration_record, train_record)


def _lota_phase(
    model: ToyModel, dataset: Dataset, s: float, config: TrainConfig,
    fraction: float = 1.0, allowed: SparsityMask | None = None,
) -> Generator[list[Run], None, LotaResult]:
    """One LoTA phase as a lockstep generator, with its calibration and mask
    within `allowed` if given.

    It checks its arguments, yields its calibration on the first `fraction`
    of the data, extracts the top-k mask, yields its retrain and returns the
    `LotaResult`. At fraction 0 it yields no runs and draws the mask
    at random over all coordinates instead, so that a grid of phases driven
    by `_together` yields every retrain in one round.
    """
    FRACTION.require("calibration_fraction", fraction)
    if config.mask is not None:
        raise ConfigError("LoTA builds its own masks; config.mask must be None")
    _kept_count(s, model.params.total_elements, allowed)
    if fraction == 0.0:
        yield from _trained([])
        mask, record = random_mask(model.params, s, config.seed), None
    else:
        cal = config.calibration_epochs
        calibration = (
            dataset.take(np.arange(math.ceil(fraction * len(dataset)))),
            config.replace(epochs=config.epochs if cal is None else cal, mask=allowed),
        )
        ((w_c, record),) = yield from _trained([(model, *calibration)])
        mask = sparsify(compute_task_vector(w_c, model.params), s, allowed)
    return (yield from _retrain(model, dataset, config, mask, record))


@_driver
def lota(
    model: ToyModel, dataset: Dataset, s: float, config: TrainConfig,
    calibration_fraction: float = 1.0,
) -> Generator[list[Run], None, LotaResult]:
    """Calibrate a mask by dense training, then retrain w_P under the mask.

    calibration_fraction scales how much data the calibration phase sees;
    0 skips calibration entirely and draws a uniform random mask instead.
    """
    return (yield from _lota_phase(model, dataset, s, config, calibration_fraction))


@_driver
def iterative_lota(
    model: ToyModel, dataset: Dataset, sparsity_schedule: Sequence[float],
    config: TrainConfig,
) -> Generator[list[Run], None, list[LotaResult]]:
    """Chain of sparse trainings with progressively sparser masks; returns
    each stage's `LotaResult`, in order.

    Stage 0 is a LoTA phase; stage j extracts its mask from the task vector
    of stage j-1's sparse model, so kept sets are nested, and has no
    calibration record.
    """
    schedule = list(sparsity_schedule)
    increasing(seq(SPARSITY, min_len=1)).require("sparsity schedule", schedule)
    stages = [(yield from _lota_phase(model, dataset, schedule[0], config))]
    for s in schedule[1:]:
        prev = stages[-1]
        mask = sparsify(compute_task_vector(prev.w_final, model.params), s, prev.mask)
        stages.append((yield from _retrain(model, dataset, config, mask, None)))
    return stages


@_driver
def lotto(
    model: ToyModel,
    datasets: Sequence[Dataset],
    s: float,
    config: TrainConfig,
    initial_constraints: SparsityMask | None = None,
) -> Generator[list[Run], None, list[LotaResult]]:
    """Sequential adaptation with mutually disjoint per-task masks; returns
    each task's `LotaResult`, in order.

    Per task: one LoTA phase from the previous task's weights, calibrated
    and extracted only outside the constraint set; its mask then joins
    the constraint set. Constraints start from `initial_constraints`, else
    empty.
    """
    if not datasets:
        raise ConfigError("lotto needs at least one dataset")
    constraints = initial_constraints
    if constraints is None:
        constraints = all_false_mask(model.params)
    constraints.layout.require_aligned(model.params.layout, "constraints and model")
    phases: list[LotaResult] = []
    for ds in datasets:
        start = model.with_params(phases[-1].w_final) if phases else model
        phase = yield from _lota_phase(
            start, ds, s, config, allowed=mask_complement(constraints)
        )
        phases.append(phase)
        constraints = mask_union(constraints, phase.mask)
    return phases


@_driver
def mixed_data_fft(
    model: ToyModel, dataset_b: Dataset, dataset_a: Dataset, mix_fraction: float,
    config: TrainConfig,
) -> Generator[list[Run], None, tuple[ParameterMap, RunRecord]]:
    """Dense training on B plus a seed-deterministic sample of A mixed in."""
    FRACTION.require("mix_fraction", mix_fraction)
    if config.mask is not None:
        raise ConfigError("mixed-data training is dense; config.mask must be None")
    k = round_half_up(mix_fraction * len(dataset_b))
    data = dataset_b
    if k:
        rng = np.random.default_rng(config.seed)
        idx = rng.choice(len(dataset_a), size=k, replace=k > len(dataset_a))
        data = concat_datasets([dataset_b, dataset_a.take(idx)])
    return (yield from _trained([(model, data, config)]))[0]
