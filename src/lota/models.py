"""Small differentiable MLP models and in-memory datasets.

Forward and backward passes run in float32, the dtype of the parameters,
inputs and gradients everywhere in the toolkit. Parameter-group names are
"layer{i}.weight" / "layer{i}.bias".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .params import ParameterMap

ACTIVATIONS = ("tanh", "relu")
HEADS = ("softmax-cross-entropy", "mean-squared-error")


@dataclass(frozen=True)
class Dataset:
    """Inputs plus targets (class indices or regression vectors)."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        inputs = np.ascontiguousarray(self.inputs, dtype=np.float32)
        if inputs.ndim != 2:
            raise ValueError("inputs must be a 2-D array (examples x features)")
        if self.targets.ndim == 1:
            targets = np.ascontiguousarray(self.targets, dtype=np.int64)
        else:
            targets = np.ascontiguousarray(self.targets, dtype=np.float32)
            if not np.isfinite(targets).all():
                raise ValueError("non-finite regression targets")
        if len(targets) != len(inputs):
            raise ValueError("inputs and targets must have the same length")
        if not np.isfinite(inputs).all():
            raise ValueError("non-finite inputs")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    @property
    def is_classification(self) -> bool:
        return self.targets.ndim == 1

    def __len__(self) -> int:
        return len(self.inputs)

    def take(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.inputs[indices], self.targets[indices])


def concat_datasets(parts: Sequence[Dataset]) -> Dataset:
    if not parts:
        raise ValueError("need at least one dataset")
    kinds = {p.is_classification for p in parts}
    if len(kinds) != 1:
        raise ValueError("cannot concatenate classification with regression data")
    return Dataset(
        np.concatenate([p.inputs for p in parts]),
        np.concatenate([p.targets for p in parts]),
    )


@dataclass(frozen=True)
class ToyModel:
    widths: tuple[int, ...]
    activation: str
    head: str
    params: ParameterMap

    def __post_init__(self):
        if len(self.widths) < 2 or any(w <= 0 for w in self.widths):
            raise ValueError("widths must be >= 2 positive layer sizes")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.head not in HEADS:
            raise ValueError(f"unknown head {self.head!r}")
        expected = {}
        for i in range(len(self.widths) - 1):
            expected[f"layer{i}.weight"] = (self.widths[i], self.widths[i + 1])
            expected[f"layer{i}.bias"] = (self.widths[i + 1],)
        if self.params.layout.shapes != expected:
            raise ValueError("parameter map does not match architecture")

    @classmethod
    def initialize(
        cls, widths: Sequence[int], activation: str, head: str, seed: int
    ) -> "ToyModel":
        rng = np.random.default_rng(seed)
        entries = {}
        for i in range(len(widths) - 1):
            fan_in = widths[i]
            entries[f"layer{i}.weight"] = (
                rng.standard_normal((widths[i], widths[i + 1])) / np.sqrt(fan_in)
            ).astype(np.float32)
            entries[f"layer{i}.bias"] = np.zeros(widths[i + 1], dtype=np.float32)
        return cls(tuple(widths), activation, head, ParameterMap(entries))

    def with_params(self, params: ParameterMap) -> "ToyModel":
        return ToyModel(self.widths, self.activation, self.head, params)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Network outputs (logits or regression values), float32."""
        out, _ = _forward_pass(self, self.params, np.asarray(x, dtype=np.float32))
        return out


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    """The activation of the preactivation `z`, written over it."""
    return np.tanh(z, out=z) if activation == "tanh" else np.maximum(z, 0.0, out=z)


def _activate_grad(a: np.ndarray, activation: str) -> np.ndarray:
    """The activation's derivative, from its output `a`: ReLU's `a > 0` is
    the test `z > 0` on its input."""
    if activation == "tanh":
        g = a * a
        return np.subtract(1.0, g, out=g)
    return a > 0.0


def _forward_pass(model: ToyModel, state, x: np.ndarray):
    """Outputs, and each layer's input, for the weights `state[name]`.

    The arithmetic is that of `state` and `x`. Weights may carry leading
    replica axes, `(R, in, out)` and `(R, out)`; `np.matmul` broadcasts
    shared `(batch, in)` inputs over the stack and pairs `(R, batch, in)`
    inputs with it replica by replica.
    """
    n_layers = len(model.widths) - 1
    acts = [x]
    h = x
    for i in range(n_layers):
        h = h @ state[f"layer{i}.weight"]
        h += state[f"layer{i}.bias"][..., None, :]
        if i < n_layers - 1:
            acts.append(_activate(h, model.activation))
    return h, acts


def _row_max(out: np.ndarray) -> np.ndarray:
    """The max of each row of `out` over its last axis, kept as a length-1 axis.

    Stacked `(R, batch, classes)` logits take it as a chain of `np.maximum`
    over the class columns: each call runs over all R * batch rows at once,
    where `np.maximum.reduce` pays per row for its short reduction. A lone
    replica's 2-D logits, and a single class, keep the reduction, which is
    faster there. Both forms pick the same element of each row, signed zeros
    included.
    """
    if out.ndim < 3 or out.shape[-1] < 2:
        return np.maximum.reduce(out, axis=-1, keepdims=True)
    top = np.maximum(out[..., :1], out[..., 1:2])
    for c in range(2, out.shape[-1]):
        np.maximum(top, out[..., c : c + 1], out=top)
    return top


def _loss_and_output_grad(model: ToyModel, out: np.ndarray, targets):
    """Mean loss over the batch axis (-2), one per replica, and its gradient.

    Targets are shared by every replica, or carry their own leading replica
    axis: `(R, batch)` class indices or `(R, batch, out)` vectors. They are
    not checked here: `_train_batch` checks each run's data against the
    model once, before any step.
    """
    batch = out.shape[-2]
    if model.head == "softmax-cross-entropy":
        shifted = out - _row_max(out)
        log_z = np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))
        log_p = np.subtract(shifted, log_z, out=shifted)
        # each example's target class as a flat index into log_p; the picks
        # come out contiguous, so each replica's sum runs in the order a
        # lone replica's does
        flat = log_p.reshape(-1)
        picked = np.arange(0, flat.size, out.shape[-1]).reshape(out.shape[:-1])
        picked += targets
        # what `np.mean` computes: a float32 sum over the batch, then / count
        loss = -(np.add.reduce(flat.take(picked), axis=-1) / batch)
        d_out = np.exp(log_p, out=log_p)
        flat[picked] -= 1.0
        d_out /= batch
    else:
        err = out - targets
        loss = np.add.reduce(np.add.reduce(err * err, axis=-1), axis=-1) / batch
        err *= 2.0
        d_out = np.divide(err, batch, out=err)
    return loss, d_out


def _forward_backward_state(model: ToyModel, state, inputs, targets, grads):
    """Loss for the weights `state[name]`; writes the gradients into `grads`.

    With a leading replica axis on the views of `state` and `grads`, it
    returns one loss per replica, each bit-identical to a lone replica's.
    The batch's `inputs` and `targets` are shared by every replica, or
    carry the replica axis too: one batch per replica.
    """
    n_layers = len(model.widths) - 1
    out, acts = _forward_pass(model, state, inputs)
    loss, d_z = _loss_and_output_grad(model, out, targets)
    for i in range(n_layers - 1, -1, -1):
        np.matmul(acts[i].swapaxes(-1, -2), d_z, out=grads[f"layer{i}.weight"])
        np.add.reduce(d_z, axis=-2, out=grads[f"layer{i}.bias"])
        if i > 0:
            # a contiguous copy of the transposed weights gives the bits of
            # the transposed view, and a faster product
            w_t = np.ascontiguousarray(state[f"layer{i}.weight"].swapaxes(-1, -2))
            d_z = d_z @ w_t
            d_z *= _activate_grad(acts[i], model.activation)
    return loss
