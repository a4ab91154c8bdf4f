"""Small differentiable MLP models and in-memory datasets.

Forward/backward math runs in float64 internally for gradient fidelity;
parameters and emitted gradients are float32 like everything else in the
toolkit. Parameter-group names are "layer{i}.weight" / "layer{i}.bias".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DivergenceError
from .params import ParameterMap

ACTIVATIONS = ("tanh", "relu")
HEADS = ("softmax-cross-entropy", "mean-squared-error")


@dataclass(frozen=True)
class Dataset:
    """Inputs plus targets (class indices or regression vectors)."""

    inputs: np.ndarray
    targets: np.ndarray
    task_id: str = ""

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
        return Dataset(self.inputs[indices], self.targets[indices], self.task_id)


def concat_datasets(parts: Sequence[Dataset], task_id: str | None = None) -> Dataset:
    if not parts:
        raise ValueError("need at least one dataset")
    kinds = {p.is_classification for p in parts}
    if len(kinds) != 1:
        raise ValueError("cannot concatenate classification with regression data")
    return Dataset(
        np.concatenate([p.inputs for p in parts]),
        np.concatenate([p.targets for p in parts]),
        task_id if task_id is not None else parts[0].task_id,
    )


def parameter_names(widths: Sequence[int]) -> list[str]:
    names = []
    for i in range(len(widths) - 1):
        names.append(f"layer{i}.weight")
        names.append(f"layer{i}.bias")
    return names


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
        if self.params.shapes() != expected:
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
        """Network outputs (logits or regression values), float64."""
        state = {n: a.astype(np.float64) for n, a in self.params.items()}
        out, _, _ = _forward_pass(self, state, np.asarray(x, dtype=np.float64))
        return out


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    return np.tanh(z) if activation == "tanh" else np.maximum(z, 0.0)


def _activate_grad(z, a, activation: str) -> np.ndarray:
    return 1.0 - a * a if activation == "tanh" else (z > 0.0).astype(np.float64)


def _forward_pass(model: ToyModel, state64: dict, x64: np.ndarray):
    n_layers = len(model.widths) - 1
    acts = [x64]
    preacts = []
    h = x64
    for i in range(n_layers):
        z = h @ state64[f"layer{i}.weight"] + state64[f"layer{i}.bias"]
        preacts.append(z)
        if i < n_layers - 1:
            h = _activate(z, model.activation)
            acts.append(h)
        else:
            h = z
    return h, acts, preacts


def _loss_and_output_grad(model: ToyModel, out: np.ndarray, targets: np.ndarray):
    batch = out.shape[0]
    if model.head == "softmax-cross-entropy":
        if targets.ndim != 1:
            raise ValueError("cross-entropy head needs class-index targets")
        if targets.min() < 0 or targets.max() >= out.shape[1]:
            raise ValueError("class index out of range for model output width")
        shifted = out - out.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        log_p = shifted - log_z
        loss = float(-log_p[np.arange(batch), targets].mean())
        d_out = np.exp(log_p)
        d_out[np.arange(batch), targets] -= 1.0
        d_out /= batch
    else:
        if targets.ndim != 2:
            raise ValueError("mean-squared-error head needs vector targets")
        err = out - targets
        loss = float((err * err).sum(axis=1).mean())
        d_out = 2.0 * err / batch
    return loss, d_out


def _forward_backward_state(model: ToyModel, state64, batch: Dataset, grads) -> float:
    """Loss for float64 `state64` arrays; writes float32 gradients into `grads`."""
    n_layers = len(model.widths) - 1
    x64 = batch.inputs.astype(np.float64)
    out, acts, preacts = _forward_pass(model, state64, x64)
    # float32 regression targets promote exactly to float64 inside the loss
    loss, d_z = _loss_and_output_grad(model, out, batch.targets)
    for i in range(n_layers - 1, -1, -1):
        grads[f"layer{i}.weight"][...] = acts[i].T @ d_z
        grads[f"layer{i}.bias"][...] = d_z.sum(axis=0)
        if i > 0:
            d_a = d_z @ state64[f"layer{i}.weight"].T
            d_z = d_a * _activate_grad(preacts[i - 1], acts[i], model.activation)
    return loss


@dataclass(frozen=True)
class ForwardBackward:
    loss: float
    grads: ParameterMap


def forward_backward(model: ToyModel, batch: Dataset) -> ForwardBackward:
    """Mean-reduced loss and gradients over a batch."""
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    state64 = {n: a.astype(np.float64) for n, a in model.params.items()}
    grads = {n: np.empty(a.shape, np.float32) for n, a in model.params.items()}
    loss = _forward_backward_state(model, state64, batch, grads)
    if not np.isfinite(loss):
        raise DivergenceError(f"non-finite loss {loss}")
    return ForwardBackward(loss=loss, grads=ParameterMap._wrap(grads))
