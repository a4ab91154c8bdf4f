"""Finite-difference gradient oracle shared by unit and acceptance tests."""

import numpy as np

from lota import Dataset, ParameterMap, ToyModel
from lota.models import (
    _forward_backward_state,
    _forward_pass,
    _loss_and_output_grad,
)


def analytic_grads(model, batch):
    """Loss and float32 gradients (one view per name) from the step helper
    `train` runs, on the float32 params and batch as `train` reads them."""
    layout = model.params.layout
    grads = layout.views(np.empty(layout.size, np.float32))
    loss = _forward_backward_state(
        model, model.params, batch.inputs, batch.targets, grads
    )
    return loss, grads


def finite_difference_grads(model, batch, h=1e-4):
    """Central finite differences on a float64 replica of the forward pass."""

    def loss_at(state64):
        out, _ = _forward_pass(model, state64, batch.inputs.astype(np.float64))
        targets = (
            batch.targets
            if batch.is_classification
            else batch.targets.astype(np.float64)
        )
        loss, _ = _loss_and_output_grad(model, out, targets)
        return loss

    base = {n: a.astype(np.float64) for n, a in model.params.items()}
    grads = {}
    for name, arr in base.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_at(base)
            flat[i] = orig - h
            down = loss_at(base)
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        grads[name] = g
    return grads


def max_relative_error(analytic, fd):
    worst = 0.0
    for name, arr in fd.items():
        scale = max(np.abs(arr).max(), 1e-6)
        worst = max(worst, float(np.abs(analytic[name] - arr).max() / scale))
    return worst


def _min_preact_magnitude(model, batch):
    """The smallest |preactivation| of a ReLU model's float64 forward pass."""
    h, smallest = batch.inputs.astype(np.float64), np.inf
    for i in range(len(model.widths) - 1):
        z = h @ model.params[f"layer{i}.weight"].astype(np.float64)
        z += model.params[f"layer{i}.bias"]
        smallest = min(smallest, float(np.abs(z).min()))
        h = np.maximum(z, 0.0)
    return smallest


def random_generic_problem(seed, head):
    """Random small model + batch at a generic point.

    Re-samples until no preactivation sits within 1e-3 of a ReLU kink,
    where central differences and the subgradient convention legitimately
    disagree.
    """
    for attempt in range(50):
        rng = np.random.default_rng((seed, attempt))
        widths = [int(rng.integers(2, 5)) for _ in range(int(rng.integers(2, 4)) + 1)]
        activation = str(rng.choice(["tanh", "relu"]))
        model = ToyModel.initialize(widths, activation, head, seed=seed + attempt)
        jitter = {
            n: (a + 0.1 * rng.standard_normal(a.shape).astype(np.float32))
            for n, a in model.params.items()
        }
        model = model.with_params(ParameterMap(jitter))
        n = int(rng.integers(3, 8))
        inputs = rng.standard_normal((n, widths[0])).astype(np.float32)
        if head == "softmax-cross-entropy":
            targets = rng.integers(0, widths[-1], size=n)
        else:
            targets = rng.standard_normal((n, widths[-1])).astype(np.float32)
        batch = Dataset(inputs, targets)
        if activation == "tanh" or _min_preact_magnitude(model, batch) > 1e-3:
            return model, batch
    raise RuntimeError("could not find a generic evaluation point")
