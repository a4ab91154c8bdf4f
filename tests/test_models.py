import numpy as np
import pytest
from gradcheck import (
    analytic_grads,
    finite_difference_grads,
    max_relative_error,
    random_generic_problem,
)

from lota import Dataset, ParameterMap, ToyModel
from lota import models
from lota.models import (
    _activate, _activate_grad, _forward_backward_state, _loss_and_output_grad,
    _row_max, concat_datasets,
)


class TestGradients:
    @pytest.mark.parametrize("head", ["softmax-cross-entropy", "mean-squared-error"])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_finite_differences(self, head, seed):
        model, batch = random_generic_problem(seed, head)
        _, grads = analytic_grads(model, batch)
        fd = finite_difference_grads(model, batch)
        assert max_relative_error(grads, fd) <= 1e-4

    def test_zero_linear_model_zero_loss(self):
        model = ToyModel(
            (3, 2),
            "tanh",
            "mean-squared-error",
            ParameterMap(
                {
                    "layer0.weight": np.zeros((3, 2), np.float32),
                    "layer0.bias": np.zeros(2, np.float32),
                }
            ),
        )
        rng = np.random.default_rng(0)
        batch = Dataset(
            rng.standard_normal((5, 3)).astype(np.float32),
            np.zeros((5, 2), np.float32),
        )
        loss, grads = analytic_grads(model, batch)
        assert loss == 0.0
        assert all(np.all(a == 0.0) for a in grads.values())

    def test_duplicated_rows_match_single_copy(self):
        model, batch = random_generic_problem(3, "softmax-cross-entropy")
        doubled = Dataset(
            np.concatenate([batch.inputs, batch.inputs]),
            np.concatenate([batch.targets, batch.targets]),
        )
        single_loss, single = analytic_grads(model, batch)
        double_loss, double = analytic_grads(model, doubled)
        assert double_loss == pytest.approx(single_loss, rel=1e-12)
        for name, arr in single.items():
            np.testing.assert_allclose(double[name], arr, rtol=1e-6, atol=1e-9)

    def test_cross_entropy_loss_nonnegative(self):
        for seed in range(5):
            model, batch = random_generic_problem(seed, "softmax-cross-entropy")
            loss, _ = analytic_grads(model, batch)
            assert loss >= 0.0

    def test_forward_deterministic(self):
        model, batch = random_generic_problem(4, "softmax-cross-entropy")
        a = model.forward(batch.inputs)
        b = model.forward(batch.inputs)
        np.testing.assert_array_equal(a, b)


class TestDataset:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2), np.float32), np.zeros(2, np.int64))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf, 0.0]], np.float32), np.zeros(1, np.int64))

    def test_take_and_concat(self):
        ds = Dataset(
            np.arange(12, dtype=np.float32).reshape(6, 2),
            np.arange(6, dtype=np.int64),
        )
        sub = ds.take(np.array([0, 2]))
        assert len(sub) == 2
        merged = concat_datasets([sub, sub])
        assert len(merged) == 4

    def test_mixed_kinds_rejected(self):
        cls = Dataset(np.zeros((2, 2), np.float32), np.zeros(2, np.int64))
        reg = Dataset(np.zeros((2, 2), np.float32), np.zeros((2, 1), np.float32))
        with pytest.raises(ValueError):
            concat_datasets([cls, reg])


def out_of_place(z, activation):
    return np.tanh(z) if activation == "tanh" else np.maximum(z, 0.0)


def view_form_backward(model, state, inputs, targets, monkeypatch):
    """The loss and gradients of the backward in its earlier form: each
    activation a new array beside its preactivation, ReLU's derivative taken
    from the preactivation, the row max by `np.maximum.reduce`, and each
    input-gradient product times the transposed view of the weights."""
    n_layers = len(model.widths) - 1
    acts, preacts, h = [inputs], [], inputs
    for i in range(n_layers):
        h = h @ state[f"layer{i}.weight"]
        h += state[f"layer{i}.bias"][..., None, :]
        preacts.append(h)
        if i < n_layers - 1:
            h = out_of_place(h, model.activation)
            acts.append(h)
    with monkeypatch.context() as m:
        m.setattr(models, "_row_max",
                  lambda out: np.maximum.reduce(out, axis=-1, keepdims=True))
        loss, d_z = _loss_and_output_grad(model, h, targets)
    grads = {}
    for i in range(n_layers - 1, -1, -1):
        grads[f"layer{i}.weight"] = acts[i].swapaxes(-1, -2) @ d_z
        grads[f"layer{i}.bias"] = np.add.reduce(d_z, axis=-2)
        if i > 0:
            d_z = d_z @ state[f"layer{i}.weight"].swapaxes(-1, -2)
            if model.activation == "tanh":
                d_z *= np.float32(1.0) - acts[i] * acts[i]
            else:
                d_z *= preacts[i - 1] > 0.0
    return loss, grads


class TestActivation:
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_in_place_equals_out_of_place_signed_zeros_included(self, activation):
        """`_activate` writes over the preactivation the bits of a new array,
        and the derivative from the activation is the one from its input."""
        rng = np.random.default_rng(0)
        edges = np.array([0.0, -0.0, 1e-45, -1e-45, 1e-38, -1e-38, 30.0, -30.0])
        z = np.concatenate([edges, rng.standard_normal(1016)]).astype(np.float32)
        z = z.reshape(4, 16, 16)
        want = out_of_place(z, activation)
        a = z.copy()
        assert _activate(a, activation) is a
        assert a.tobytes() == want.tobytes()
        if activation == "relu":
            assert np.array_equal(_activate_grad(a, activation), z > 0.0)


class TestBackwardOracle:
    """The backward's activations, written over their preactivations, its
    row max, a chain of `np.maximum` over the class columns on stacked
    logits, and its products times a contiguous copy of the transposed
    weights give the bits of their earlier forms."""

    @pytest.mark.parametrize("replicas", range(1, 7))
    @pytest.mark.parametrize("head", ["softmax-cross-entropy", "mean-squared-error"])
    @pytest.mark.parametrize("classes", [4, 16])
    def test_stacked_step_equals_view_form(self, monkeypatch, replicas, head, classes):
        rng = np.random.default_rng(replicas * 100 + classes)
        for draw in range(4):
            activation = ("tanh", "relu")[draw % 2]
            starts = [
                ToyModel.initialize((16, 96, 48, classes), activation, head, seed)
                for seed in rng.integers(0, 2**31, replicas)
            ]
            model = starts[0]
            state = np.stack([m.params.flat for m in starts])
            state += rng.standard_normal(state.shape, dtype=np.float32) * 0.1
            # shared data on even draws, one batch per replica on odd ones
            lead = (replicas,) if draw % 2 else ()
            inputs = rng.standard_normal((*lead, 32, 16), dtype=np.float32)
            if head == "softmax-cross-entropy":
                targets = rng.integers(0, classes, (*lead, 32))
            else:
                targets = rng.standard_normal((*lead, 32, classes), dtype=np.float32)
            g = np.empty_like(state)
            if replicas == 1:  # a lone replica runs without the replica axis
                state, g = state[0], g[0]
                if lead:
                    inputs, targets = inputs[0], targets[0]
            views = model.params.layout.views(state)
            loss = _forward_backward_state(
                model, views, inputs, targets, model.params.layout.views(g)
            )
            want_loss, want = view_form_backward(model, views, inputs, targets, monkeypatch)
            assert loss.tobytes() == want_loss.tobytes()
            grads = model.params.layout.views(g)
            for name, arr in want.items():
                assert grads[name].tobytes() == arr.tobytes(), name

    @pytest.mark.parametrize("replicas", range(1, 7))
    @pytest.mark.parametrize("classes", [1, 2, 3, 4, 16])
    def test_row_max_equals_reduce_signed_zeros_included(self, replicas, classes):
        rng = np.random.default_rng(classes)
        # ties, and on every other row a max of +0.0 against -0.0
        values = np.array([0.0, -0.0, -2.0, 1.5], np.float32)
        out = rng.choice(values, (replicas, 64, classes))
        out[:, ::2] = rng.choice(values[:3], (replicas, 32, classes))
        if replicas == 1:
            out = out[0]
        got, want = _row_max(out), np.maximum.reduce(out, axis=-1, keepdims=True)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
