import numpy as np
import pytest
from gradcheck import (
    analytic_grads,
    finite_difference_grads,
    max_relative_error,
    random_generic_problem,
)

from lota import Dataset, ParameterMap, ToyModel
from lota.models import concat_datasets


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
            "t",
        )
        loss, grads = analytic_grads(model, batch)
        assert loss == 0.0
        assert all(np.all(a == 0.0) for a in grads.values())

    def test_duplicated_rows_match_single_copy(self):
        model, batch = random_generic_problem(3, "softmax-cross-entropy")
        doubled = Dataset(
            np.concatenate([batch.inputs, batch.inputs]),
            np.concatenate([batch.targets, batch.targets]),
            "t",
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
            Dataset(np.zeros((3, 2), np.float32), np.zeros(2, np.int64), "t")

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf, 0.0]], np.float32), np.zeros(1, np.int64), "t")

    def test_take_and_concat(self):
        ds = Dataset(
            np.arange(12, dtype=np.float32).reshape(6, 2),
            np.arange(6, dtype=np.int64),
            "t",
        )
        sub = ds.take(np.array([0, 2]))
        assert len(sub) == 2
        merged = concat_datasets([sub, sub])
        assert len(merged) == 4

    def test_mixed_kinds_rejected(self):
        cls = Dataset(np.zeros((2, 2), np.float32), np.zeros(2, np.int64), "a")
        reg = Dataset(np.zeros((2, 2), np.float32), np.zeros((2, 1), np.float32), "b")
        with pytest.raises(ValueError):
            concat_datasets([cls, reg])
