import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lota import training
from lota import (
    CapacityError,
    ConfigError,
    Dataset,
    OptimizerState,
    ParameterMap,
    ToyModel,
    TrainConfig,
    all_false_mask,
    all_true_mask,
    clip_group_norm,
    compute_task_vector,
    decode,
    digest,
    iterative_lota,
    lota,
    lotto,
    mask_union,
    mixed_data_fft,
    overlap_stats,
    random_mask,
    rmsprop_step,
    sparsify,
    train,
)
from lota.models import _activate_grad, _forward_pass, _loss_and_output_grad


def toy_task(seed=0, n=128, dim=6, classes=3):
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((classes, dim)).astype(np.float32) * 2.0
    labels = rng.integers(0, classes, size=n)
    inputs = means[labels] + 0.3 * rng.standard_normal((n, dim)).astype(np.float32)
    return Dataset(inputs.astype(np.float32), labels, f"toy{seed}")


def toy_model(seed=0, dim=6, classes=3):
    return ToyModel.initialize([dim, 16, classes], "tanh", "softmax-cross-entropy", seed)


def quick_config(**kwargs):
    defaults = dict(learning_rate=0.01, batch_size=32, epochs=5, seed=7)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestClipGroupNorm:
    def test_large_group_scaled_to_max(self):
        g = ParameterMap({"w": np.full(4, 1.0, np.float32)})  # norm 2
        clipped = clip_group_norm(g, 1.0)
        assert np.linalg.norm(clipped["w"]) == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(clipped["w"], 0.5, rtol=1e-6)

    def test_small_group_untouched_bitwise(self):
        g = ParameterMap({"w": np.full(4, 0.25, np.float32)})  # norm 0.5
        clipped = clip_group_norm(g, 1.0)
        assert clipped["w"].tobytes() == g["w"].tobytes()

    def test_per_group_not_global(self):
        g = ParameterMap(
            {
                "big": np.full(4, 1.0, np.float32),  # norm 2 -> scaled
                "small": np.full(4, 0.25, np.float32),  # norm 0.5 -> kept
            }
        )
        clipped = clip_group_norm(g, 1.0)
        assert np.linalg.norm(clipped["big"]) == pytest.approx(1.0, abs=1e-6)
        assert clipped["small"].tobytes() == g["small"].tobytes()


class TestRmspropStep:
    def test_single_step_hand_computation(self):
        params = ParameterMap({"w": np.array([1.0], np.float32)})
        grads = ParameterMap({"w": np.array([1.0], np.float32)})
        state = OptimizerState.zeros(params)
        config = quick_config(learning_rate=0.1, rmsprop_decay=0.99, rmsprop_epsilon=1e-8)
        new_params, new_state = rmsprop_step(params, grads, state, config)
        # v = 0.99*0 + 0.01*1; w = 1 - 0.1*1/(sqrt(0.01)+1e-8)
        assert new_state.v["w"][0] == pytest.approx(0.01, rel=1e-6)
        expected = 1.0 - 0.1 / (np.sqrt(0.01) + 1e-8)
        assert new_params["w"][0] == pytest.approx(expected, abs=1e-7)
        assert abs(new_params["w"][0]) < 2e-7

    def test_zero_grad_decays_v_only(self):
        params = ParameterMap({"w": np.array([2.0], np.float32)})
        grads = ParameterMap({"w": np.array([0.0], np.float32)})
        state = OptimizerState(v={"w": np.array([0.5], np.float32)}, step=3)
        new_params, new_state = rmsprop_step(params, grads, state, quick_config())
        assert new_params["w"].tobytes() == params["w"].tobytes()
        assert new_state.v["w"][0] == pytest.approx(0.99 * 0.5, rel=1e-6)
        assert new_state.step == 4

    def test_tiny_learning_rate_near_noop(self):
        params = ParameterMap({"w": np.array([2.0], np.float32)})
        grads = ParameterMap({"w": np.array([1.0], np.float32)})
        cfg = quick_config(learning_rate=1e-30)
        new_params, _ = rmsprop_step(params, grads, OptimizerState.zeros(params), cfg)
        assert new_params["w"][0] == np.float32(2.0)


class TestTrain:
    def test_deterministic(self):
        model, data = toy_model(), toy_task()
        w1, _ = train(model, data, quick_config())
        w2, _ = train(model, data, quick_config())
        assert digest(w1) == digest(w2)

    def test_all_true_mask_matches_unmasked_bitwise(self):
        model, data = toy_model(), toy_task()
        w_plain, _ = train(model, data, quick_config())
        w_masked, _ = train(
            model, data, quick_config(mask=all_true_mask(model.params))
        )
        assert digest(w_plain) == digest(w_masked)

    def test_all_false_mask_freezes_everything(self):
        model, data = toy_model(), toy_task()
        w_out, _ = train(model, data, quick_config(mask=all_false_mask(model.params)))
        assert digest(w_out) == digest(model.params)

    def test_masked_coordinates_frozen_bitwise(self):
        model, data = toy_model(1), toy_task(1)
        mask = random_mask(model.params, 0.7, seed=3)
        w_out, _ = train(model, data, quick_config(mask=mask))
        changed = 0
        for name, arr in model.params.items():
            frozen = ~mask[name]
            np.testing.assert_array_equal(w_out[name][frozen], arr[frozen])
            changed += int((w_out[name][mask[name]] != arr[mask[name]]).sum())
        assert changed > 0

    def test_loss_decreases_on_fittable_task(self):
        model, data = toy_model(2), toy_task(2)
        _, record = train(model, data, quick_config(epochs=12))
        assert record.loss_trace[-1] < record.loss_trace[0] * 0.5

    def test_record_fields(self):
        model, data = toy_model(), toy_task()
        w_out, record = train(model, data, quick_config(epochs=2))
        assert record.initial_digest == digest(model.params).hex()
        assert record.final_digest == digest(w_out).hex()
        assert len(record.loss_trace) == 2
        assert not record.diverged


def reference_train(model, dataset, config):
    """Per-name dense step with np.where masking, as `train` did before it
    kept flat state; the oracle for its bit identity."""
    n_layers = len(model.widths) - 1
    state = model.params.to_dict()
    v = {n: np.zeros(a.shape, dtype=np.float32) for n, a in state.items()}
    mask_arrays = None
    if config.mask is not None:
        mask_arrays = {n: config.mask[n] for n in config.mask.names}
    decay = np.float32(config.rmsprop_decay)
    one_minus = np.float32(1.0 - config.rmsprop_decay)
    lr = np.float32(config.learning_rate)
    eps = np.float32(config.rmsprop_epsilon)
    loss_trace = []
    for epoch in range(config.epochs):
        perm = np.random.default_rng(config.seed ^ epoch).permutation(len(dataset))
        batch_losses = []
        for lo in range(0, len(dataset), config.batch_size):
            batch = dataset.take(perm[lo : lo + config.batch_size])
            state64 = {n: a.astype(np.float64) for n, a in state.items()}
            out, acts, preacts = _forward_pass(
                model, state64, batch.inputs.astype(np.float64)
            )
            targets = (
                batch.targets
                if batch.is_classification
                else batch.targets.astype(np.float64)
            )
            loss, d_z = _loss_and_output_grad(model, out, targets)
            grads = {}
            for i in range(n_layers - 1, -1, -1):
                grads[f"layer{i}.weight"] = (acts[i].T @ d_z).astype(np.float32)
                grads[f"layer{i}.bias"] = d_z.sum(axis=0).astype(np.float32)
                if i > 0:
                    d_a = d_z @ state64[f"layer{i}.weight"].T
                    act = model.activation
                    d_z = d_a * _activate_grad(preacts[i - 1], acts[i], act)
            for name, g in grads.items():
                flat = g.ravel().astype(np.float64)
                norm = math.sqrt(float(np.dot(flat, flat)))
                if norm > config.clip_group_norm:
                    grads[name] = g * np.float32(config.clip_group_norm / norm)
            for name, w in state.items():
                g = grads[name]
                if mask_arrays is not None:
                    g = np.where(mask_arrays[name], g, np.float32(0.0))
                v[name] = decay * v[name] + one_minus * (g * g)
                updated = w - lr * g / (np.sqrt(v[name]) + eps)
                if mask_arrays is not None:
                    updated = np.where(mask_arrays[name], updated, w)
                state[name] = updated
            batch_losses.append(loss)
        loss_trace.append(float(np.mean(batch_losses)))
    return ParameterMap(state), loss_trace


def oracle_problem(head, activation, seed):
    rng = np.random.default_rng(seed)
    model = ToyModel.initialize([5, 7, 3], activation, head, seed)
    inputs = rng.standard_normal((40, 5)).astype(np.float32)
    if head == "softmax-cross-entropy":
        targets = rng.integers(0, 3, size=40)
    else:
        targets = rng.standard_normal((40, 3)).astype(np.float32)
    return model, Dataset(inputs, targets, "oracle")


def oracle_mask(params, kind, density, seed):
    n = params.total_elements
    if kind == "none":
        return None
    if kind == "all-true":
        return all_true_mask(params)
    if kind == "all-false":
        return all_false_mask(params)
    if kind == "single":
        return random_mask(params, 1.0 - 1.0 / n, seed)
    return random_mask(params, 1.0 - density, seed)


class TestFlatStateOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        head=st.sampled_from(["softmax-cross-entropy", "mean-squared-error"]),
        activation=st.sampled_from(["tanh", "relu"]),
        kind=st.sampled_from(["none", "all-true", "all-false", "single", "random"]),
        density=st.floats(0.01, 0.99),
        seed=st.integers(0, 2**16),
        clip=st.sampled_from([0.05, 1.0]),
    )
    def test_bit_identical_to_per_name_update(
        self, head, activation, kind, density, seed, clip
    ):
        model, data = oracle_problem(head, activation, seed)
        mask = oracle_mask(model.params, kind, density, seed)
        if kind == "single":
            assert mask.kept_count == 1
        config = quick_config(
            learning_rate=0.05, batch_size=16, epochs=3, seed=seed,
            clip_group_norm=clip, mask=mask,
        )
        w_ref, trace_ref = reference_train(model, data, config)
        w_out, record = train(model, data, config)
        assert w_out.names == w_ref.names
        for name, arr in w_ref.items():
            assert w_out[name].tobytes() == arr.tobytes(), name
        assert record.loss_trace == trace_ref
        assert record.final_digest == digest(w_ref).hex()


STEP_HELPERS = (
    "_forward_backward_state",
    "_clip_group_norm_inplace",
    "_rmsprop_update_inplace",
)


class TestStepHelperContract:
    """`perfbench --trace 1` times these names in lota.training, and reads the
    update's 5th positional argument to tell masked steps from dense ones."""

    @pytest.mark.parametrize("kind", ["none", "random", "all-true"])
    def test_each_helper_called_once_per_step(self, monkeypatch, kind):
        calls = {name: [] for name in STEP_HELPERS}
        for name in STEP_HELPERS:
            original = getattr(training, name)

            def counting(*args, _name=name, _original=original):
                calls[_name].append(args)
                return _original(*args)

            monkeypatch.setattr(training, name, counting)
        model, data = toy_model(), toy_task(n=100)
        config = quick_config(
            epochs=3, mask=oracle_mask(model.params, kind, 0.3, seed=5)
        )
        train(model, data, config)
        steps = config.epochs * math.ceil(len(data) / config.batch_size)
        assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(
            STEP_HELPERS, steps
        )
        for args in calls["_rmsprop_update_inplace"]:
            assert (args[4] is None) == (config.mask is None)


class TestLota:
    def test_frozen_coordinates_equal_base(self):
        model, data = toy_model(), toy_task()
        result = lota(model, data, 0.9, quick_config())
        for name, arr in model.params.items():
            frozen = ~result.mask[name]
            np.testing.assert_array_equal(result.w_final[name][frozen], arr[frozen])

    def test_sparsity_zero_equals_fft(self):
        model, data = toy_model(), toy_task()
        result = lota(model, data, 0.0, quick_config())
        w_fft, _ = train(model, data, quick_config())
        assert digest(result.w_final) == digest(w_fft)

    def test_adapter_decodes_to_final_delta(self):
        model, data = toy_model(3), toy_task(3)
        result = lota(model, data, 0.8, quick_config())
        tv = compute_task_vector(result.w_final, model.params)
        back = decode(result.adapter)
        for name, arr in tv.entries.items():
            np.testing.assert_array_equal(back.entries[name], arr)

    def test_random_mask_when_fraction_zero(self):
        model, data = toy_model(4), toy_task(4)
        result = lota(model, data, 0.9, quick_config(), calibration_fraction=0.0)
        expected = random_mask(model.params, 0.9, seed=quick_config().seed)
        assert result.mask == expected
        assert result.calibration_record is None

    def test_calibration_fraction_slices_prefix(self):
        model, data = toy_model(5), toy_task(5, n=100)
        result = lota(model, data, 0.9, quick_config(), calibration_fraction=0.25)
        # ceil(0.25 * 100) = 25 examples -> ceil(25/32) = 1 batch per epoch
        assert result.calibration_record is not None

    def test_invalid_fraction_rejected(self):
        model, data = toy_model(), toy_task()
        with pytest.raises(ConfigError):
            lota(model, data, 0.9, quick_config(), calibration_fraction=1.5)


class TestIterativeLota:
    def test_single_stage_matches_lota(self):
        model, data = toy_model(6), toy_task(6)
        single = lota(model, data, 0.9, quick_config())
        chained = iterative_lota(model, data, [0.9], quick_config())
        assert digest(chained.w_final) == digest(single.w_final)
        assert chained.mask == single.mask

    def test_nested_masks(self):
        model, data = toy_model(7), toy_task(7)
        result = iterative_lota(model, data, [0.8, 0.95], quick_config())
        coarse, fine = result.stage_masks
        assert not (fine.global_flat() & ~coarse.global_flat()).any()
        assert fine.kept_count < coarse.kept_count

    def test_schedule_validation(self):
        model, data = toy_model(), toy_task()
        with pytest.raises(ConfigError):
            iterative_lota(model, data, [0.9, 0.5], quick_config())
        with pytest.raises(ConfigError):
            iterative_lota(model, data, [], quick_config())


class TestLotto:
    def test_single_task_empty_constraints_matches_lota(self):
        model, data = toy_model(8), toy_task(8)
        lotto_result = lotto(model, [data], 0.9, quick_config())
        lota_result = lota(model, data, 0.9, quick_config(), calibration_fraction=1.0)
        assert digest(lotto_result.w_final) == digest(lota_result.w_final)
        assert lotto_result.masks[0] == lota_result.mask

    def test_two_task_masks_disjoint(self):
        model = toy_model(9)
        data = [toy_task(9), toy_task(10)]
        result = lotto(model, data, 0.9, quick_config())
        stats = overlap_stats(result.masks[0], result.masks[1])
        assert stats.intersection_count == 0

    def test_first_mask_coordinates_frozen_during_second_task(self):
        model = toy_model(11)
        data = [toy_task(11), toy_task(12)]
        result = lotto(model, data, 0.9, quick_config())
        w_after_first = None
        # reconstruct task-1 weights by replaying the first adapter
        from lota import apply_adapter

        w_after_first = apply_adapter(model.params, result.adapters[0])
        m1 = result.masks[0]
        for name, arr in result.w_final.items():
            kept = m1[name]
            np.testing.assert_array_equal(arr[kept], w_after_first[name][kept])

    def test_initial_constraints_respected(self):
        model, data = toy_model(13), toy_task(13)
        blocked = random_mask(model.params, 0.5, seed=1)
        result = lotto(
            model, [data], 0.9, quick_config(), initial_constraints=blocked
        )
        assert overlap_stats(result.masks[0], blocked).intersection_count == 0

    def test_constraint_exhaustion(self):
        model, data = toy_model(14), toy_task(14)
        nearly_full = random_mask(model.params, 0.01, seed=2)  # 99% blocked
        with pytest.raises(CapacityError, match="constraint set exhausted"):
            lotto(model, [data], 0.5, quick_config(), initial_constraints=nearly_full)

    def test_constraint_trace_grows_by_union(self):
        model = toy_model(15)
        data = [toy_task(15), toy_task(16)]
        result = lotto(model, data, 0.9, quick_config())
        assert result.constraint_trace[0].kept_count == 0
        expected = mask_union(result.constraint_trace[0], result.masks[0])
        assert result.constraint_trace[1] == expected
        expected = mask_union(result.constraint_trace[1], result.masks[1])
        assert result.constraint_trace[2] == expected


class TestMixedDataFft:
    def test_zero_fraction_identical_to_plain(self):
        model = toy_model(17)
        data_b, data_a = toy_task(17), toy_task(18)
        w_mixed, _ = mixed_data_fft(model, data_b, data_a, 0.0, quick_config())
        w_plain, _ = train(model, data_b, quick_config())
        assert digest(w_mixed) == digest(w_plain)

    def test_full_fraction_doubles_dataset(self):
        model = toy_model(19)
        data_b, data_a = toy_task(19, n=64), toy_task(20, n=200)
        from lota.training import round_half_up

        assert round_half_up(1.0 * len(data_b)) == 64

    def test_deterministic(self):
        model = toy_model(21)
        data_b, data_a = toy_task(21), toy_task(22)
        w1, _ = mixed_data_fft(model, data_b, data_a, 0.5, quick_config())
        w2, _ = mixed_data_fft(model, data_b, data_a, 0.5, quick_config())
        assert digest(w1) == digest(w2)
