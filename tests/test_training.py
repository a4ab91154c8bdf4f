import contextlib
import copy
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
    DivergenceError,
    LotaError,
    NonFiniteError,
    ParameterMap,
    SparsityMask,
    ToyModel,
    TrainConfig,
    all_false_mask,
    compute_task_vector,
    decode,
    digest,
    iterative_lota,
    lota,
    lotto,
    mixed_data_fft,
    random_mask,
    sparsify,
    train,
)
from lota.adapter import _container_parts
from lota.models import (
    _activate_grad, _forward_pass, _loss_and_output_grad, concat_datasets,
)


def toy_task(seed=0, n=128, dim=6, classes=3):
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((classes, dim)).astype(np.float32) * 2.0
    labels = rng.integers(0, classes, size=n)
    inputs = means[labels] + 0.3 * rng.standard_normal((n, dim)).astype(np.float32)
    return Dataset(inputs.astype(np.float32), labels)


def toy_model(seed=0, dim=6, classes=3):
    return ToyModel.initialize([dim, 16, classes], "tanh", "softmax-cross-entropy", seed)


def quick_config(**kwargs):
    defaults = dict(learning_rate=0.01, batch_size=32, epochs=5, seed=7)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def group_stack(entries, replicas=1):
    """The (R, P) float32 gradients that `train` clips, every row holding
    `entries`; their per-name views; and the clip's scratch."""
    pm = ParameterMap(entries)
    g = np.tile(pm.flat, (replicas, 1))
    return g, pm.layout.views(g), training._ClipScratch(pm.layout, g)


class TestClipGroupNorm:
    def test_large_group_scaled_to_max(self):
        g, views, scratch = group_stack({"w": np.full(4, 1.0, np.float32)})  # norm 2
        training._clip_group_norm_inplace(g, 1.0, scratch)
        assert np.linalg.norm(views["w"]) == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(views["w"], 0.5, rtol=1e-6)

    def test_small_group_untouched_bitwise(self):
        g, _, scratch = group_stack({"w": np.full(4, 0.25, np.float32)})  # norm 0.5
        before = g.tobytes()
        training._clip_group_norm_inplace(g, 1.0, scratch)
        assert g.tobytes() == before

    def test_per_group_not_global(self):
        g, views, scratch = group_stack(
            {
                "big": np.full(4, 1.0, np.float32),  # norm 2 -> scaled
                "small": np.full(4, 0.25, np.float32),  # norm 0.5 -> kept
            }
        )
        small = views["small"].tobytes()
        training._clip_group_norm_inplace(g, 1.0, scratch)
        assert np.linalg.norm(views["big"]) == pytest.approx(1.0, abs=1e-6)
        assert views["small"].tobytes() == small
        # the clip lands in the stack's buffer, where the views read it
        np.testing.assert_array_equal(g[0, :4], views["big"].ravel())

    def test_per_replica_not_across_the_stack(self):
        g, views, scratch = group_stack({"w": np.full(4, 0.25, np.float32)}, 2)
        g[1] *= 4.0  # replica 1: norm 2 -> scaled; replica 0: norm 0.5 -> kept
        row0 = g[0].tobytes()
        training._clip_group_norm_inplace(g, 1.0, scratch)
        assert g[0].tobytes() == row0
        np.testing.assert_allclose(views["w"][1], 0.5, rtol=1e-6)
        assert scratch.norms[0].tolist() == [0.5, 2.0]


@st.composite
def gradient_stacks(draw):
    """A random layout with 1-element tensors among others, and an (R, P)
    float32 gradient stack, each (replica, tensor) at its own scale."""
    shapes = draw(st.lists(
        st.sampled_from([(), (1,), (1, 1), (3,), (7, 5), (64,), (33, 17), (300,)]),
        min_size=1, max_size=6,
    ))
    layout = ParameterMap(
        {f"t{i}": np.zeros(shape, np.float32) for i, shape in enumerate(shapes)}
    ).layout
    replicas = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((replicas, layout.size)).astype(np.float32)
    for r in range(replicas):
        for lo, hi in zip(layout.offsets, layout.offsets[1:]):
            g[r, lo:hi] *= np.float32(10.0 ** draw(st.integers(-20, 20)))
    return layout, g


def float32_norm(f) -> float:
    """The float32 `np.dot` norm of the float32 group `f`."""
    return float(np.sqrt(np.dot(f, f)))


class TestGroupNormOracle:
    """The clip takes one float32 norm per name over the whole stack; each
    must be the per-group float32 `np.dot` norm bit for bit, and the clip
    must scale exactly the groups over the bound, by the bound over that
    norm, or over the float64 norm where the float32 one overflows."""

    @settings(max_examples=150, deadline=None)
    @given(gradient_stacks(), st.floats(0.0, 1.0))
    # a group over ~1.8e19 overflows its float32 sum of squares, with numpy's
    # overflow warning
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_batched_norms_equal_per_group_dot(self, case, quantile):
        layout, g = case
        spans = list(zip(layout.offsets, layout.offsets[1:]))
        want = np.array([
            [float32_norm(g[r, lo:hi]) for r in range(len(g))] for lo, hi in spans
        ], np.float32)
        scratch = training._ClipScratch(layout, g)
        unclipped = g.copy()
        training._clip_group_norm_inplace(g, math.inf, scratch)
        assert g.tobytes() == unclipped.tobytes()
        assert scratch.norms.tobytes() == want.tobytes()
        # a bound among the finite norms, so that some groups are over it
        # and some not
        finite = want[np.isfinite(want)]
        bound = float(np.quantile(finite, quantile)) if finite.size else 1.0
        training._clip_group_norm_inplace(g, bound, scratch)
        assert scratch.norms.tobytes() == want.tobytes()
        for k, (lo, hi) in enumerate(spans):
            for r in range(len(g)):
                before = unclipped[r, lo:hi]
                norm = float(want[k, r])
                if norm == math.inf:
                    norm = math.sqrt(np.square(before, dtype=np.float64).sum())
                expected = before * np.float32(bound / norm) if norm > bound else before
                assert g[r, lo:hi].tobytes() == expected.tobytes()

    def test_overflowing_group_is_scaled_to_the_bound(self):
        g, views, scratch = group_stack({"w": np.full(4, 3e19, np.float32)})  # norm 6e19
        with pytest.warns(RuntimeWarning, match="overflow encountered in matmul"):
            training._clip_group_norm_inplace(g, 1.0, scratch)
        assert scratch.norms[0, 0] == np.inf  # the float32 sum of squares overflowed
        np.testing.assert_allclose(views["w"], 0.5, rtol=1e-6)


def rmsprop_update(w, g, v, config, kept=None):
    """Run the in-place update on float32 copies; returns the updated
    coordinates, their RMSProp state and the full-length weights."""
    state = np.array(w, np.float32)
    g = np.array(g, np.float32)
    v = np.array(v, np.float32)
    if kept is None:
        w_kept = state
    else:
        kept = np.asarray(kept)
        w_kept = state[kept]
    scratch = [np.empty_like(w_kept) for _ in range(2 + (kept is not None))]
    training._rmsprop_update_inplace(w_kept, g, v, config, kept, state, scratch)
    return w_kept, v, state


class TestRmspropStep:
    def test_single_step_hand_computation(self):
        config = quick_config(learning_rate=0.1, rmsprop_decay=0.99, rmsprop_epsilon=1e-8)
        w, v, state = rmsprop_update([1.0], [1.0], [0.0], config)
        # v = 0.99*0 + 0.01*1; w = 1 - 0.1*1/(sqrt(0.01)+1e-8)
        assert v[0] == pytest.approx(0.01, rel=1e-6)
        expected = 1.0 - 0.1 / (np.sqrt(0.01) + 1e-8)
        assert w[0] == pytest.approx(expected, abs=1e-7)
        assert abs(w[0]) < 2e-7
        assert state[0] == w[0]

    def test_zero_grad_decays_v_only(self):
        w, v, state = rmsprop_update([2.0], [0.0], [0.5], quick_config())
        assert w.tobytes() == np.float32(2.0).tobytes()
        assert v[0] == pytest.approx(0.99 * 0.5, rel=1e-6)
        assert state[0] == 2.0

    def test_kept_indices_update_only_kept(self):
        # w and v hold the kept coordinates; g and the weights are full length
        w, v, state = rmsprop_update(
            [1.0, 2.0, 3.0], [1.0, 1.0, 1.0], [0.0, 0.5], quick_config(),
            kept=[0, 2],
        )
        dense_w, dense_v, _ = rmsprop_update([1.0, 3.0], [1.0, 1.0], [0.0, 0.5],
                                             quick_config())
        assert w.tobytes() == dense_w.tobytes()
        assert v.tobytes() == dense_v.tobytes()
        assert state.tolist() == [float(w[0]), 2.0, float(w[1])]

    def test_tiny_learning_rate_near_noop(self):
        w, _, _ = rmsprop_update([2.0], [1.0], [0.0], quick_config(learning_rate=1e-30))
        assert w[0] == np.float32(2.0)


class TestTrainConfigFields:
    @pytest.mark.parametrize("field", [
        "learning_rate", "rmsprop_decay", "rmsprop_epsilon", "clip_group_norm",
    ])
    @pytest.mark.parametrize(
        "value", [True, float("nan"), float("inf"), -float("inf"), "0.5", 2**1100],
        ids=["bool", "nan", "inf", "-inf", "str", "huge-int"],
    )
    def test_float_fields_must_be_finite_numbers(self, field, value):
        with pytest.raises(ConfigError, match=field):
            quick_config(**{field: value})


class TestTrain:
    def test_deterministic(self):
        model, data = toy_model(), toy_task()
        w1, _ = train(model, data, quick_config())
        w2, _ = train(model, data, quick_config())
        assert digest(w1) == digest(w2)

    def test_all_true_mask_matches_unmasked_bitwise(self):
        model, data = toy_model(), toy_task()
        w_plain, _ = train(model, data, quick_config())
        everything = np.ones(model.params.total_elements, bool)
        mask = SparsityMask.from_flat(model.params.layout, everything)
        w_masked, _ = train(model, data, quick_config(mask=mask))
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


class TestDataFitsModel:
    """`train` refuses data that does not fit the model before any step."""

    def refused(self, step_counter, model, data, match):
        with pytest.raises(ConfigError, match=match):
            train(model, data, quick_config())
        assert step_counter == []

    def test_empty_dataset_refused(self, step_counter):
        empty = toy_task().take(np.arange(0))
        self.refused(step_counter, toy_model(), empty, "dataset must be nonempty")

    def test_input_width_refused(self, step_counter):
        self.refused(step_counter, toy_model(dim=6), toy_task(dim=5),
                     r"inputs have width 5; the model takes 6")

    def test_cross_entropy_refuses_vector_targets(self, step_counter):
        rng = np.random.default_rng(0)
        data = Dataset(rng.standard_normal((64, 6)).astype(np.float32),
                       rng.standard_normal((64, 3)).astype(np.float32))
        self.refused(step_counter, toy_model(), data, "needs class-index targets")

    @pytest.mark.parametrize("label", [-1, 3])
    def test_cross_entropy_refuses_class_out_of_range(self, step_counter, label):
        data = toy_task()
        labels = data.targets.copy()
        labels[17] = label
        self.refused(step_counter, toy_model(classes=3), Dataset(data.inputs, labels),
                     r"class indices must be in \[0, 3\)")

    def test_mean_squared_error_refuses_class_targets(self, step_counter):
        model = ToyModel.initialize([6, 16, 3], "tanh", "mean-squared-error", 0)
        self.refused(step_counter, model, toy_task(), "float targets of width 3")

    @pytest.mark.parametrize("shape", [(1,), (4, 1), (4, 2)])
    def test_mean_squared_error_refuses_narrow_targets(self, step_counter, shape):
        # (n, 1) targets against a 4-wide output would broadcast and train,
        # and so may (n, 4, 1) ones; (n, 4, 2) ones would fail inside a step
        model = ToyModel.initialize([6, 16, 4], "tanh", "mean-squared-error", 0)
        data = toy_task()
        narrow = Dataset(data.inputs, np.ones((len(data), *shape), np.float32))
        self.refused(step_counter, model, narrow, "float targets of width 4")

    def test_a_refused_run_leaves_its_batch_the_others_solo_results(self, step_counter):
        model, data = toy_model(), toy_task()
        labels = data.targets.copy()
        labels[0] = 3
        config = quick_config()
        bad, good = training._train_batch(
            [(model, Dataset(data.inputs, labels), config), (model, data, config)]
        )
        assert isinstance(bad, ConfigError)
        assert "class indices" in str(bad)
        assert len(step_counter) == steps_per_run(config, data)  # the good run only
        final, record = train(model, data, config)
        assert good[0].flat.tobytes() == final.flat.tobytes()
        assert good[1] == record


def reference_train(model, dataset, config):
    """Per-name dense float32 step with np.where masking, as `train` did
    before it kept flat state; the oracle for its bit identity."""
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
            out, acts = _forward_pass(model, state, batch.inputs)
            loss, d_z = _loss_and_output_grad(model, out, batch.targets)
            grads = {}
            for i in range(n_layers - 1, -1, -1):
                grads[f"layer{i}.weight"] = acts[i].T @ d_z
                grads[f"layer{i}.bias"] = d_z.sum(axis=0)
                if i > 0:
                    d_a = d_z @ state[f"layer{i}.weight"].T
                    act = model.activation
                    d_z = d_a * _activate_grad(acts[i], act)
            for name, g in grads.items():
                norm = float32_norm(g.ravel())
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
            batch_losses.append(float(loss))
        loss_trace.append(float(np.mean(batch_losses)))
    return ParameterMap(state), loss_trace


def oracle_problem(head, activation, seed, dim=5):
    rng = np.random.default_rng(seed)
    model = ToyModel.initialize([dim, 7, 3], activation, head, seed)
    inputs = rng.standard_normal((40, dim)).astype(np.float32)
    if head == "softmax-cross-entropy":
        targets = rng.integers(0, 3, size=40)
    else:
        targets = rng.standard_normal((40, 3)).astype(np.float32)
    return model, Dataset(inputs, targets)


def oracle_mask(params, kind, density, seed):
    n = params.total_elements
    if kind == "none":
        return None
    if kind == "all-true":
        return SparsityMask.from_flat(params.layout, np.ones(n, bool))
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


def solo_outcome(model, data, config):
    """`train`'s result, or the error it raises."""
    try:
        return train(model, data, config)
    except LotaError as exc:
        return exc


def assert_batch_equals_solo_runs(runs):
    """`_train_batch(runs)` gives each run its solo `train` outcome: its
    weights and record bit for bit, or an error of the same type and text.
    Returns the outcomes."""
    batch = training._train_batch(runs)
    for run, got in zip(runs, batch):
        want = solo_outcome(*run)
        if isinstance(want, LotaError):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert got[0].flat.tobytes() == want[0].flat.tobytes()
            assert got[1] == want[1]
    return batch


class TestReplicaBatchOracle:
    """`_train_batch` runs models that differ only in params (each
    replica's start weights), with configs that differ only in mask and
    seed, as one replica stack; other runs train in stacks of their own.
    Each replica must equal its solo `train` run bit for bit, and reach
    later `train` calls through the open cache."""

    @settings(max_examples=30, deadline=None)
    @given(
        head=st.sampled_from(["softmax-cross-entropy", "mean-squared-error"]),
        activation=st.sampled_from(["tanh", "relu"]),
        kinds=st.lists(
            st.sampled_from(["none", "all-true", "all-false", "single", "random"]),
            min_size=1, max_size=6,
        ),
        density=st.floats(0.01, 0.99),
        seed=st.integers(0, 2**16),
        clip=st.sampled_from([0.05, 1.0]),
    )
    def test_each_replica_equals_its_solo_run(
        self, head, activation, kinds, density, seed, clip
    ):
        model, data = oracle_problem(head, activation, seed)
        configs = [
            quick_config(
                learning_rate=0.05, batch_size=16, epochs=3, seed=seed,
                clip_group_norm=clip,
                mask=oracle_mask(model.params, kind, density, seed + i),
            )
            for i, kind in enumerate(kinds)
        ]
        batch = training._train_batch([(model, data, c) for c in configs])
        for config, (final, record) in zip(configs, batch):
            solo_final, solo_record = train(model, data, config)
            assert final.flat.tobytes() == solo_final.flat.tobytes()
            assert record == solo_record

    @pytest.mark.parametrize("order", [
        ("dense", "frozen", "half"), ("frozen", "half", "dense"),
        ("half", "dense", "frozen"),
    ])
    def test_diverging_replica_leaves_the_stack_uncached(self, step_counter, order):
        model, data = toy_model(), toy_task()
        masks = {
            "dense": None,
            "frozen": all_false_mask(model.params),
            "half": random_mask(model.params, 0.5, seed=1),
        }
        configs = [
            quick_config(learning_rate=1e38, epochs=3, mask=masks[k]) for k in order
        ]
        with np.errstate(all="ignore"):
            solo = [solo_outcome(model, data, c) for c in configs]
            kinds = dict(zip(order, solo))
            assert isinstance(kinds["dense"], DivergenceError)
            assert not isinstance(kinds["frozen"], DivergenceError)
            with training._train_cache():
                batch = training._train_batch([(model, data, c) for c in configs])
                for config, expected, got in zip(configs, solo, batch):
                    before = len(step_counter)
                    again = solo_outcome(model, data, config)
                    if isinstance(expected, DivergenceError):
                        assert expected.partial_record.diverged
                        # not cached: the later call trains again and fails alike
                        assert len(step_counter) > before
                        for error in (got, again):
                            assert isinstance(error, DivergenceError)
                            assert str(error) == str(expected)
                            assert error.partial_record == expected.partial_record
                    else:
                        assert len(step_counter) == before
                        for final, record in (got, again):
                            assert final.flat.tobytes() == expected[0].flat.tobytes()
                            assert record == expected[1]

    @pytest.mark.parametrize("inputs", [
        ("plain", "plain"), ("huge", "plain"), ("plain", "huge"),
    ])
    def test_stack_of_diverged_replicas_stops_at_the_later_divergence(
        self, fwd_bwd_calls, inputs
    ):
        # two dense runs at learning rate 1e38 with their own seeds: on plain
        # inputs a run diverges in its second step, on inputs scaled by 1e20
        # in its first. The stack runs until the later one has diverged.
        head = "mean-squared-error"
        model = ToyModel.initialize([6, 16, 3], "relu", head, 0)
        plain = oracle_problem(head, "relu", 0, dim=6)[1]
        data = {
            "plain": plain,
            "huge": Dataset(plain.inputs * np.float32(1e20), plain.targets),
        }
        runs = [
            (model, data[kind], quick_config(
                learning_rate=1e38, epochs=3, batch_size=24, seed=seed,
            ))
            for seed, kind in enumerate(inputs)
        ]
        solo, steps = [], []
        with np.errstate(all="ignore"):
            for run in runs:
                fwd_bwd_calls.clear()
                solo.append(solo_outcome(*run))
                steps.append(len(fwd_bwd_calls))
            fwd_bwd_calls.clear()
            batch = training._train_batch(runs)
        assert len(fwd_bwd_calls) == max(steps) < steps_per_run(runs[0][2], plain)
        for expected, got in zip(solo, batch):
            assert isinstance(expected, DivergenceError)
            assert isinstance(got, DivergenceError)
            assert str(got) == str(expected)
            assert got.partial_record == expected.partial_record

    def test_runs_of_other_configs_each_equal_their_solo_run(self, fwd_bwd_calls):
        model, data = toy_model(), toy_task()
        configs = [quick_config(), quick_config(learning_rate=0.02)]
        assert_batch_equals_solo_runs([(model, data, c) for c in configs])
        # two stacks in the batch, then two solo runs
        assert len(fwd_bwd_calls) == 4 * steps_per_run(configs[0], data)

    @settings(max_examples=30, deadline=None)
    @given(
        head=st.sampled_from(["softmax-cross-entropy", "mean-squared-error"]),
        activation=st.sampled_from(["tanh", "relu"]),
        runs=st.lists(
            st.tuples(
                st.integers(0, 2),
                st.sampled_from(["none", "all-true", "all-false", "single", "random"]),
            ),
            min_size=1, max_size=5,
        ),
        density=st.floats(0.01, 0.99),
        seed=st.integers(0, 2**16),
        clip=st.sampled_from([0.05, 1.0]),
    )
    def test_each_replica_on_its_own_data_equals_its_solo_run(
        self, head, activation, runs, density, seed, clip
    ):
        # replicas name one of three seeded datasets of one length, so a
        # stack may share one dataset, give each replica its own, or mix
        model, _ = oracle_problem(head, activation, seed)
        data = [oracle_problem(head, activation, seed + 1 + j)[1] for j in range(3)]
        runs = [
            (data[j], quick_config(
                learning_rate=0.05, batch_size=16, epochs=3, seed=seed,
                clip_group_norm=clip,
                mask=oracle_mask(model.params, kind, density, seed + i),
            ))
            for i, (j, kind) in enumerate(runs)
        ]
        batch = training._train_batch([(model, *run) for run in runs])
        for (dataset, config), (final, record) in zip(runs, batch):
            solo_final, solo_record = train(model, dataset, config)
            assert final.flat.tobytes() == solo_final.flat.tobytes()
            assert record == solo_record

    @pytest.mark.parametrize("order, head", [
        pytest.param(order, head, id=f"order{i}{suffix}")
        for head, suffix in (("softmax-cross-entropy", ""), ("mean-squared-error", "-mse"))
        for i, order in enumerate([
            ("dense", "frozen", "half"), ("frozen", "half", "dense"),
            ("half", "dense", "frozen"), ("dense", "frozen"), ("frozen", "dense"),
        ])
    ])
    def test_diverging_replica_leaves_with_its_data_rows(self, order, head):
        # each replica has its own dataset; a survivor that read another
        # replica's rows or state after a divergence would not equal its
        # solo run. The dead rows keep stepping with the stack, unread.
        model = ToyModel.initialize([6, 16, 3], "tanh", head, 0)
        masks = {
            "dense": None,
            "frozen": all_false_mask(model.params),
            "half": random_mask(model.params, 0.5, seed=1),
        }
        runs = [
            (oracle_problem(head, "tanh", seed, dim=6)[1],
             quick_config(learning_rate=1e38, epochs=3, batch_size=24, mask=masks[k]))
            for seed, k in enumerate(order)
        ]
        with np.errstate(all="ignore"):
            solo = [solo_outcome(model, d, c) for d, c in runs]
            batch = training._train_batch([(model, *run) for run in runs])
        assert isinstance(solo[order.index("dense")], DivergenceError)
        assert not isinstance(solo[order.index("frozen")], DivergenceError)
        for expected, got in zip(solo, batch):
            if isinstance(expected, DivergenceError):
                assert isinstance(got, DivergenceError)
                assert str(got) == str(expected)
                assert got.partial_record == expected.partial_record
            else:
                assert got[0].flat.tobytes() == expected[0].flat.tobytes()
                assert got[1] == expected[1]

    @settings(max_examples=30, deadline=None)
    @given(
        head=st.sampled_from(["softmax-cross-entropy", "mean-squared-error"]),
        activation=st.sampled_from(["tanh", "relu"]),
        runs=st.lists(
            st.tuples(
                st.integers(0, 2),  # start weights
                st.integers(0, 3),  # dataset; the fourth has huge inputs
                st.integers(0, 2),  # config seed
                st.sampled_from(["none", "all-true", "all-false", "single", "random"]),
            ),
            min_size=1, max_size=6,
        ),
        density=st.floats(0.01, 0.99),
        seed=st.integers(0, 2**16),
        clip=st.sampled_from([0.05, 1.0]),
    )
    def test_each_replica_from_its_own_start_and_seed_equals_its_solo_run(
        self, head, activation, runs, density, seed, clip
    ):
        # replicas start from one of three models' weights, train on one of
        # four datasets and shuffle by one of three seeds. On the huge
        # inputs a relu model with a mean-squared-error head diverges in
        # its first step; its row keeps stepping with the stack, unread.
        models = [oracle_problem(head, activation, seed + 10 * j)[0] for j in range(3)]
        data = [oracle_problem(head, activation, seed + 1 + j)[1] for j in range(3)]
        data.append(Dataset(data[0].inputs * np.float32(1e20), data[0].targets))
        runs = [
            (models[m], data[d], quick_config(
                learning_rate=0.05, batch_size=16, epochs=3, seed=seed + s,
                clip_group_norm=clip,
                mask=oracle_mask(models[0].params, kind, density, seed + i),
            ))
            for i, (m, d, s, kind) in enumerate(runs)
        ]
        with np.errstate(all="ignore"):
            solo = [solo_outcome(*run) for run in runs]
            with training._train_cache():
                batch = training._train_batch(runs)
                again = [solo_outcome(*run) for run in runs]  # hits, or fresh failures
        for expected, got, hit in zip(solo, batch, again):
            for outcome in (got, hit):
                if isinstance(expected, DivergenceError):
                    assert isinstance(outcome, DivergenceError)
                    assert str(outcome) == str(expected)
                    assert outcome.partial_record == expected.partial_record
                else:
                    assert outcome[0].flat.tobytes() == expected[0].flat.tobytes()
                    assert outcome[1] == expected[1]

    @pytest.mark.parametrize("survivors", [1, 2])
    def test_replica_leaves_a_stack_of_its_own_starts_and_seeds(self, survivors):
        # replica 0 diverges in its first step; the survivors, each with
        # its own start, seed and data, go on in their own order beside
        # its unread row
        head = "mean-squared-error"
        models = [ToyModel.initialize([6, 16, 3], "relu", head, j) for j in range(3)]
        data = [oracle_problem(head, "relu", j, dim=6)[1] for j in range(3)]
        data[0] = Dataset(data[0].inputs * np.float32(1e20), data[0].targets)
        runs = [
            (models[j], data[j], quick_config(epochs=3, batch_size=24, seed=j))
            for j in range(1 + survivors)
        ]
        with np.errstate(all="ignore"):
            solo = [solo_outcome(*run) for run in runs]
            batch = training._train_batch(runs)
        assert isinstance(solo[0], DivergenceError)
        assert str(batch[0]) == str(solo[0])
        assert batch[0].partial_record == solo[0].partial_record
        for expected, got in zip(solo[1:], batch[1:]):
            assert got[0].flat.tobytes() == expected[0].flat.tobytes()
            assert got[1] == expected[1]

    @pytest.mark.parametrize("overflow_first", [True, False])
    def test_replica_whose_weights_overflow_leaves_the_others_their_results(
        self, step_counter, overflow_first
    ):
        # one first-layer weight steps to inf at learning rate 1e38; tanh
        # saturates, so the loss stays finite and only the final weights
        # are not. The run alone raises NonFiniteError; in a stack with a
        # frozen run it must raise that alone, and the frozen run finishes.
        model = ToyModel.initialize([4, 8, 3], "tanh", "softmax-cross-entropy", 0)
        data = toy_task(dim=4)
        layout = model.params.layout
        single = np.zeros(layout.size, bool)
        single[layout.offsets[layout.names.index("layer0.weight")]] = True
        overflow, frozen = (
            quick_config(learning_rate=1e38, epochs=3, clip_group_norm=0.05, mask=m)
            for m in (SparsityMask.from_flat(layout, single), all_false_mask(model.params))
        )
        runs = {"overflow": overflow, "frozen": frozen}
        order = ["overflow", "frozen"] if overflow_first else ["frozen", "overflow"]
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteError) as solo_error:
                train(model, data, overflow)
            solo_final, solo_record = train(model, data, frozen)
            with training._train_cache():
                batch = dict(zip(order, training._train_batch(
                    [(model, data, runs[name]) for name in order]
                )))
                before = len(step_counter)
                hit_final, hit_record = train(model, data, frozen)
                assert len(step_counter) == before  # cached
                with pytest.raises(NonFiniteError) as again:
                    train(model, data, overflow)
                assert len(step_counter) > before  # not cached: trains again
        assert isinstance(batch["overflow"], NonFiniteError)
        assert str(batch["overflow"]) == str(again.value) == str(solo_error.value)
        for final, record in (batch["frozen"], (hit_final, hit_record)):
            assert final.flat.tobytes() == solo_final.flat.tobytes()
            assert record == solo_record

    def test_runs_of_other_architectures_each_equal_their_solo_run(self):
        data, config = toy_task(), quick_config()
        wider = ToyModel.initialize([6, 17, 3], "tanh", "softmax-cross-entropy", 0)
        relu = ToyModel.initialize([6, 16, 3], "relu", "softmax-cross-entropy", 0)
        for other in (wider, relu):
            assert_batch_equals_solo_runs(
                [(toy_model(), data, config), (other, data, config)]
            )

    @pytest.mark.parametrize("other", [
        "length", "input width", "target kind", "target width",
    ])
    def test_other_data_shapes_equal_solo_runs(self, other):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, 6)).astype(np.float32)
        labels = rng.integers(0, 3, size=64)
        vectors = rng.standard_normal((64, 3)).astype(np.float32)
        data = {
            "classes": Dataset(x, labels),
            "vectors": Dataset(x, vectors),
            "length": Dataset(x[:32], labels[:32]),
            "input width": Dataset(x[:, :5], labels),
            "target kind": Dataset(x, vectors),
            "target width": Dataset(x, vectors[:, :2]),
        }
        if other == "target width":
            first = data["vectors"]
            model = ToyModel.initialize([6, 16, 3], "tanh", "mean-squared-error", 0)
        else:
            first, model = data["classes"], toy_model()
        config = quick_config()
        batch = assert_batch_equals_solo_runs(
            [(model, first, config), (model, data[other], config)]
        )
        assert not isinstance(batch[0], LotaError)
        # data of another length fits the model; the other shapes do not
        assert isinstance(batch[1], ConfigError) == (other != "length")


def steps_per_run(config, data):
    return config.epochs * math.ceil(len(data) / config.batch_size)


def assert_same_lota(got, want):
    assert got.mask == want.mask
    assert got.w_final.flat.tobytes() == want.w_final.flat.tobytes()
    assert b"".join(_container_parts(got.adapter)) == b"".join(
        _container_parts(want.adapter)
    )
    assert got.train_record == want.train_record
    assert got.calibration_record == want.calibration_record


def lota_grid(model, plans, config):
    return training._solo(training._together(
        [lota.lockstep(model, d, s, config, f) for d, s, f in plans]
    ))


class TestLotaGridOracle:
    """A grid of LoTA phases, `_together` of `lota.lockstep` over a list of
    `(dataset, s, calibration_fraction)` plans, must equal a loop of `lota`
    calls bit for bit, and raise what that loop raises first."""

    def test_grid_equals_a_lota_loop(self, fwd_bwd_calls):
        model, data, config = toy_model(), toy_task(), quick_config()
        grid = [(0.0, 1.0), (0.5, 1.0), (0.9, 1.0), (0.9, 0.25), (0.9, 0.0)]
        expected = [lota(model, data, s, config, f) for s, f in grid]
        plans = [(data, s, f) for s, f in grid]
        for got, want in zip(lota_grid(model, plans, config), expected):
            assert_same_lota(got, want)
        calls = fwd_bwd_calls
        calls.clear()
        with training._train_cache():
            results = lota_grid(model, plans, config)
            # one shared full calibration, one on the 32-row prefix, then
            # the five retrains as one stack
            assert len(calls) == 2 * steps_per_run(config, data) + config.epochs
            before = len(calls)
            again = [lota(model, data, s, config, f) for s, f in grid]
            assert len(calls) == before
        for got, hit, want in zip(results, again, expected):
            assert_same_lota(got, want)
            assert_same_lota(hit, want)

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("first", ["frozen", "diverging"])
    def test_diverging_calibration_raises_what_the_loop_raises(self, cached, first):
        # plan 0 draws a random mask: at s = 0.999 it keeps nothing, so its
        # retrain is finite; at s = 0.5 its retrain diverges. Plan 1's
        # dense calibration diverges.
        model, data = toy_model(), toy_task()
        config = quick_config(learning_rate=1e38, epochs=3)
        grid = [(0.999 if first == "frozen" else 0.5, 0.0), (0.5, 1.0)]
        context = training._train_cache() if cached else contextlib.nullcontext()
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError) as from_loop:
                for s, f in grid:
                    lota(model, data, s, config, f)
            with context, pytest.raises(DivergenceError) as from_grid:
                lota_grid(model, [(data, s, f) for s, f in grid], config)
        want, got = from_loop.value, from_grid.value
        # the calibration's record has no mask, the retrain's has one
        assert (want.partial_record.config["mask"] is None) == (first == "frozen")
        assert str(got) == str(want)
        assert got.partial_record == want.partial_record


    def test_per_plan_datasets_equal_a_lota_loop(self, fwd_bwd_calls):
        model, config = toy_model(), quick_config()
        a, b, short = toy_task(0), toy_task(1), toy_task(2, n=64)
        plans = [(a, 0.9, 1.0), (b, 0.9, 1.0), (short, 0.5, 1.0), (b, 0.5, 0.5),
                 (a, 0.9, 0.0)]
        expected = [lota(model, d, s, config, f) for d, s, f in plans]
        for got, want in zip(lota_grid(model, plans, config), expected):
            assert_same_lota(got, want)
        calls = fwd_bwd_calls
        calls.clear()
        with training._train_cache():
            results = lota_grid(model, plans, config)
            # calibrations: a and b as one stack, then `short` and b's
            # 64-row prefix as another; retrains: the four on 128 rows as
            # one stack, then the one on `short`
            long_run, short_run = steps_per_run(config, a), steps_per_run(config, short)
            assert len(calls) == 2 * long_run + 2 * short_run
            before = len(calls)
            again = [lota(model, d, s, config, f) for d, s, f in plans]
            assert len(calls) == before
        for got, hit, want in zip(results, again, expected):
            assert_same_lota(got, want)
            assert_same_lota(hit, want)

    @pytest.mark.parametrize("error", ["diverging", "bad fraction"])
    def test_error_in_plan_j_follows_the_earlier_retrains(self, step_counter, error):
        # plan 0 keeps nothing (a random mask at s = 0.999), so it finishes;
        # plan 1, on other data, diverges or is refused; plan 2 would diverge
        model = toy_model()
        config = quick_config(learning_rate=1e38, epochs=3)
        plans = [
            (toy_task(0), 0.999, 0.0),
            (toy_task(1), 0.5, 1.5 if error == "bad fraction" else 1.0),
            (toy_task(2), 0.5, 1.0),
        ]
        expected = DivergenceError if error == "diverging" else ConfigError
        with np.errstate(all="ignore"):
            with pytest.raises(expected) as from_loop:
                for d, s, f in plans:
                    lota(model, d, s, config, f)
            with training._train_cache():
                with pytest.raises(expected) as from_grid:
                    lota_grid(model, plans, config)
                before = len(step_counter)
                d, s, f = plans[0]
                first = lota(model, d, s, config, f)
                assert len(step_counter) == before  # plan 0's retrain is cached
            assert_same_lota(first, lota(model, d, s, config, f))
        assert str(from_grid.value) == str(from_loop.value)
        if error == "diverging":
            assert from_grid.value.partial_record == from_loop.value.partial_record


class TestTogether:
    """`_together` drives lockstep generators as one: each round yields the
    union of their runs, and it returns their results in order or raises
    the first failing generator's error."""

    @staticmethod
    def steps(name, rounds, fails_at=None, sent=None):
        for r in range(rounds):
            if r == fails_at:
                raise ValueError(f"{name} fails at {r}")
            if sent is not None:
                sent.append((name, r))
            yield [f"{name}{r}"]
        if fails_at == rounds:
            raise ValueError(f"{name} fails at the end")
        return name

    def test_yields_the_union_of_each_round_and_returns_in_order(self):
        together = training._together(
            [self.steps("a", 1), self.steps("b", 3), self.steps("c", 2)]
        )
        rounds = []
        with pytest.raises(StopIteration) as stop:
            while True:
                rounds.append(next(together))
        assert rounds == [["a0", "b0", "c0"], ["b1", "c1"], ["b2"]]
        assert stop.value.value == ["a", "b", "c"]

    @pytest.mark.parametrize("fails, raised", [
        pytest.param({"a": 2, "b": 0}, "a fails at the end", id="earlier-late"),
        pytest.param({"b": 1, "c": 0}, "b fails at 1", id="both-midway"),
        pytest.param({"c": 1}, "c fails at 1", id="last"),
    ])
    def test_first_failing_generator_raises_as_a_loop_would(self, fails, raised):
        def loop(sent):
            for name in "abc":
                training._solo(self.steps(name, 2, fails.get(name), sent))

        def at_once(sent):
            training._solo(training._together(
                [self.steps(name, 2, fails.get(name), sent) for name in "abc"]
            ))

        sent = {loop: [], at_once: []}
        for drive in (loop, at_once):
            with pytest.raises(ValueError, match=raised):
                drive(sent[drive])
        # the same rounds are sent on: none after the first failing generator's
        assert sorted(sent[loop]) == sorted(sent[at_once])


class TestTrainCache:
    """Inside `_train_cache()` a repeated `train` call takes no steps and
    returns what a fresh run returns; any difference in its inputs misses."""

    @pytest.mark.parametrize("masked", [False, True])
    def test_hit_is_bit_identical_to_fresh_run(self, step_counter, masked):
        model, data = toy_model(), toy_task()
        mask = random_mask(model.params, 0.5, seed=1) if masked else None
        config = quick_config(mask=mask)
        fresh_w, fresh_rec = train(model, data, config)
        with training._train_cache():
            train(model, data, config)
            before_hit = len(step_counter)
            hit_w, hit_rec = train(model, data, config)
            assert len(step_counter) == before_hit
        assert hit_w.flat.tobytes() == fresh_w.flat.tobytes()
        assert not hit_w.flat.flags.writeable
        assert hit_rec.final_digest == fresh_rec.final_digest == digest(hit_w).hex()
        assert hit_rec.loss_trace == fresh_rec.loss_trace
        assert hit_rec.config == fresh_rec.config
        assert hit_rec == fresh_rec

    def test_masks_with_equal_counts_but_different_bits_miss(self, step_counter):
        model, data = toy_model(), toy_task()
        m1 = random_mask(model.params, 0.7, seed=1)
        m2 = random_mask(model.params, 0.7, seed=2)
        c1, c2 = quick_config(mask=m1), quick_config(mask=m2)
        assert m1 != m2 and c1.snapshot() == c2.snapshot()
        with training._train_cache():
            w1, _ = train(model, data, c1)
            w2, _ = train(model, data, c2)
        assert len(step_counter) == 2 * steps_per_run(c1, data)
        assert digest(w1) != digest(w2)

    def test_equal_bits_with_another_declared_sparsity_miss(self, step_counter):
        # the record's config carries the declared sparsity
        model, data = toy_model(), toy_task()
        m1 = random_mask(model.params, 0.7, seed=1)
        m2 = SparsityMask.from_flat(m1.layout, m1.flat)  # declares the measured
        assert m1.declared_sparsity == 0.7 != m2.declared_sparsity
        with training._train_cache():
            _, r1 = train(model, data, quick_config(mask=m1))
            _, r2 = train(model, data, quick_config(mask=m2))
        assert len(step_counter) == 2 * steps_per_run(quick_config(), data)
        assert r2.config["mask"]["declared_sparsity"] == m2.measured_sparsity

    @pytest.mark.parametrize(
        "field, value",
        [("learning_rate", 0.02), ("batch_size", 16), ("epochs", 4), ("seed", 8),
         ("calibration_epochs", 1), ("rmsprop_decay", 0.9),
         ("rmsprop_epsilon", 1e-6), ("clip_group_norm", 0.5)],
    )
    def test_every_config_field_is_in_the_key(self, step_counter, field, value):
        model, data = toy_model(), toy_task()
        base, other = quick_config(), quick_config(**{field: value})
        with training._train_cache():
            train(model, data, base)
            train(model, data, other)
        assert len(step_counter) == (
            steps_per_run(base, data) + steps_per_run(other, data)
        )

    def test_equal_content_dataset_copy_hits(self, step_counter):
        model, data, config = toy_model(), toy_task(), quick_config()
        same = data.take(np.arange(len(data)))
        assert same is not data
        with training._train_cache():
            w1, _ = train(model, data, config)
            w2, _ = train(model, same, config)
        assert len(step_counter) == steps_per_run(config, data)
        assert w2 is w1

    def test_same_length_different_content_misses(self, step_counter):
        model, config = toy_model(), quick_config()
        data, other = toy_task(0), toy_task(1)
        assert len(data) == len(other)
        with training._train_cache():
            train(model, data, config)
            train(model, other, config)
        assert len(step_counter) == 2 * steps_per_run(config, data)

    def test_different_init_params_miss(self, step_counter):
        data, config = toy_task(), quick_config()
        with training._train_cache():
            train(toy_model(0), data, config)
            train(toy_model(1), data, config)
        assert len(step_counter) == 2 * steps_per_run(config, data)

    def test_nothing_cached_outside_the_context(self, step_counter):
        model, data, config = toy_model(), toy_task(), quick_config()
        with training._train_cache():
            train(model, data, config)
        train(model, data, config)
        train(model, data, config)
        assert len(step_counter) == 3 * steps_per_run(config, data)

    def test_mutating_a_returned_record_leaves_the_next_hit_intact(self):
        model, data, config = toy_model(), toy_task(), quick_config()
        with training._train_cache():
            _, first = train(model, data, config)
            expected = copy.deepcopy(first)
            first.loss_trace.append(99.0)
            first.config["epochs"] = -1
            first.final_digest = "changed"
            _, second = train(model, data, config)
            assert second == expected
            second.loss_trace.clear()
            second.config["seed"] = -1
            _, third = train(model, data, config)
        assert third == expected

    def test_diverging_config_raises_on_both_calls(self, step_counter):
        model, data = toy_model(), toy_task()
        config = quick_config(learning_rate=1e38, epochs=3)
        counts = []
        with training._train_cache(), np.errstate(all="ignore"):
            for _ in range(2):
                with pytest.raises(DivergenceError):
                    train(model, data, config)
                counts.append(len(step_counter))
        assert counts[0] > 0 and counts[1] == 2 * counts[0]


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

    @pytest.mark.parametrize("run, match", [
        (lambda model, data, config: lota(model, data, 0.9, config), "builds its own masks"),
        (lambda model, data, config: mixed_data_fft(model, data, data, 0.5, config),
         "mixed-data training is dense"),
    ], ids=["lota", "mixed-data"])
    def test_config_mask_refused(self, step_counter, run, match):
        model, data = toy_model(), toy_task()
        mask = random_mask(model.params, 0.5, seed=1)
        with pytest.raises(ConfigError, match=match):
            run(model, data, quick_config().replace(mask=mask))
        assert step_counter == []


class TestIterativeLota:
    def test_single_stage_matches_lota(self):
        model, data = toy_model(6), toy_task(6)
        single = lota(model, data, 0.9, quick_config())
        (chained,) = iterative_lota(model, data, [0.9], quick_config())
        assert digest(chained.w_final) == digest(single.w_final)
        assert chained.mask == single.mask

    def test_nested_masks(self):
        model, data = toy_model(7), toy_task(7)
        stages = iterative_lota(model, data, [0.8, 0.95], quick_config())
        coarse, fine = (stage.mask for stage in stages)
        assert not (fine.flat & ~coarse.flat).any()
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
        (lotto_result,) = lotto(model, [data], 0.9, quick_config())
        lota_result = lota(model, data, 0.9, quick_config(), calibration_fraction=1.0)
        assert digest(lotto_result.w_final) == digest(lota_result.w_final)
        assert lotto_result.mask == lota_result.mask

    def test_two_task_masks_disjoint(self):
        model = toy_model(9)
        data = [toy_task(9), toy_task(10)]
        first, second = lotto(model, data, 0.9, quick_config())
        assert np.count_nonzero(first.mask.flat & second.mask.flat) == 0

    def test_first_mask_coordinates_frozen_during_second_task(self):
        model = toy_model(11)
        data = [toy_task(11), toy_task(12)]
        phases = lotto(model, data, 0.9, quick_config())
        # the first phase starts from w_P with no constraints, so it is a
        # lota run; replaying its adapter would round w_P + (w_1 - w_P)
        first = lota(model, data[0], 0.9, quick_config(), calibration_fraction=1.0)
        m1 = phases[0].mask
        assert m1 == first.mask and m1.kept_count > 0
        kept = m1.flat
        w_final = phases[-1].w_final
        assert w_final.flat[kept].tobytes() == first.w_final.flat[kept].tobytes()

    def test_initial_constraints_respected(self):
        model, data = toy_model(13), toy_task(13)
        blocked = random_mask(model.params, 0.5, seed=1)
        (result,) = lotto(
            model, [data], 0.9, quick_config(), initial_constraints=blocked
        )
        assert np.count_nonzero(result.mask.flat & blocked.flat) == 0

    def test_no_datasets_refused(self):
        with pytest.raises(ConfigError, match="at least one dataset"):
            lotto(toy_model(), [], 0.9, quick_config())

    def test_constraint_exhaustion(self):
        model, data = toy_model(14), toy_task(14)
        nearly_full = random_mask(model.params, 0.01, seed=2)  # 99% blocked
        with pytest.raises(CapacityError, match="constraint set exhausted"):
            lotto(model, [data], 0.5, quick_config(), initial_constraints=nearly_full)


class TestMixedDataFft:
    def test_zero_fraction_identical_to_plain(self):
        model = toy_model(17)
        data_b, data_a = toy_task(17), toy_task(18)
        w_mixed, _ = mixed_data_fft(model, data_b, data_a, 0.0, quick_config())
        w_plain, _ = train(model, data_b, quick_config())
        assert digest(w_mixed) == digest(w_plain)

    def test_full_fraction_doubles_dataset(self, step_counter):
        model, config = toy_model(19), quick_config()
        data_b, data_a = toy_task(19, n=64), toy_task(20, n=200)
        w_mixed, _ = mixed_data_fft(model, data_b, data_a, 1.0, config)
        # 64 rows of B plus 64 of A: 4 batches of 32 per epoch
        assert len(step_counter) == config.epochs * 4
        rng = np.random.default_rng(config.seed)
        sample = data_a.take(rng.choice(len(data_a), size=64, replace=False))
        w_concat, _ = train(model, concat_datasets([data_b, sample]), config)
        assert w_mixed.flat.tobytes() == w_concat.flat.tobytes()

    def test_deterministic(self):
        model = toy_model(21)
        data_b, data_a = toy_task(21), toy_task(22)
        w1, _ = mixed_data_fft(model, data_b, data_a, 0.5, quick_config())
        w2, _ = mixed_data_fft(model, data_b, data_a, 0.5, quick_config())
        assert digest(w1) == digest(w2)
