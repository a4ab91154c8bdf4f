import contextlib
import dataclasses
import json
import math
import sys

import numpy as np
import pytest

from lota import ConfigError, HarnessError, ParameterMap, digest, harness, training
from lota.harness import (
    CalibrationAblationSpec,
    MergingSpec,
    MetricsReport,
    ModelSpec,
    SequentialSpec,
    derive_seed,
    evaluate,
    run_experiment,
    SparsityAblationSpec,
)
from lota.models import Dataset
from lota.tasks import SyntheticTaskSpec


def cluster_task(seed, task_id, active=None, **overrides):
    params = {"separation": 2.0}
    if active is not None:
        params["active_dims"] = active
    base = dict(
        generator="gaussian-cluster-classification",
        input_dim=8,
        output_dim=3,
        train_size=256,
        test_size=256,
        noise=0.5,
        seed=seed,
        task_id=task_id,
        params=params,
    )
    base.update(overrides)
    return SyntheticTaskSpec(**base)


def small_sequential_spec(**overrides):
    defaults = dict(
        model=ModelSpec(widths=(8, 24, 3)),
        task_a=cluster_task(0, "a", active=[0, 1, 2, 3]),
        task_b=cluster_task(1, "b", active=[4, 5, 6, 7]),
        train=dict(learning_rate=0.01, batch_size=32, epochs=8,
                   calibration_epochs=2),
        seeds=(0, 1),
        sparsity=0.8,
        require_interference=False,
        method_pairs=("fft->fft", "lota->lotto", "fft->fft-mixed"),
    )
    defaults.update(overrides)
    return SequentialSpec(**defaults)


def small_merging_spec(**overrides):
    defaults = dict(
        model=ModelSpec(widths=(8, 24, 3)),
        task_a=cluster_task(0, "a", active=[0, 1, 2, 3]),
        task_b=cluster_task(1, "b", active=[4, 5, 6, 7]),
        train=dict(learning_rate=0.01, batch_size=32, epochs=8,
                   calibration_epochs=8),
        seeds=(0,),
        fraction_grid=(0.2, 0.3),
        sparsity=0.8,
    )
    defaults.update(overrides)
    return MergingSpec(**defaults)


def small_sparsity_spec():
    return SparsityAblationSpec(
        model=ModelSpec(widths=(8, 24, 3)),
        task=cluster_task(2, "s"),
        train=dict(learning_rate=0.01, batch_size=32, epochs=6,
                   calibration_epochs=2),
        seeds=(0,),
        grid=(0.0, 0.25, 0.5, 0.75, 0.9, 0.99),
        iterative_schedule=(0.9, 0.99),
    )


def small_calibration_spec():
    return CalibrationAblationSpec(
        model=ModelSpec(widths=(8, 24, 3)),
        task=cluster_task(1, "c"),
        train=dict(learning_rate=0.01, batch_size=32, epochs=6,
                   calibration_epochs=2),
        seeds=(0,),
        fractions=(1.0, 0.5, 0.0),
        sparsity=0.8,
    )


class TestEvaluate:
    def test_constant_predictor(self):
        # zero weights, bias favoring class 0 -> always predicts class 0
        entries = {
            "layer0.weight": np.zeros((4, 2), np.float32),
            "layer0.bias": np.array([1.0, 0.0], np.float32),
        }
        from lota import ToyModel

        model = ToyModel((4, 2), "tanh", "softmax-cross-entropy", ParameterMap(entries))
        rng = np.random.default_rng(0)
        inputs = rng.standard_normal((100, 4)).astype(np.float32)
        balanced = Dataset(inputs, np.repeat([0, 1], 50).astype(np.int64))
        assert evaluate(model, balanced) == 0.5
        all_zero = Dataset(inputs, np.zeros(100, dtype=np.int64))
        assert evaluate(model, all_zero) == 1.0

    def test_all_correct_constructed_set(self):
        model = ModelSpec(widths=(4, 3)).build(seed=0)
        inputs = np.random.default_rng(1).standard_normal((64, 4)).astype(np.float32)
        labels = model.forward(inputs).argmax(axis=1)
        ds = Dataset(inputs, labels.astype(np.int64))
        assert evaluate(model, ds) == 1.0

    def test_permutation_invariant(self):
        model = ModelSpec(widths=(4, 3)).build(seed=2)
        rng = np.random.default_rng(3)
        inputs = rng.standard_normal((40, 4)).astype(np.float32)
        labels = rng.integers(0, 3, size=40)
        ds = Dataset(inputs, labels)
        perm = rng.permutation(40)
        shuffled = Dataset(inputs[perm], labels[perm])
        assert evaluate(model, ds) == evaluate(model, shuffled)

    def test_perfect_teacher_zero_mse(self):
        # dyadic weights and +/-1 inputs keep the linear forward exact in
        # float32, so the teacher's own targets give MSE exactly 0
        from lota import ToyModel

        entries = {
            "layer0.weight": np.full((4, 2), 0.5, np.float32),
            "layer0.bias": np.array([0.25, -0.5], np.float32),
        }
        model = ToyModel((4, 2), "tanh", "mean-squared-error", ParameterMap(entries))
        rng = np.random.default_rng(5)
        inputs = rng.choice([-1.0, 1.0], size=(30, 4)).astype(np.float32)
        targets = model.forward(inputs).astype(np.float32)
        ds = Dataset(inputs, targets)
        assert evaluate(model, ds) == 0.0

    # data that `train` refuses for the model is refused here too
    def test_negative_class_index_refused(self):
        model = ModelSpec(widths=(6, 16, 3)).build(seed=0)
        labels = np.zeros(8, np.int64)
        labels[3] = -1
        data = Dataset(np.ones((8, 6), np.float32), labels)
        with pytest.raises(ConfigError, match=r"class indices must be in \[0, 3\)"):
            evaluate(model, data)

    def test_mean_squared_error_model_refuses_class_targets(self):
        model = ModelSpec(widths=(6, 16, 3), head="mean-squared-error").build(seed=0)
        data = Dataset(np.ones((8, 6), np.float32), np.zeros(8, np.int64))
        with pytest.raises(ConfigError, match="float targets of width 3"):
            evaluate(model, data)

    def test_input_width_mismatch_refused(self):
        model = ModelSpec(widths=(6, 16, 3)).build(seed=0)
        data = Dataset(np.ones((8, 5), np.float32), np.zeros(8, np.int64))
        with pytest.raises(ConfigError, match="inputs have width 5; the model takes 6"):
            evaluate(model, data)


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed("init", 3) == derive_seed("init", 3)
        assert derive_seed("init", 3) != derive_seed("init", 4)
        assert derive_seed("init", 3) != derive_seed("task", 3)


class TestSequential:
    def test_report_structure_and_determinism(self):
        spec = small_sequential_spec()
        report = run_experiment(spec)
        again = run_experiment(spec)
        assert report.to_json() == again.to_json()
        roles = {row.get("role") for row in report.rows}
        assert roles == {"baseline", "pair"}
        baseline_rows = [r for r in report.rows if r["role"] == "baseline"]
        assert {(r["task"], r["method"]) for r in baseline_rows} == {
            ("a", "fft"),
            ("a", "lota"),
            ("b", "fft"),
        }

    def test_interference_assertion_fires_when_nothing_moves(self):
        # a near-zero learning rate cannot disturb task A, so the fft->fft
        # drop stays ~0 and the precondition must fail
        spec = small_sequential_spec(
            train=dict(learning_rate=1e-12, batch_size=32, epochs=1),
            require_interference=True,
        )
        with pytest.raises(HarnessError, match="interfere"):
            run_experiment(spec)

    def test_unknown_pair_rejected(self):
        from lota import ConfigError

        with pytest.raises(ConfigError):
            small_sequential_spec(method_pairs=("fft->nonsense",))

    def test_csv_has_pair_rows(self):
        report = run_experiment(small_sequential_spec())
        csv_text = report.to_csv()
        assert "fft->fft" in csv_text
        assert "utility_a_mean" in csv_text.splitlines()[0]


class TestSparsityAblation:
    def test_zero_sparsity_row_matches_fft(self):
        task = cluster_task(2, "s")
        spec = SparsityAblationSpec(
            model=ModelSpec(widths=(8, 24, 3)),
            task=task,
            train=dict(learning_rate=0.01, batch_size=32, epochs=6,
                       calibration_epochs=2),
            seeds=(0,),
            grid=(0.0, 0.5),
            iterative_schedule=None,
        )
        report = run_experiment(spec)
        rows = {r["row"]: r for r in report.rows}
        assert rows["s=0.0"]["k"] == ModelSpec(widths=(8, 24, 3)).build(0).params.total_elements
        # bitwise claim: the s=0 run IS an unmasked run from the same seed
        from lota.harness import _train_config
        from lota.training import lota, train

        model = spec.model.build(derive_seed("init", 0))
        data, test = task.reseeded(derive_seed("task", 0)).make()
        config = _train_config(spec.train, derive_seed("train", 0))
        via_lota = lota(model, data, 0.0, config)
        via_fft, _ = train(model, data, config)
        assert digest(via_lota.w_final) == digest(via_fft)

    def test_rows_report_k_consistent_with_rounding(self):
        task = cluster_task(3, "s")
        spec = SparsityAblationSpec(
            model=ModelSpec(widths=(8, 24, 3)),
            task=task,
            train=dict(learning_rate=0.01, batch_size=32, epochs=4,
                       calibration_epochs=2),
            seeds=(0,),
            grid=(0.75,),
            iterative_schedule=None,
        )
        report = run_experiment(spec)
        n = ModelSpec(widths=(8, 24, 3)).build(0).params.total_elements
        assert report.rows[0]["k"] == int(np.floor(0.25 * n + 0.5))


class TestCalibrationAblation:
    def test_requires_full_fraction_reference(self):
        from lota import ConfigError

        with pytest.raises(ConfigError):
            CalibrationAblationSpec(
                model=ModelSpec(widths=(8, 24, 3)),
                task=cluster_task(1, "c"),
                train=dict(learning_rate=0.01, batch_size=32, epochs=2),
                seeds=(0,),
                fractions=(0.5, 0.0),
            )

    def test_zero_fraction_row_flagged_random(self):
        spec = CalibrationAblationSpec(
            model=ModelSpec(widths=(8, 24, 3)),
            task=cluster_task(1, "c"),
            train=dict(learning_rate=0.01, batch_size=32, epochs=3,
                       calibration_epochs=1),
            seeds=(0,),
            fractions=(1.0, 0.0),
            sparsity=0.8,
        )
        report = run_experiment(spec)
        rows = {r["fraction"]: r for r in report.rows}
        assert rows[0.0]["mask_source"] == "random"
        assert rows[1.0]["mask_source"] == "calibrated"
        assert rows[1.0]["drop_mean"] == 0.0


class TestMerging:
    def test_lota_lota_single_cell_and_self_merge(self):
        report = run_experiment(small_merging_spec())
        rows = {r.get("pair"): r for r in report.rows if r.get("role") == "pair"}
        assert rows["lota+lota"]["cells"] == 1
        assert rows["fft+fft"]["cells"] == 4
        assert rows["lota+fft"]["cells"] == 2

    def test_each_merged_cell_is_scored_once(self, monkeypatch):
        calls = []
        original = harness.evaluate
        monkeypatch.setattr(harness, "evaluate",
                            lambda *a: calls.append(None) or original(*a))
        report = run_experiment(small_merging_spec(seeds=(0, 1)))
        cells = sum(r["cells"] for r in report.rows if r.get("role") == "pair")
        assert cells == 4 + 2 + 2 + 1
        # per seed: the two fft baselines, then both tasks once per cell
        assert len(calls) == 2 * (2 + 2 * cells)

    def test_merging_model_with_itself_preserves_utility(self):
        from lota import encode, merge_lota, compute_task_vector
        from lota.harness import _train_config
        from lota.training import lota as run_lota

        model = ModelSpec(widths=(8, 24, 3)).build(seed=7)
        task = cluster_task(4, "self")
        data, test = task.make()
        config = _train_config(
            dict(learning_rate=0.01, batch_size=32, epochs=8, calibration_epochs=4),
            seed=11,
        )
        result = run_lota(model, data, 0.8, config)
        merged = merge_lota(model.params, [result.adapter, result.adapter])
        u_merged = evaluate(model.with_params(merged), test)
        u_single = evaluate(model.with_params(result.w_final), test)
        assert u_merged == u_single


BATCHES = math.ceil(256 / 32)  # cluster_task train_size / batch_size


def check_cached(spec, step_counter, monkeypatch, cached, uncached):
    """`run_experiment` trains `cached` replica steps, and `uncached` ones
    without the `train` cache, for the same report byte for byte."""
    report = run_experiment(spec)
    assert len(step_counter) == cached
    step_counter.clear()
    monkeypatch.setattr(harness, "_train_cache", contextlib.nullcontext)
    assert run_experiment(spec).to_json() == report.to_json()
    assert len(step_counter) == uncached


class TestTrainCachePerSeed:
    """What each seed trains, and in how many stacked steps, under the
    `train` cache of `run_experiment`; the report equals an uncached run's
    byte for byte."""

    batches = BATCHES

    def test_sparsity_ablation_trains_8_of_15_runs_per_seed(
        self, step_counter, monkeypatch
    ):
        # one shared calibration, six grid retrains and iterative stage 1;
        # iterative stage 0 calibrates and retrains exactly as s=0.9 did
        cal, retrain = 2 * self.batches, 6 * self.batches
        check_cached(
            small_sparsity_spec(), step_counter, monkeypatch,
            cal + 7 * retrain, 7 * cal + 8 * retrain,
        )

    def test_grid_retrains_run_as_one_stack(self, fwd_bwd_calls, monkeypatch):
        calls = fwd_bwd_calls
        cal, retrain = 2 * self.batches, 6 * self.batches
        # one shared calibration, the six grid retrains stacked, iterative stage 1
        run_experiment(small_sparsity_spec())
        assert len(calls) == cal + 2 * retrain
        calls.clear()
        # calibrations on the full and the half prefix, then one stack of three
        report = run_experiment(small_calibration_spec())
        assert len(calls) == cal + cal // 2 + retrain
        monkeypatch.setattr(harness, "_train_cache", contextlib.nullcontext)
        assert run_experiment(small_calibration_spec()).to_json() == report.to_json()

    def test_merging_seed_runs_two_stacks(self, fwd_bwd_calls, step_counter):
        # the fft arms of A and B as one stack, whose runs the lota
        # calibrations hit, then the two lota retrains as another
        run = 8 * self.batches
        with training._train_cache():
            training._solo(harness._merging_one_seed(small_merging_spec(), 0))
        assert len(fwd_bwd_calls) == 2 * run
        assert len(step_counter) == 4 * run

    def test_sequential_seed_stacks_its_fft_arms(self, fwd_bwd_calls, monkeypatch):
        spec = small_sequential_spec()
        report = run_experiment(spec)
        cached = len(fwd_bwd_calls)
        fwd_bwd_calls.clear()
        monkeypatch.setattr(harness, "_train_cache", contextlib.nullcontext)
        assert run_experiment(spec).to_json() == report.to_json()
        run, cal = 8 * self.batches, 2 * self.batches
        mixed = 8 * math.ceil(1.5 * 256 / 32)  # B plus half as many rows of A
        seeds = len(spec.seeds)
        # per seed: the fft arms on A and B, lota on A (calibration and
        # retrain), fft->fft from w_fft_a, lotto (calibration and retrain)
        # and the mixed-data run
        assert len(fwd_bwd_calls) == seeds * (5 * run + 2 * cal + mixed)
        # all seeds as one stack at each point that trains ahead: the fft
        # arms, lota's calibration and its retrain, the B phase's fft->fft
        # arms, lotto's calibration and its retrain, and the mixed-data run
        assert cached == 3 * run + cal + cal + run + mixed

    def test_sequential_b_phase_dense_arms_train_as_one_stack(self, monkeypatch):
        loops = []
        original = training._step_loop

        def counting(runs, records):
            loops.append((len(runs), len({id(m.params) for m, _, _ in runs})))
            return original(runs, records)

        monkeypatch.setattr(training, "_step_loop", counting)
        spec = small_sequential_spec(method_pairs=("fft->fft", "lota->fft"), seeds=(0,))
        report = run_experiment(spec)
        # (replicas, distinct start weights) per step loop: the fft arms on
        # A and B, lota's calibration and retrain on A, then fft->fft and
        # lota->fft from w_fft_a and lota's w_final as one stack
        assert loops == [(2, 1), (1, 1), (1, 1), (2, 2)]
        monkeypatch.setattr(harness, "_train_cache", contextlib.nullcontext)
        loops.clear()
        assert run_experiment(spec).to_json() == report.to_json()
        assert loops == [(1, 1)] * 6

    def test_sequential_b_phase_lota_and_lotto_train_as_one_stack(self, monkeypatch):
        loops = []
        original = training._step_loop

        def counting(runs, records):
            loops.append((len(runs), len({id(m.params) for m, _, _ in runs})))
            return original(runs, records)

        monkeypatch.setattr(training, "_step_loop", counting)
        spec = small_sequential_spec(method_pairs=("fft->lota", "lota->lotto"))
        report = run_experiment(spec)
        # (replicas, distinct start weights) per step loop: the fft arms on
        # A and B of both seeds, lota's calibration and retrain on A, then
        # the B phase's LoTA and LoTTO calibrations of both seeds as one
        # stack, and their retrains as another
        assert loops == [(4, 2), (2, 2), (2, 2), (4, 4), (4, 4)]
        monkeypatch.setattr(harness, "_train_cache", contextlib.nullcontext)
        loops.clear()
        assert run_experiment(spec).to_json() == report.to_json()

    def test_sparsity_iterative_stage_trains_as_one_stack(self, monkeypatch):
        loops = []
        original = training._step_loop

        def counting(runs, records):
            loops.append((len(runs), len({id(m.params) for m, _, _ in runs})))
            return original(runs, records)

        monkeypatch.setattr(training, "_step_loop", counting)
        spec = dataclasses.replace(small_sparsity_spec(), seeds=(0, 1, 2))
        report = run_experiment(spec)
        # (replicas, distinct start weights) per step loop: each seed's one
        # shared calibration, the six grid retrains of every seed, then
        # iterative stage 1 of every seed (stage 0 hits the s=0.9 runs)
        assert loops == [(3, 3), (18, 3), (3, 3)]
        monkeypatch.setattr(harness, "_train_cache", contextlib.nullcontext)
        loops.clear()
        assert run_experiment(spec).to_json() == report.to_json()
        # per seed: 6 grid calibrations and retrains, 2 iterative stages
        # and the calibration of stage 0
        assert loops == [(1, 1)] * 3 * 15

    def test_second_call_starts_cold(self, step_counter):
        spec = small_merging_spec()
        run_experiment(spec)
        first = len(step_counter)
        run_experiment(spec)
        assert len(step_counter) == 2 * first == 2 * 4 * 8 * self.batches


class TestTrainCachePerExperiment:
    """`run_experiment` opens one `train` cache for the whole experiment:
    its seeds share it, and no other call does."""

    def test_repeated_seed_trains_once(self, step_counter, monkeypatch):
        # lota's dense calibrations repeat the two fft runs, and the second
        # listing of seed 0 hits every run of the first
        spec = small_merging_spec(seeds=(0, 0))
        run = 8 * BATCHES
        check_cached(spec, step_counter, monkeypatch, 4 * run, 2 * 6 * run)

    def test_two_calls_share_no_memo(self, step_counter, monkeypatch):
        spec = small_merging_spec(seeds=(0, 1))
        run_experiment(spec)
        assert training._TRAIN_CACHE.get() is None
        assert len(step_counter) == 2 * 4 * 8 * BATCHES
        original = harness._merging_one_seed

        def failing(spec, seed):
            yield from original(spec, seed)
            raise HarnessError("late")

        monkeypatch.setattr(harness, "_merging_one_seed", failing)
        with pytest.raises(HarnessError, match="late"):
            run_experiment(spec)
        assert training._TRAIN_CACHE.get() is None
        monkeypatch.setattr(harness, "_merging_one_seed", original)
        step_counter.clear()
        run_experiment(spec)
        assert len(step_counter) == 2 * 4 * 8 * BATCHES


def seed_by_seed(spec):
    """`run_experiment` without the lockstep: one seed at a time, each in a
    `train` cache of its own."""
    one_seed, build_rows = harness._kind_functions(spec)
    per_seed = []
    for seed in spec.seeds:
        with training._train_cache():
            per_seed.append(training._solo(one_seed(spec, seed)))
    return MetricsReport(spec.kind, spec.to_json_dict(), list(spec.seeds),
                         build_rows(spec, per_seed))


def lockstep_specs():
    seeds = (0, 1, 2)
    return {
        "sequential": small_sequential_spec(
            seeds=seeds, method_pairs=harness.SEQUENTIAL_METHOD_PAIRS
        ),
        "sparsity-ablation": dataclasses.replace(small_sparsity_spec(), seeds=seeds),
        "calibration-ablation": dataclasses.replace(
            small_calibration_spec(), seeds=seeds, base_task=cluster_task(5, "c-base"),
            base_train=dict(learning_rate=0.01, batch_size=32, epochs=3),
        ),
        "merging": small_merging_spec(seeds=seeds),
    }


class TestLockstepOracle:
    """All seeds of an experiment train in lockstep, as shared stacks; the
    report must equal driving one seed at a time byte for byte, and a
    failure must raise what the seed-by-seed loop raises."""

    @pytest.mark.parametrize("kind", list(lockstep_specs()))
    def test_report_equals_one_seed_at_a_time(self, kind, fwd_bwd_calls):
        spec = lockstep_specs()[kind]
        report = run_experiment(spec)
        stacked = len(fwd_bwd_calls)
        fwd_bwd_calls.clear()
        alone = seed_by_seed(spec)
        assert report.to_json() == alone.to_json()
        assert report.to_csv() == alone.to_csv()
        # every seed trains ahead at the same points, so the lockstep takes
        # fewer stacked steps; a merging seed trains only ahead, so a third
        assert stacked < len(fwd_bwd_calls)
        if kind == "merging":
            assert 3 * stacked == len(fwd_bwd_calls)

    @pytest.mark.parametrize("seeds, raised", [
        pytest.param((0, 1, 2), "seed 0 fails late", id="0-1-2"),
        pytest.param((1, 0, 2), "seed 1 fails early", id="1-0-2"),
        pytest.param((2, 0, 1), "seed 0 fails late", id="2-0-1"),
    ])
    def test_first_failing_seed_raises_its_own_error(self, monkeypatch, seeds, raised):
        # seed 1 fails before its first yield, seed 0 after its last; the
        # seeds after the first failure in seed order are never sent on
        original = harness._merging_one_seed
        finished = []

        def flaky(spec, seed):
            if seed == 1:
                raise HarnessError("seed 1 fails early")
            result = yield from original(spec, seed)
            finished.append(seed)
            if seed == 0:
                raise HarnessError("seed 0 fails late")
            return result

        monkeypatch.setattr(harness, "_merging_one_seed", flaky)
        spec = small_merging_spec(seeds=seeds)
        with pytest.raises(HarnessError) as from_loop:
            seed_by_seed(spec)
        alone = list(finished)
        finished.clear()
        with pytest.raises(HarnessError) as from_lockstep:
            run_experiment(spec)
        assert str(from_lockstep.value) == str(from_loop.value) == raised
        assert finished == alone


class TestLockstepProtocol:
    """Inside `run_experiment` every run trains in a stack that a lockstep
    driver formed ahead of its `train` call, so that call is a memo hit."""

    # the replicas of each step loop of a kind's two-seed spec, in order
    stacks = {
        "sequential": [4, 2, 2, 4, 4, 2, 4],
        "sparsity-ablation": [2, 12, 2],
        "calibration-ablation": [2, 2, 2, 6],
        "merging": [4, 4],
    }

    @pytest.mark.parametrize("kind", list(stacks))
    def test_no_step_loop_runs_under_train(self, kind, monkeypatch):
        train_code = training.train.__code__
        loops = []  # (replicas, whether a `train` call is on the stack)
        original = training._step_loop

        def recording(runs, records):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not train_code:
                frame = frame.f_back
            loops.append((len(runs), frame is not None))
            return original(runs, records)

        monkeypatch.setattr(training, "_step_loop", recording)
        run_experiment(dataclasses.replace(lockstep_specs()[kind], seeds=(0, 1)))
        assert loops == [(replicas, False) for replicas in self.stacks[kind]]
