import numpy as np
import pytest

from lota import ConfigError
from lota.harness import ModelSpec, evaluate
from lota.tasks import SyntheticTaskSpec
from lota.training import TrainConfig, train


def spec_for(generator, **overrides):
    base = dict(
        generator=generator,
        input_dim=8,
        output_dim=3,
        train_size=512,
        test_size=512,
        noise=0.3,
        seed=5,
    )
    base.update(overrides)
    return SyntheticTaskSpec(**base)


class TestGenerators:
    def test_deterministic(self):
        a_train, a_test = spec_for("gaussian-cluster-classification").make()
        b_train, b_test = spec_for("gaussian-cluster-classification").make()
        np.testing.assert_array_equal(a_train.inputs, b_train.inputs)
        np.testing.assert_array_equal(a_test.targets, b_test.targets)

    def test_train_test_disjoint(self):
        train_ds, test_ds = spec_for("gaussian-cluster-classification").make()
        train_rows = {row.tobytes() for row in train_ds.inputs}
        assert not any(row.tobytes() in train_rows for row in test_ds.inputs)

    def test_reseeded_changes_data(self):
        a, _ = spec_for("gaussian-cluster-classification").make()
        b, _ = spec_for("gaussian-cluster-classification").reseeded(6).make()
        assert not np.array_equal(a.inputs, b.inputs)

    def test_unknown_generator_rejected(self):
        with pytest.raises(ConfigError):
            spec_for("nonsense-generator")

    def test_regression_targets_are_vectors(self):
        train_ds, _ = spec_for("random-teacher-regression", output_dim=2).make()
        assert train_ds.targets.shape == (512, 2)
        assert not train_ds.is_classification

    def test_parity_binary(self):
        train_ds, _ = spec_for(
            "parity-slice-classification", output_dim=2, params={"parity_dims": 2}
        ).make()
        assert set(np.unique(train_ds.targets)) <= {0, 1}

    def test_relabel_shares_structure(self):
        base = spec_for("gaussian-cluster-classification", output_dim=6)
        shifted = spec_for(
            "gaussian-cluster-classification",
            output_dim=6,
            params={"relabel_count": 3},
        )
        base_train, _ = base.make()
        shifted_train, _ = shifted.make()
        np.testing.assert_array_equal(base_train.inputs, shifted_train.inputs)
        assert (base_train.targets != shifted_train.targets).any()

    @pytest.mark.parametrize("overrides, field", [
        ({"noise": float("nan")}, "noise"),
        ({"noise": float("inf")}, "noise"),
        ({"seed": -1}, "seed"),
        ({"train_size": 2**70}, "train_size"),
        ({"input_dim": True}, "input_dim"),
        ({"task_id": 5}, "task_id"),
        ({"params": 5}, "params"),
        ({"params": {"active_dims": "x"}}, "active_dims"),
        ({"params": {"active_dims": [-1]}}, "active_dims"),
        ({"params": {"active_dims": [8]}}, "active_dims"),
        ({"params": {"separation": "x"}}, "separation"),
        ({"params": {"sparation": 2.0}}, "sparation"),
        ({"params": {"parity_dims": 2}}, "parity_dims"),
        ({"generator": "parity-slice-classification", "output_dim": 2,
          "params": {"parity_dims": 9}}, "parity_dims out of range"),
        ({"generator": "parity-slice-classification"}, "output_dim must be 2"),
    ])
    def test_hostile_spec_refused_when_built(self, overrides, field):
        with pytest.raises(ConfigError, match=field):
            spec_for(**{"generator": "gaussian-cluster-classification", **overrides})

    SCALES = [("gaussian-cluster-classification", "noise"),
              ("gaussian-cluster-classification", "separation"),
              ("gaussian-cluster-classification", "background"),
              ("random-teacher-regression", "noise"),
              ("parity-slice-classification", "noise")]

    @staticmethod
    def scaled(generator, key, value):
        output_dim = 2 if generator.startswith("parity") else 3
        if key == "noise":
            return spec_for(generator, output_dim=output_dim, noise=value)
        return spec_for(generator, output_dim=output_dim, params={key: value})

    @pytest.mark.parametrize("generator, key", SCALES)
    def test_data_finite_at_scale_cap(self, generator, key):
        for data in self.scaled(generator, key, 1e6).make():
            assert np.isfinite(data.inputs).all()
            assert np.isfinite(data.targets).all()

    @pytest.mark.parametrize("generator, key", SCALES)
    @pytest.mark.parametrize("value", [1.0000001e6, 1e300])
    def test_scale_above_cap_refused_when_built(self, generator, key, value):
        with pytest.raises(ConfigError, match=key):
            self.scaled(generator, key, value)

    def test_relabel_count_validated(self):
        with pytest.raises(ConfigError):
            spec_for(
                "gaussian-cluster-classification", params={"relabel_count": 99}
            ).make()


@pytest.mark.parametrize(
    "generator,output_dim,params,threshold",
    [
        ("gaussian-cluster-classification", 3, {"separation": 2.0}, 0.9),
        ("parity-slice-classification", 2, {"parity_dims": 2}, 0.9),
    ],
)
def test_classification_tasks_fittable(generator, output_dim, params, threshold):
    spec = spec_for(generator, output_dim=output_dim, params=params, noise=0.2)
    train_ds, test_ds = spec.make()
    model = ModelSpec(widths=(8, 32, 16, output_dim)).build(seed=1)
    config = TrainConfig(learning_rate=0.01, batch_size=32, epochs=30, seed=2)
    final, _ = train(model, train_ds, config)
    assert evaluate(model.with_params(final), test_ds) >= threshold


def test_regression_task_fittable():
    spec = spec_for("random-teacher-regression", output_dim=2, noise=0.0)
    train_ds, test_ds = spec.make()
    model = ModelSpec(
        widths=(8, 32, 16, 2), head="mean-squared-error"
    ).build(seed=1)
    config = TrainConfig(learning_rate=0.005, batch_size=32, epochs=40, seed=2)
    final, _ = train(model, train_ds, config)
    # teacher outputs have sub-unit scale; fit should explain most variance
    assert evaluate(model.with_params(final), test_ds) > -0.05
