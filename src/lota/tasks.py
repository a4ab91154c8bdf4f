"""Synthetic task generators for desk-scale experiments.

Three families:
  * gaussian-cluster-classification: labeled Gaussian blobs, optionally
    confined to a subspace of the input dims (the rest is background
    noise). Two tasks over disjoint subspaces interfere through the
    shared trunk, which is what the forgetting experiments need.
  * random-teacher-regression: targets from a frozen random MLP.
  * parity-slice-classification: sign-parity of a few +/-1 coordinates.

Train and test splits come from separate RNG streams, so they are
disjoint with probability one.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .config import (COUNT_MAX, DIM_MAX, OBJECT, SEED_MAX, STRING, check_fields,
                     check_keys, checked, choice, integer, real, seq)
from .errors import ConfigError
from .models import Dataset, ToyModel

# a noise, separation or background scale; the cap is far above any useful
# scale, and at it every generator's data stays far inside float32's range
SCALE = real("[0, 1e6]")

# each generator's params and their checks
GENERATORS = {
    "gaussian-cluster-classification": {
        "active_dims": seq(integer(0, DIM_MAX - 1), min_len=1),
        "separation": SCALE,
        "background": SCALE,
        "relabel_count": integer(0, DIM_MAX),
    },
    "random-teacher-regression": {"teacher_hidden": integer(1, DIM_MAX)},
    "parity-slice-classification": {"parity_dims": integer(1, DIM_MAX)},
}


@dataclass(frozen=True)
class SyntheticTaskSpec:
    generator: str = checked(choice(GENERATORS))
    input_dim: int = checked(integer(1, DIM_MAX))
    output_dim: int = checked(integer(1, DIM_MAX))
    train_size: int = checked(integer(1, COUNT_MAX))
    test_size: int = checked(integer(1, COUNT_MAX))
    noise: float = checked(SCALE)
    seed: int = checked(integer(0, SEED_MAX))
    task_id: str = checked(STRING, default="")
    params: dict = checked(OBJECT, default_factory=dict)

    def __post_init__(self):
        check_fields(self)
        params = self.params
        check_keys(params, GENERATORS[self.generator], "params")
        if max(params.get("active_dims", [0])) >= self.input_dim:
            raise ConfigError("active_dims out of range")
        relabel_count = params.get("relabel_count", 0)
        if relabel_count and not 2 <= relabel_count <= self.output_dim:
            raise ConfigError("relabel_count must be in [2, output_dim]")
        if params.get("parity_dims", 1) > self.input_dim:
            raise ConfigError("parity_dims out of range")
        if self.generator == "parity-slice-classification" and self.output_dim != 2:
            raise ConfigError("parity classification is binary; output_dim must be 2")

    def reseeded(self, seed: int) -> "SyntheticTaskSpec":
        return dataclasses.replace(self, seed=seed)

    def make(self) -> tuple[Dataset, Dataset]:
        """Build (train, test) datasets deterministically from the seed."""
        maker = {
            "gaussian-cluster-classification": _make_clusters,
            "random-teacher-regression": _make_teacher,
            "parity-slice-classification": _make_parity,
        }[self.generator]
        train = maker(self, split=0)
        test = maker(self, split=1)
        return train, test


def _make_clusters(spec: SyntheticTaskSpec, split: int) -> Dataset:
    structure = np.random.default_rng([spec.seed, 100])
    rng = np.random.default_rng([spec.seed, split])
    active = spec.params.get("active_dims")
    active = np.arange(spec.input_dim) if active is None else np.asarray(active)
    separation = float(spec.params.get("separation", 2.0))
    background = float(spec.params.get("background", 0.5))
    means = structure.standard_normal((spec.output_dim, active.size)) * separation
    # relabeling cycles the labels of a cluster subset; a spec with
    # relabel_count=0 and the same seed shares means and inputs, giving a
    # pretraining/adaptation pair that differs only in those labels
    relabel_count = int(spec.params.get("relabel_count", 0))
    label_map = np.arange(spec.output_dim)
    if relabel_count:
        moved = structure.choice(spec.output_dim, size=relabel_count, replace=False)
        label_map[moved] = np.roll(moved, 1)
    n = spec.train_size if split == 0 else spec.test_size
    clusters = rng.integers(0, spec.output_dim, size=n)
    inputs = background * rng.standard_normal((n, spec.input_dim))
    inputs[:, active] = means[clusters] + spec.noise * rng.standard_normal(
        (n, active.size)
    )
    return Dataset(inputs.astype(np.float32), label_map[clusters])


def _make_teacher(spec: SyntheticTaskSpec, split: int) -> Dataset:
    hidden = int(spec.params.get("teacher_hidden", 16))
    teacher = ToyModel.initialize(
        [spec.input_dim, hidden, spec.output_dim],
        "tanh",
        "mean-squared-error",
        seed=spec.seed + 100_003,
    )
    rng = np.random.default_rng([spec.seed, split])
    n = spec.train_size if split == 0 else spec.test_size
    inputs = rng.standard_normal((n, spec.input_dim)).astype(np.float32)
    targets = teacher.forward(inputs) + spec.noise * rng.standard_normal(
        (n, spec.output_dim)
    )
    return Dataset(inputs, targets.astype(np.float32))


def _make_parity(spec: SyntheticTaskSpec, split: int) -> Dataset:
    bits = int(spec.params.get("parity_dims", min(3, spec.input_dim)))
    rng = np.random.default_rng([spec.seed, split])
    n = spec.train_size if split == 0 else spec.test_size
    signs = rng.choice([-1.0, 1.0], size=(n, spec.input_dim))
    labels = (np.prod(signs[:, :bits], axis=1) > 0).astype(np.int64)
    inputs = signs + spec.noise * rng.standard_normal((n, spec.input_dim))
    return Dataset(inputs.astype(np.float32), labels)
