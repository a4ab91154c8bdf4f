"""The paper's conclusions, checked on the four default specs at their
default seeds: about 15 s in one process at one BLAS thread.

Each assertion follows the direction of a claim of the paper, not a value
of today's reports: LoTA on a later task forgets less of the earlier one,
utility plateaus as sparsity rises and then falls, the calibration data
matters, and sparse task vectors merge better than dense ones. Near-ties
are printed, not asserted. Each report is also pinned by the SHA-256 of
its `report.json` bytes in `golden.json`, so a change that keeps the
small golden specs but moves a default report shows here.
"""

import functools
import hashlib
import json
from pathlib import Path

import pytest

from lota import harness

GOLDEN = Path(__file__).with_name("golden.json")


@functools.cache
def report(kind):
    _, factory = harness.EXPERIMENT_KINDS[kind]
    return harness.run_experiment(factory())


def rows(kind, key):
    """The report rows of `kind` that have `key`, by their value of it."""
    return {row[key]: row for row in report(kind).rows if key in row}


class TestSequential:
    def test_dense_training_on_b_interferes_with_a(self):
        # run_experiment raises HarnessError below the threshold too
        spec = harness.default_sequential_spec()
        drop = rows("sequential", "pair")["fft->fft"]["drop_a_mean"]
        assert spec.require_interference and drop >= spec.interference_threshold

    def test_sparse_b_phases_forget_less_than_dense_ones(self):
        drops = {p: row["drop_a_mean"] for p, row in rows("sequential", "pair").items()}
        for sparse in ("fft->lota", "lota->lotto"):
            for dense in ("fft->fft", "lota->fft"):
                assert drops[sparse] < drops[dense], (sparse, dense)
        print(f"near-tie: fft->lota drop_a {drops['fft->lota']:.4f}, "
              f"lota->lotto {drops['lota->lotto']:.4f}")

    def test_mixing_in_task_a_forgets_least(self):
        drops = {p: row["drop_a_mean"] for p, row in rows("sequential", "pair").items()}
        assert min(drops, key=drops.get) == "fft->fft-mixed"


class TestSparsity:
    plateau = 0.005

    def utilities(self):
        return {label: row["utility_mean"]
                for label, row in rows("sparsity-ablation", "row").items()}

    def test_utility_plateaus_through_s_0_9(self):
        utility = self.utilities()
        for s in harness.default_sparsity_spec().grid:
            if s <= 0.9:
                assert abs(utility[f"s={s}"] - utility["s=0.0"]) <= self.plateau, s

    def test_s_0_99_falls_below_the_plateau(self):
        utility = self.utilities()
        assert utility["s=0.99"] < utility["s=0.0"] - self.plateau

    def test_iterative_beats_one_shot_at_s_0_99(self):
        utility = self.utilities()
        assert utility["iterative"] > utility["s=0.99"]


class TestCalibration:
    def test_drop_rises_as_the_fraction_shrinks(self):
        by_fraction = rows("calibration-ablation", "fraction")
        fractions = harness.default_calibration_spec().fractions
        assert list(fractions) == sorted(fractions, reverse=True)
        means = [by_fraction[f]["drop_mean"] for f in fractions]
        assert all(a < b for a, b in zip(means, means[1:])), means
        per_seed = zip(*(by_fraction[f]["per_seed_drop"] for f in fractions))
        for seed, drops in zip(report("calibration-ablation").seeds, per_seed):
            assert all(a < b for a, b in zip(drops, drops[1:])), (seed, drops)


class TestMerging:
    def test_pairs_with_a_lota_side_beat_fft_fft(self):
        average = {p: row["task_average_mean"]
                   for p, row in rows("merging", "pair").items()}
        for pair in ("lota+fft", "fft+lota", "lota+lota"):
            assert average[pair] > average["fft+fft"], pair
        print(f"near-tie: lota+lota task_average {average['lota+lota']:.4f}, "
              f"lota+fft {average['lota+fft']:.4f}")


@pytest.mark.parametrize("kind", sorted(harness.EXPERIMENT_KINDS))
def test_report_matches_its_golden_digest(kind):
    # the bytes that `lota experiment` writes to report.json
    text = report(kind).to_json() + "\n"
    expected = json.loads(GOLDEN.read_text())[f"default/{kind}/report.json"]
    assert hashlib.sha256(text.encode()).hexdigest() == expected
