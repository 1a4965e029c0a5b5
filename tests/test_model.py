import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prbench.model import (
    SensingEnsemble,
    observe,
    random_ground_truth,
    sample_ensemble,
    sample_unit_sphere,
)

from reference import dist


class TestSampleEnsemble:
    def test_deterministic(self):
        a = sample_ensemble(3, 2, seed=7)
        b = sample_ensemble(3, 2, seed=7)
        assert np.array_equal(a.rows, b.rows)
        assert a.rows.shape == (3, 2)

    def test_moments_large_sample(self):
        ens = sample_ensemble(10_000, 1, seed=1)
        assert abs(ens.rows.mean()) < 0.05
        assert abs(ens.rows.var() - 1.0) < 0.05

    def test_row_norm_concentration(self):
        ens = sample_ensemble(1000, 100, seed=3)
        assert np.linalg.norm(ens.rows, axis=1).max() <= math.sqrt(6 * 100)

    def test_rows_immutable(self):
        ens = sample_ensemble(3, 2, seed=0)
        with pytest.raises(ValueError):
            ens.rows[0, 0] = 1.0


class TestObserve:
    def test_zero_signal(self):
        ens = sample_ensemble(10, 4, seed=0)
        assert np.array_equal(observe(ens, np.zeros(4)), np.zeros(10))

    def test_single_entry(self):
        ens = SensingEnsemble(rows=np.array([[1.0]]), seed=0)
        assert observe(ens, np.array([2.0]))[0] == 4.0

    def test_sign_invariance(self):
        ens = sample_ensemble(20, 6, seed=2)
        x_star = random_ground_truth(6, 2)
        assert np.array_equal(observe(ens, x_star), observe(ens, -x_star))

    def test_dimension_mismatch(self):
        ens = sample_ensemble(5, 3, seed=0)
        with pytest.raises(ValueError):
            observe(ens, random_ground_truth(4, 0))

    def test_nonnegative(self):
        ens = sample_ensemble(50, 8, seed=4)
        assert (observe(ens, random_ground_truth(8, 4)) >= 0).all()


class TestDist:
    def test_identity_and_sign(self):
        x_star = random_ground_truth(5, 0)
        assert dist(x_star, x_star) == 0.0
        assert dist(-x_star, x_star) == 0.0

    def test_double(self):
        x_star = random_ground_truth(5, 1)
        assert dist(2 * x_star, x_star) == pytest.approx(np.linalg.norm(x_star), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dist([1.0, 2.0], [1.0])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_sign_symmetry(self, seed):
        x = sample_unit_sphere(4, seed) * 2.0
        x_star = sample_unit_sphere(4, seed + 1)
        assert dist(x, x_star) == dist(-x, x_star)


class TestUnitSphere:
    def test_unit_norm(self):
        for seed in range(5):
            assert np.linalg.norm(sample_unit_sphere(7, seed)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_deterministic(self):
        assert np.array_equal(sample_unit_sphere(2, 3), sample_unit_sphere(2, 3))

    def test_distinct_seeds(self):
        assert not np.array_equal(
            sample_unit_sphere(3, 0), sample_unit_sphere(3, 1)
        )

    def test_isotropy(self):
        total = np.zeros(3)
        for seed in range(100_000):
            total += sample_unit_sphere(3, seed)
        assert np.linalg.norm(total / 100_000) < 0.02


class TestGroundTruth:
    def test_norm_consistency(self):
        x_star = random_ground_truth(6, 9)
        assert np.linalg.norm(x_star) == pytest.approx(1.0, abs=1e-12)

