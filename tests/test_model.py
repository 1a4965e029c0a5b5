import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prbench as pb


class TestSampleEnsemble:
    def test_deterministic(self):
        a = pb.sample_ensemble(3, 2, seed=7)
        b = pb.sample_ensemble(3, 2, seed=7)
        assert np.array_equal(a.rows, b.rows)
        assert a.rows.shape == (3, 2)

    def test_moments_large_sample(self):
        ens = pb.sample_ensemble(10_000, 1, seed=1)
        assert abs(ens.rows.mean()) < 0.05
        assert abs(ens.rows.var() - 1.0) < 0.05

    def test_row_norm_concentration(self):
        ens = pb.sample_ensemble(1000, 100, seed=3)
        assert np.linalg.norm(ens.rows, axis=1).max() <= math.sqrt(6 * 100)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            pb.sample_ensemble(0, 5, seed=0)
        with pytest.raises(ValueError):
            pb.sample_ensemble(5, 0, seed=0)

    def test_rows_immutable(self):
        ens = pb.sample_ensemble(3, 2, seed=0)
        with pytest.raises(ValueError):
            ens.rows[0, 0] = 1.0


class TestObserve:
    def test_zero_signal(self):
        ens = pb.sample_ensemble(10, 4, seed=0)
        gt = pb.ground_truth(np.zeros(4))
        assert np.array_equal(pb.observe(ens, gt), np.zeros(10))

    def test_single_entry(self):
        ens = pb.SensingEnsemble(rows=np.array([[1.0]]), seed=0)
        gt = pb.ground_truth([2.0])
        assert pb.observe(ens, gt)[0] == 4.0

    def test_sign_invariance(self):
        ens = pb.sample_ensemble(20, 6, seed=2)
        gt = pb.random_ground_truth(6, 2)
        flipped = pb.ground_truth(-gt.x_star)
        assert np.array_equal(pb.observe(ens, gt), pb.observe(ens, flipped))

    def test_dimension_mismatch(self):
        ens = pb.sample_ensemble(5, 3, seed=0)
        with pytest.raises(ValueError):
            pb.observe(ens, pb.random_ground_truth(4, 0))

    def test_nonnegative(self):
        ens = pb.sample_ensemble(50, 8, seed=4)
        assert (pb.observe(ens, pb.random_ground_truth(8, 4)) >= 0).all()


class TestDist:
    def test_identity_and_sign(self):
        gt = pb.random_ground_truth(5, 0)
        assert pb.dist(gt.x_star, gt.x_star) == 0.0
        assert pb.dist(-gt.x_star, gt.x_star) == 0.0

    def test_double(self):
        gt = pb.random_ground_truth(5, 1)
        assert pb.dist(2 * gt.x_star, gt.x_star) == pytest.approx(gt.norm, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pb.dist([1.0, 2.0], [1.0])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_sign_symmetry(self, seed):
        x = pb.sample_unit_sphere(4, seed) * 2.0
        x_star = pb.sample_unit_sphere(4, seed + 1)
        assert pb.dist(x, x_star) == pb.dist(-x, x_star)


class TestUnitSphere:
    def test_unit_norm(self):
        for seed in range(5):
            assert np.linalg.norm(pb.sample_unit_sphere(7, seed)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_deterministic(self):
        assert np.array_equal(pb.sample_unit_sphere(2, 3), pb.sample_unit_sphere(2, 3))

    def test_distinct_seeds(self):
        assert not np.array_equal(
            pb.sample_unit_sphere(3, 0), pb.sample_unit_sphere(3, 1)
        )

    def test_isotropy(self):
        total = np.zeros(3)
        for seed in range(100_000):
            total += pb.sample_unit_sphere(3, seed)
        assert np.linalg.norm(total / 100_000) < 0.02

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            pb.sample_unit_sphere(0, 0)


class TestGroundTruth:
    def test_norm_consistency(self):
        gt = pb.random_ground_truth(6, 9)
        assert gt.norm == pytest.approx(1.0, abs=1e-12)


def test_concentration_over_twenty_seeds():
    # row-norm and fixed-probe projection bounds hold in 20/20 runs
    for seed in range(20):
        ens = pb.sample_ensemble(1000, 100, seed)
        probe = pb.sample_unit_sphere(100, seed)
        norms = np.linalg.norm(ens.rows, axis=1)
        assert norms.max() <= math.sqrt(6 * 100)
        assert np.abs(ens.rows @ probe).max() <= 5 * math.sqrt(math.log(100))
