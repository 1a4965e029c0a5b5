import math

import numpy as np
import pytest

import prbench as pb
from prbench import rng
from prbench.spectral import _POWER_STREAM, leading_eigenpair

from conftest import make_problem


def population_matvec(x_star):
    """Exact expectation of the weighted covariance: |x|^2 I + 2 x x^T."""
    norm_sq = float(x_star @ x_star)
    return lambda v: norm_sq * v + 2.0 * x_star * (x_star @ v)


class TestLeadingEigenpair:
    def test_population_operator(self):
        gt = pb.random_ground_truth(5, 3)
        v0 = rng.normals(3, _POWER_STREAM, 5)
        res = leading_eigenpair(population_matvec(gt.x_star), v0, tol=1e-10)
        assert res.lambda1 == pytest.approx(3.0, abs=1e-9)
        x0 = math.sqrt(res.lambda1 / 3.0) * res.x0
        assert pb.dist(x0, gt.x_star) <= 1e-8

    def test_nonconvergence_carries_residual(self):
        # two-cycle operator never settles
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match=r"last residual [1-9]"):
            leading_eigenpair(lambda v: flip @ v, np.array([1.0, 0.5]),
                              tol=1e-14, max_iters=8)

    def test_rejects_zero_start(self):
        with pytest.raises(ValueError):
            leading_eigenpair(lambda v: v, np.zeros(3))


class TestSpectralInit:
    def test_report_invariants(self):
        ens, _, y, _ = make_problem(40, 800, 1)
        rep = pb.spectral_init(ens, y)
        assert np.linalg.norm(rep.x0) == pytest.approx(
            math.sqrt(rep.lambda1 / 3.0), rel=1e-10
        )
        assert rep.residual <= 1e-10 * max(rep.lambda1, 1.0)

    def test_close_to_truth_twenty_seeds(self):
        # Monte-Carlo oracle at n=50, m=5000: worst observed distance over
        # seeds 0..19 is 0.2514; frozen bound adds headroom
        worst = 0.0
        for seed in range(20):
            ens, gt, y, _ = make_problem(50, 5000, seed)
            rep = pb.spectral_init(ens, y)
            worst = max(worst, pb.dist(rep.x0, gt.x_star))
        assert worst <= 0.3

    def test_scaling_homogeneity(self):
        ens, _, y, _ = make_problem(25, 500, 6)
        base = pb.spectral_init(ens, y)
        scaled = pb.spectral_init(ens, 2.5 * y)
        assert scaled.lambda1 == pytest.approx(2.5 * base.lambda1, rel=1e-9)
        assert np.allclose(scaled.x0, math.sqrt(2.5) * base.x0, rtol=1e-9)

    def test_sign_canonical_and_deterministic(self):
        ens, _, y, _ = make_problem(12, 300, 8)
        a = pb.spectral_init(ens, y)
        b = pb.spectral_init(ens, y)
        assert np.array_equal(a.x0, b.x0)
        nz = np.flatnonzero(a.x0)
        assert a.x0[nz[0]] > 0

    def test_degenerate_spectrum(self):
        ens = pb.sample_ensemble(5, 3, seed=0)
        with pytest.raises(ValueError, match="annihilated"):
            pb.spectral_init(ens, np.zeros(5))


class TestRandomInit:
    def test_deterministic(self):
        x = pb.random_init(5, 2)
        assert np.array_equal(x, pb.random_init(5, 2))
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)

    def test_distinct_seeds(self):
        assert not np.array_equal(pb.random_init(5, 2), pb.random_init(5, 3))

    def test_independent_of_ground_truth_stream(self):
        gt = pb.random_ground_truth(16, 4)
        assert pb.dist(pb.random_init(16, 4), gt.x_star) > 0.1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            pb.random_init(0, 1)
