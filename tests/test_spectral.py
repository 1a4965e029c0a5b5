import math

import numpy as np
import pytest

from prbench import rng
from prbench.model import random_ground_truth, sample_ensemble
from prbench.spectral import _POWER_STREAM, leading_eigenpair, random_init, spectral_init

from conftest import make_problem
from reference import dist


def population_matvec(x_star):
    """Exact expectation of the weighted covariance: |x|^2 I + 2 x x^T."""
    norm_sq = float(x_star @ x_star)
    return lambda v: norm_sq * v + 2.0 * x_star * (x_star @ v)


class TestLeadingEigenpair:
    def test_population_operator(self):
        x_star = random_ground_truth(5, 3)
        v0 = rng.normals(3, _POWER_STREAM, 5)
        res = leading_eigenpair(population_matvec(x_star), v0, tol=1e-10)
        assert res.lambda1 == pytest.approx(3.0, abs=1e-9)
        x0 = math.sqrt(res.lambda1 / 3.0) * res.x0
        assert dist(x0, x_star) <= 1e-8

    def test_nonconvergence_carries_residual(self):
        # two-cycle operator never settles
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match=r"last residual [1-9]"):
            leading_eigenpair(lambda v: flip @ v, np.array([1.0, 0.5]),
                              tol=1e-14, max_iters=8)


class TestSpectralInit:
    def test_report_invariants(self):
        ens, _, y, _ = make_problem(40, 800, 1)
        rep = spectral_init(ens, y)
        assert np.linalg.norm(rep.x0) == pytest.approx(
            math.sqrt(rep.lambda1 / 3.0), rel=1e-10
        )
        assert rep.residual <= 1e-10 * max(rep.lambda1, 1.0)

    def test_close_to_truth_twenty_seeds(self):
        # Monte-Carlo oracle at n=50, m=5000: worst observed distance over
        # seeds 0..19 is 0.2514; frozen bound adds headroom
        worst = 0.0
        for seed in range(20):
            ens, x_star, y, _ = make_problem(50, 5000, seed)
            rep = spectral_init(ens, y)
            worst = max(worst, dist(rep.x0, x_star))
        assert worst <= 0.3

    def test_scaling_homogeneity(self):
        ens, _, y, _ = make_problem(25, 500, 6)
        base = spectral_init(ens, y)
        scaled = spectral_init(ens, 2.5 * y)
        assert scaled.lambda1 == pytest.approx(2.5 * base.lambda1, rel=1e-9)
        assert np.allclose(scaled.x0, math.sqrt(2.5) * base.x0, rtol=1e-9)

    def test_sign_canonical_and_deterministic(self):
        ens, _, y, _ = make_problem(12, 300, 8)
        a = spectral_init(ens, y)
        b = spectral_init(ens, y)
        assert np.array_equal(a.x0, b.x0)
        nz = np.flatnonzero(a.x0)
        assert a.x0[nz[0]] > 0

    def test_degenerate_spectrum(self):
        ens = sample_ensemble(5, 3, seed=0)
        with pytest.raises(ValueError, match="annihilated"):
            spectral_init(ens, np.zeros(5))


class TestRandomInit:
    def test_deterministic(self):
        x = random_init(5, 2)
        assert np.array_equal(x, random_init(5, 2))
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)

    def test_distinct_seeds(self):
        assert not np.array_equal(random_init(5, 2), random_init(5, 3))

    def test_independent_of_ground_truth_stream(self):
        x_star = random_ground_truth(16, 4)
        assert dist(random_init(16, 4), x_star) > 0.1
