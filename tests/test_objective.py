import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prbench.model import SensingEnsemble, sample_ensemble, sample_unit_sphere

from conftest import make_problem
from reference import cost, gradient, hessian, hessian_extremes


def fd_gradient(ens, y, x, h):
    """Central-difference gradient of the cost; the independent oracle."""
    out = np.zeros(ens.n)
    for j in range(ens.n):
        e = np.zeros(ens.n)
        e[j] = h
        out[j] = (cost(ens, y, x + e) - cost(ens, y, x - e)) / (2 * h)
    return out


def fd_hessian(ens, y, x, h):
    out = np.zeros((ens.n, ens.n))
    for j in range(ens.n):
        e = np.zeros(ens.n)
        e[j] = h
        out[:, j] = (gradient(ens, y, x + e) - gradient(ens, y, x - e)) / (2 * h)
    return out


def single_term_problem():
    ens = SensingEnsemble(rows=np.array([[1.0]]), seed=0)
    return ens, np.array([1.0])


class TestCost:
    def test_zero_at_truth_both_signs(self, small_problem):
        ens, x_star, y, _ = small_problem
        assert cost(ens, y, x_star) == 0.0
        assert cost(ens, y, -x_star) == 0.0

    def test_single_term(self):
        ens, y = single_term_problem()
        assert cost(ens, y, [2.0]) == 2.25

    def test_nonnegative(self, small_problem):
        ens, _, y, x0 = small_problem
        assert cost(ens, y, x0) >= 0.0

    def test_dimension_mismatch(self, small_problem):
        ens, _, y, _ = small_problem
        with pytest.raises(ValueError):
            cost(ens, y, np.zeros(3))
        with pytest.raises(ValueError):
            cost(ens, y[:-1], np.zeros(ens.n))

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_even_symmetry(self, seed):
        ens, _, y, _ = make_problem(6, 18, 0)
        x = sample_unit_sphere(6, seed) * 1.7
        assert cost(ens, y, x) == cost(ens, y, -x)


class TestGradient:
    def test_zero_at_truth(self, small_problem):
        ens, x_star, y, _ = small_problem
        assert np.linalg.norm(gradient(ens, y, x_star)) == 0.0

    def test_single_term(self):
        ens, y = single_term_problem()
        assert gradient(ens, y, [2.0]) == pytest.approx([6.0])

    def test_finite_difference_ten_points(self):
        ens, _, y, _ = make_problem(20, 60, 5)
        for seed in range(10):
            x = sample_unit_sphere(20, 100 + seed) * (0.5 + 0.1 * seed)
            h = 1e-5 * (1 + np.linalg.norm(x))
            g = gradient(ens, y, x)
            fd = fd_gradient(ens, y, x, h)
            assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-6

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_odd_symmetry(self, seed):
        ens, _, y, _ = make_problem(6, 18, 0)
        x = sample_unit_sphere(6, seed) * 0.9
        assert np.array_equal(gradient(ens, y, -x), -gradient(ens, y, x))


class TestHessian:
    def test_single_term(self):
        ens, y = single_term_problem()
        assert hessian(ens, y, [2.0])[0, 0] == pytest.approx(11.0)

    def test_symmetric(self, small_problem):
        ens, _, y, x0 = small_problem
        h = hessian(ens, y, x0)
        assert np.abs(h - h.T).max() <= 1e-12

    def test_finite_difference(self, small_problem):
        ens, _, y, _ = small_problem
        x = sample_unit_sphere(ens.n, 42) * 1.1
        h = 1e-5 * (1 + np.linalg.norm(x))
        analytic = hessian(ens, y, x)
        fd = fd_hessian(ens, y, x, h)
        assert np.linalg.norm(analytic - fd) / np.linalg.norm(fd) < 1e-5

    def test_negative_semidefinite_at_origin(self, small_problem):
        # first term vanishes at x = 0, leaving -(1/m) sum y_i a_i a_i^T
        ens, _, y, _ = small_problem
        eigs = np.linalg.eigvalsh(hessian(ens, y, np.zeros(ens.n)))
        assert eigs.max() <= 1e-12

    def test_dense_limit(self):
        ens = sample_ensemble(4, 513, seed=0)
        for fn in (hessian, hessian_extremes):
            with pytest.raises(ValueError, match="n <= 512"):
                fn(ens, np.ones(4), np.zeros(513))


def test_extremes_match_dense(small_problem):
    ens, _, y, x0 = small_problem
    lmin, lmax = hessian_extremes(ens, y, x0)
    eigs = np.linalg.eigvalsh(hessian(ens, y, x0))
    assert lmin == pytest.approx(eigs[0], rel=1e-10)
    assert lmax == pytest.approx(eigs[-1], rel=1e-10)
