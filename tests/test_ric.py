import math

import numpy as np
import pytest

import prbench as pb
from prbench.ric import C1, C2, C3, inc_bound, loc_radius
from prbench.solvers import Method, override_params

from conftest import make_problem


@pytest.fixture(scope="module")
def problem():
    return make_problem(16, 320, 4)


class TestRicConfig:
    def test_defaults(self):
        assert (C1, C2, C3) == (0.3, 5.0, 5.0)


class TestCheckLoc:
    def test_at_truth(self, problem):
        _, gt, _, _ = problem
        assert pb.check_loc(gt.x_star, gt)

    def test_outside_radius(self, problem):
        _, gt, _, _ = problem
        e1 = np.zeros(16)
        e1[0] = 1.0
        far = gt.x_star + 3.0 * C1 * gt.norm * e1
        assert not pb.check_loc(far, gt)

    def test_boundary_inclusive(self, problem):
        _, gt, _, _ = problem
        e1 = np.zeros(16)
        e1[0] = 1.0
        edge = gt.x_star + 2.0 * C1 * gt.norm * e1
        assert pb.check_loc(edge, gt)


class TestCheckInc:
    def test_at_truth(self, problem):
        ens, gt, _, _ = problem
        ok, value = pb.check_inc(gt.x_star, gt, ens)
        assert ok and value == 0.0

    def test_constructed_violation(self, problem):
        ens, gt, _, _ = problem
        a1 = ens.rows[0]
        delta = a1 / np.linalg.norm(a1) * C2 * math.sqrt(math.log(16)) * 2.0
        ok, value = pb.check_inc(gt.x_star + delta, gt, ens)
        assert not ok
        assert value > inc_bound(16, gt)

    def test_spectral_points_incoherent(self):
        # spectral starts at theory-scale sampling stay incoherent
        n = 64
        m = int(round(10 * n * math.log(n)))
        for seed in range(20):
            ens, gt, y, x0 = make_problem(n, m, seed)
            ok, _ = pb.check_inc(x0, gt, ens)
            assert ok

    def test_c08_starts_incoherent_but_not_local(self):
        # the five spectral starts of acceptance criterion 8 (n=100,
        # m = round(n ln n) = 461, seeds 0-4), with the ranges its docstring
        # and the README quote: incoherence 4.50-7.84 against 10.73, and
        # dist(x0, x*) 0.856-1.005 against the locality radius 0.6
        n = 100
        m = int(round(n * math.log(n)))
        incoherence, distance = [], []
        for seed in range(5):
            ens, gt, _, x0 = make_problem(n, m, seed)
            ok, value = pb.check_inc(x0, gt, ens)
            assert ok
            assert not pb.check_loc(x0, gt)
            incoherence.append(value)
            distance.append(pb.dist(x0, gt.x_star))
        assert m == 461
        assert (round(min(incoherence), 2), round(max(incoherence), 2)) == (4.50, 7.84)
        assert (round(min(distance), 3), round(max(distance), 3)) == (0.856, 1.005)

    def test_rejects_tiny_n(self):
        ens = pb.sample_ensemble(4, 1, seed=0)
        gt = pb.ground_truth([1.0])
        with pytest.raises(ValueError):
            pb.check_inc(np.array([2.0]), gt, ens)


class TestMomentumRegion:
    """Heavy ball at n=100, m = round(n ln n) = 461, with beta overridden:
    whether the iterates after t=0 stay incoherent."""

    @staticmethod
    def run_cell(seed, beta):
        n = 100
        m = int(round(n * math.log(n)))
        ens, gt, y, x0 = make_problem(n, m, seed)
        params = override_params(
            pb.default_params(n, float(np.linalg.norm(x0)), Method.POLYAK), None, beta,
            max_iters=20000,
        )
        trace = pb.run(ens, y, x0, params, gt=gt)
        return trace, float(trace.max_incoherence[1:].max()) / inc_bound(n, gt)

    def test_beta_half_stays_incoherent(self):
        steps, ratios = [], []
        for seed in range(5):
            trace, ratio = self.run_cell(seed, 0.5)
            assert trace.converged and trace.inc_ok[1:].all()
            steps.append(trace.n_steps)
            ratios.append(ratio)
        assert (min(steps), max(steps)) == (2803, 4539)
        assert round(max(ratios), 2) == 0.44

    def test_beta_point_nine_breaks_incoherence(self):
        trace, ratio = self.run_cell(1, 0.9)
        assert trace.converged and trace.n_steps == 446
        assert not trace.inc_ok[1:].all()
        assert round(ratio, 2) == 1.08


class TestContractionMatrices:
    def test_hb_identity_hessian_unit_norm(self):
        # upper-left block vanishes; the identity sub-block keeps norm 1
        L = 4.0
        mat = pb.contraction_matrix_hb(L * np.eye(3), eta=1.0 / L, beta=0.0)
        assert np.abs(mat[:3, :3]).max() == 0.0
        assert np.linalg.norm(mat, 2) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(np.linalg.eigvals(mat)).max() == pytest.approx(0.0, abs=1e-12)

    def test_hb_block_triangular_beta_zero(self):
        mu, L = 1.0, 100.0
        mat = pb.contraction_matrix_hb(np.diag([mu, L]), eta=1.0 / L, beta=0.0)
        eigs = np.sort(np.abs(np.linalg.eigvals(mat)))
        assert eigs[-1] == pytest.approx(1.0 - mu / L, abs=1e-12)
        assert np.abs(eigs[:-1]).max() <= 1e-12

    def test_hb_quadratic_rate(self):
        mu, L = 1.0, 100.0
        eta = 4.0 / (math.sqrt(mu) + math.sqrt(L)) ** 2
        beta = ((math.sqrt(L) - math.sqrt(mu)) / (math.sqrt(L) + math.sqrt(mu))) ** 2
        mat = pb.contraction_matrix_hb(np.diag([mu, L]), eta, beta)
        target = (math.sqrt(L) - math.sqrt(mu)) / (math.sqrt(L) + math.sqrt(mu))
        assert np.abs(np.linalg.eigvals(mat)).max() <= target + 1e-6

    def test_nag_quadratic_rate(self):
        mu, L = 1.0, 100.0
        kappa = L / mu
        beta = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
        mat = pb.contraction_matrix_nag(np.diag([mu, L]), 1.0 / L, beta)
        assert np.abs(np.linalg.eigvals(mat)).max() <= 1.0 - math.sqrt(mu / L) + 1e-6

    def test_nag_beta_zero_reduces_to_hb(self):
        hess = np.diag([0.5, 2.0])
        a = pb.contraction_matrix_nag(hess, eta=0.1, beta=0.0)
        b = pb.contraction_matrix_hb(hess, eta=0.1, beta=0.0)
        assert np.array_equal(a, b)

    def test_nag_vanishing_upper_blocks(self):
        eta = 0.25
        mat = pb.contraction_matrix_nag(np.eye(2) / eta, eta=eta, beta=0.4)
        assert np.abs(mat[:2, :]).max() == 0.0
        assert np.linalg.norm(mat, 2) == pytest.approx(1.0, abs=1e-12)


def test_loc_radius_and_inc_bound_scale_with_norm():
    gt2 = pb.ground_truth(2.0 * pb.sample_unit_sphere(8, 0))
    gt1 = pb.ground_truth(pb.sample_unit_sphere(8, 0))
    assert loc_radius(gt2) == pytest.approx(2.0 * loc_radius(gt1))
    assert inc_bound(8, gt2) == pytest.approx(2.0 * inc_bound(8, gt1))
