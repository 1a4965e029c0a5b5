import math

import numpy as np
import pytest

from prbench.model import SensingEnsemble
from prbench.solvers import (
    Method,
    SolverParams,
    Status,
    default_params,
    momentum_step,
    override_params,
    run,
    theory_params,
)

from conftest import make_problem
from reference import cost, gradient


def scalar_recursion(method, mu, L, eta, beta, steps):
    """Independent oracle: the momentum recursions on a diagonal quadratic,
    tracked with per-step pair renormalization."""
    x_prev = np.array([1.0, 1.0])
    x_curr = np.array([1.0, 1.0])
    scales = np.array([mu, L])
    ratios = []
    norm = math.hypot(np.linalg.norm(x_curr), np.linalg.norm(x_prev))
    for _ in range(steps):
        if method is Method.GD:
            x_new = x_curr - eta * scales * x_curr
        elif method is Method.POLYAK:
            x_new = x_curr - eta * scales * x_curr + beta * (x_curr - x_prev)
        else:
            z = x_curr + beta * (x_curr - x_prev)
            x_new = x_curr - eta * scales * z + beta * (x_curr - x_prev)
        new_norm = math.hypot(np.linalg.norm(x_new), np.linalg.norm(x_curr))
        ratios.append(new_norm / norm)
        x_prev, x_curr = x_curr / new_norm, x_new / new_norm
        norm = 1.0
    return ratios


def tiny_problem():
    ens = SensingEnsemble(rows=np.array([[1.0]]), seed=0)
    return ens, np.array([1.0]), np.array([1.0])


def grad_of(ens, y):
    return lambda x: gradient(ens, y, x)


class TestSteps:
    """The single update `momentum_step`, on its own and as `run` takes it."""

    def test_gd_single_coordinate(self):
        # gradient at x=2 is 6, so x moves to 2 - 0.1 * 6 = 1.4
        ens, y, x_star = tiny_problem()
        params = SolverParams(method=Method.GD, eta=0.1, max_iters=1)
        trace = run(ens, y, np.array([2.0]), params, x_star)
        x1 = 2.0 - 0.1 * 6.0
        assert trace.dist[0] == 1.0
        assert trace.dist[1] == abs(x1 - 1.0)
        assert trace.cost[1] == (x1 * x1 - 1.0) ** 2 / 4.0

    def test_stationary_point(self, small_problem):
        ens, x_star, y, _ = small_problem
        out = momentum_step(Method.GD, x_star, x_star, grad_of(ens, y), 0.1, 0.0)
        assert np.array_equal(out, x_star)

    def test_polyak_beta_zero_is_gd(self, small_problem):
        ens, _, y, x0 = small_problem
        grad_fn = grad_of(ens, y)
        gd = momentum_step(Method.GD, x0, 0.9 * x0, grad_fn, 0.02, 0.0)
        hb = momentum_step(Method.POLYAK, x0, 0.9 * x0, grad_fn, 0.02, 0.0)
        assert np.array_equal(gd, hb)

    def test_momentum_direction(self, small_problem):
        ens, _, y, x0 = small_problem
        grad_fn = grad_of(ens, y)
        gd = momentum_step(Method.GD, x0, 0.9 * x0, grad_fn, 0.02, 0.0)
        hb = momentum_step(Method.POLYAK, x0, 0.9 * x0, grad_fn, 0.02, 0.5)
        assert np.allclose(hb - gd, 0.5 * (x0 - 0.9 * x0))

    def test_nesterov_beta_zero_is_gd(self, small_problem):
        ens, _, y, x0 = small_problem
        grad_fn = grad_of(ens, y)
        gd = momentum_step(Method.GD, x0, 0.9 * x0, grad_fn, 0.02, 0.0)
        nag = momentum_step(Method.NESTEROV, x0, 0.9 * x0, grad_fn, 0.02, 0.0)
        assert np.array_equal(gd, nag)


class TestScalarRecursionRates:
    """The momentum update formulas achieve the classical quadratic rates."""

    def test_polyak_rate(self):
        mu, L = 1.0, 100.0
        eta = 4.0 / (math.sqrt(mu) + math.sqrt(L)) ** 2
        beta = ((math.sqrt(L) - math.sqrt(mu)) / (math.sqrt(L) + math.sqrt(mu))) ** 2
        ratios = scalar_recursion(Method.POLYAK, mu, L, eta, beta, 10_000)
        tail = np.asarray(ratios[5000:])
        geo = math.exp(np.log(tail).mean())
        assert geo <= 9.0 / 11.0 + 0.02

    def test_nesterov_rate(self):
        mu, L = 1.0, 100.0
        kappa = L / mu
        beta = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
        ratios = scalar_recursion(Method.NESTEROV, mu, L, 1.0 / L, beta, 10_000)
        tail = np.asarray(ratios[5000:])
        geo = math.exp(np.log(tail).mean())
        assert geo <= 1.0 - math.sqrt(mu) / math.sqrt(L) + 0.02

    def test_momentum_step_matches_recursion(self):
        # the shared stepper on a linear gradient reproduces the oracle
        mu, L, eta, beta = 1.0, 100.0, 0.01, 0.5
        scales = np.array([mu, L])
        grad_fn = lambda x: scales * x
        x_curr = np.array([1.0, 1.0])
        moved = np.array([0.9, 0.8])
        hb = momentum_step(Method.POLYAK, x_curr, moved, grad_fn, eta, beta)
        assert np.array_equal(
            hb, x_curr - eta * scales * x_curr + beta * (x_curr - moved)
        )
        nag = momentum_step(Method.NESTEROV, x_curr, moved, grad_fn, eta, beta)
        z = x_curr + beta * (x_curr - moved)
        assert np.array_equal(nag, x_curr - eta * scales * z + beta * (x_curr - moved))


class TestDefaultParams:
    def test_values_at_n_100(self):
        params = default_params(100, 1.0, Method.POLYAK)
        assert params.eta == pytest.approx(0.05 / math.log(100), rel=1e-12)
        expected_beta = (math.sqrt(math.log(100)) - math.sqrt(2.0)) / (
            math.sqrt(math.log(100)) + math.sqrt(2.0)
        )
        assert params.beta == pytest.approx(expected_beta, rel=1e-12)
        assert params.beta == pytest.approx(0.20553807629439591, rel=1e-12)

    def test_gd_beta_zero(self):
        params = default_params(100, 1.0, Method.GD)
        assert params.beta == 0.0
        assert params.eta == pytest.approx(0.05 / math.log(100), rel=1e-12)

    def test_norm_scaling(self):
        unit = default_params(64, 1.0, Method.GD)
        doubled = default_params(64, 2.0, Method.GD)
        assert doubled.eta == pytest.approx(unit.eta / 4.0, rel=1e-12)

    def test_rejects_n_below_two(self):
        with pytest.raises(ValueError):
            default_params(1, 1.0, Method.GD)

    def test_momentum_clamped_for_tiny_n(self):
        # log n < 2 would make the formula negative
        params = default_params(4, 1.0, Method.POLYAK)
        assert params.beta == 0.0

    def test_theory_momentum_larger(self):
        exp = default_params(64, 1.0, Method.POLYAK)
        thy = theory_params(64, 1.0, Method.POLYAK)
        assert thy.beta > exp.beta
        assert thy.eta == exp.eta

    def test_override_rule(self):
        base = default_params(64, 1.0, Method.POLYAK)
        assert override_params(base, None, None) == base
        both = override_params(base, 0.01, 0.3, max_iters=7)
        assert (both.eta, both.beta, both.max_iters) == (0.01, 0.3, 7)
        # gradient descent keeps beta = 0 under a beta override
        gd = override_params(default_params(64, 1.0, Method.GD), 0.01, 0.3)
        assert (gd.eta, gd.beta) == (0.01, 0.0)


class TestSolverParamsValidation:
    def test_gd_requires_zero_beta(self):
        with pytest.raises(ValueError):
            SolverParams(method=Method.GD, eta=0.1, beta=0.5)

    def test_beta_range(self):
        with pytest.raises(ValueError):
            SolverParams(method=Method.POLYAK, eta=0.1, beta=1.0)

    def test_eta_positive(self):
        with pytest.raises(ValueError):
            SolverParams(method=Method.GD, eta=0.0)


class TestRun:
    def test_converges_immediately_at_truth(self, small_problem):
        ens, x_star, y, _ = small_problem
        params = SolverParams(method=Method.GD, eta=0.01)
        trace = run(ens, y, x_star, params, x_star)
        assert trace.status is Status.CONVERGED
        assert trace.n_steps == 0

    def test_golden_trace_gd_seed0(self):
        # frozen once from the recorded run at n=10, m=200, spectral init
        ens, x_star, y, x0 = make_problem(10, 200, 0)
        params = default_params(10, float(np.linalg.norm(x0)), Method.GD)
        trace = run(ens, y, x0, params, x_star)
        assert trace.status is Status.CONVERGED
        assert trace.n_steps == 577
        golden = {
            0: 0.40793605654951948,
            1: 0.3934473762049765,
            2: 0.38072597187997942,
            577: 9.8247408386107691e-08,
        }
        for t, value in golden.items():
            assert trace.dist[t] == pytest.approx(value, rel=1e-9)
        tail = trace.dist[-50:] / trace.dist[-51:-1]
        assert (tail < 1.0).all()

    def test_polyak_fewer_iterations_than_gd(self):
        ens, x_star, y, x0 = make_problem(10, 200, 0)
        norm0 = float(np.linalg.norm(x0))
        runs = {}
        for method in (Method.GD, Method.POLYAK):
            params = default_params(10, norm0, method)
            runs[method] = run(ens, y, x0, params, x_star)
        assert runs[Method.POLYAK].converged and runs[Method.GD].converged
        assert runs[Method.POLYAK].n_steps < runs[Method.GD].n_steps

    def test_mirrored_start_same_columns(self):
        ens, x_star, y, x0 = make_problem(12, 240, 3)
        params = default_params(12, float(np.linalg.norm(x0)), Method.POLYAK)
        plus = run(ens, y, x0, params, x_star)
        minus = run(ens, y, -x0, params, x_star)
        assert minus.sign == -plus.sign
        assert np.array_equal(plus.dist, minus.dist)
        assert np.array_equal(plus.cost, minus.cost)
        assert plus.status is minus.status

    def test_converges_to_the_other_sign(self):
        # the start sets the sign to +1 and the first step overshoots past
        # 0, so the run converges to -x_star: the stopping rule still sees
        # it at the first step within tol, where dist reads about 2
        ens, y, x_star = tiny_problem()
        eta, tol = 0.45, 1e-7
        x, steps = 2.0, 0
        while abs(x + 1.0) > tol:
            x, steps = x - eta * ((x * x - 1.0) * x), steps + 1
        trace = run(ens, y, np.array([2.0]), SolverParams(Method.GD, eta, tol=tol), x_star)
        assert trace.sign == 1.0 and trace.converged
        assert trace.n_steps == steps and trace.dist[-1] == pytest.approx(2.0)

    def test_divergence_status_not_exception(self):
        ens, x_star, y, x0 = make_problem(8, 160, 1)
        params = SolverParams(method=Method.GD, eta=50.0, max_iters=200)
        trace = run(ens, y, x0, params, x_star)
        assert trace.status is Status.DIVERGED

    def test_overflowing_step_diverges(self):
        # the first step overflows to -inf; the run stops after one row
        ens, y, x_star = tiny_problem()
        params = SolverParams(method=Method.GD, eta=1e308)
        trace = run(ens, y, np.array([2.0]), params, x_star)
        assert trace.status is Status.DIVERGED
        assert trace.iters.shape[0] == 1

    def test_overflowing_norm_of_finite_step_diverges(self):
        # the first step's entries are finite near 1e301, so it is recorded
        # (inf dist, finite incoherence) although x_new @ x_new overflows;
        # the run then stops on that iterate's infinite cost
        ens, x_star, y, x0 = make_problem(10, 60, 0)
        trace = run(ens, y, x0, SolverParams(method=Method.GD, eta=1e300), x_star)
        assert trace.status is Status.DIVERGED
        assert trace.iters.shape[0] == 2
        assert trace.dist[1] == math.inf
        assert math.isfinite(trace.max_incoherence[1])

    def test_max_iters_status(self):
        ens, x_star, y, x0 = make_problem(8, 160, 1)
        params = SolverParams(method=Method.GD, eta=1e-6, max_iters=5)
        trace = run(ens, y, x0, params, x_star)
        assert trace.status is Status.MAX_ITERS
        assert trace.iters.shape[0] == 6

    def test_cold_start_first_step_matches_gd_step(self, small_problem):
        ens, x_star, y, x0 = small_problem
        eta = 0.01
        expected = momentum_step(Method.GD, x0, x0, grad_of(ens, y), eta, 0.0)
        for method, beta in ((Method.GD, 0.0), (Method.POLYAK, 0.6), (Method.NESTEROV, 0.6)):
            params = SolverParams(method=method, eta=eta, beta=beta, max_iters=1)
            trace = run(ens, y, x0, params, x_star)
            assert trace.dist[1] == np.linalg.norm(expected - trace.sign * x_star)
            assert trace.cost[1] == cost(ens, y, expected)

    def test_paired_norm_and_ratio_columns(self):
        ens, x_star, y, x0 = make_problem(10, 200, 0)
        params = default_params(10, float(np.linalg.norm(x0)), Method.POLYAK)
        trace = run(ens, y, x0, params, x_star)
        assert trace.paired_norm[0] == pytest.approx(math.sqrt(2) * trace.dist[0])
        assert math.isnan(trace.contraction_ratio[0])
        assert trace.contraction_ratio[5] == pytest.approx(
            trace.paired_norm[5] / trace.paired_norm[4]
        )
        assert trace.paired_norm[7] == pytest.approx(
            math.hypot(trace.dist[7], trace.dist[6])
        )


class TestRateChecks:
    """Contraction-rate spot checks at n=64 (three seeds; the acceptance
    suite runs ten)."""

    def setup_method(self):
        self.n = 64
        self.m = int(round(10 * self.n * math.log(self.n)))
        self.eta = 0.05 / math.log(self.n)

    def _trace(self, seed, method):
        ens, x_star, y, x0 = make_problem(self.n, self.m, seed)
        params = default_params(self.n, float(np.linalg.norm(x0)), method)
        trace = run(ens, y, x0, params, x_star)
        assert trace.converged
        return trace

    def test_gd_rate(self):
        bound = 1.0 - self.eta / 2.0 + 0.05
        for seed in range(3):
            trace = self._trace(seed, Method.GD)
            tail = trace.dist[-50:] / trace.dist[-51:-1]
            assert tail.max() <= bound

    def test_momentum_paired_rate(self):
        bound = 1.0 - math.sqrt(self.eta) / 2.0 + 0.05
        for seed in range(3):
            for method in (Method.POLYAK, Method.NESTEROV):
                trace = self._trace(seed, method)
                assert np.nanmax(trace.contraction_ratio[-50:]) <= bound

    def test_incoherence_along_path(self):
        bound = 5.0 * math.sqrt(math.log(self.n))
        for seed in range(3):
            trace = self._trace(seed, Method.POLYAK)
            assert trace.max_incoherence.max() <= bound
            assert trace.inc_ok.all()
