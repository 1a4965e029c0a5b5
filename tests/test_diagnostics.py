import dataclasses
import math

import numpy as np
import pytest

from prbench.diagnostics import (
    _iterates,
    concentration_report,
    loo_run,
    loo_sequence,
    quadratic_oracle,
    quadratic_parameters,
)
from prbench.model import (
    SensingEnsemble,
    observe,
    random_ground_truth,
    sample_ensemble,
    sample_unit_sphere,
)
from prbench.ric import loo_threshold
from prbench.solvers import (
    INC_BLOCK_VALUES,
    Method,
    SolverParams,
    Status,
    default_params,
    run,
)

from conftest import make_problem
from reference import contraction_matrix_hb, cost, hessian


# projections per incoherence block in `run` at m=200
_BLOCK = INC_BLOCK_VALUES // 200


def capped_defaults(n, norm_x0, method, max_iters=200):
    params = default_params(n, norm_x0, method)
    return dataclasses.replace(params, max_iters=max_iters)


class TestQuadraticOracle:
    def test_gd_rate(self):
        ratio = quadratic_oracle(Method.GD)
        assert ratio == pytest.approx(0.99, abs=0.005)

    def test_hb_rate(self):
        ratio = quadratic_oracle(Method.POLYAK)
        assert ratio <= 9.0 / 11.0 + 0.02

    def test_nesterov_rate(self):
        ratio = quadratic_oracle(Method.NESTEROV)
        assert ratio <= 0.9 + 0.02

    def test_momentum_beats_gd(self):
        gd = quadratic_oracle(Method.GD)
        assert quadratic_oracle(Method.POLYAK) < gd
        assert quadratic_oracle(Method.NESTEROV) < gd

    def test_parameters(self):
        mu, L = 1.0, 100.0
        eta, beta = quadratic_parameters(Method.GD)
        assert (eta, beta) == (1.0 / L, 0.0)
        eta, beta = quadratic_parameters(Method.POLYAK)
        assert eta == pytest.approx(4.0 / (math.sqrt(mu) + math.sqrt(L)) ** 2)
        assert beta == pytest.approx((9.0 / 11.0) ** 2)
        eta, beta = quadratic_parameters(Method.NESTEROV)
        assert (eta, beta) == (1.0 / L, pytest.approx(9.0 / 11.0))


class TestConcentrationReport:
    def test_twenty_seeds_pass(self):
        for seed in range(20):
            ens = sample_ensemble(1000, 100, seed)
            rep = concentration_report(ens, sample_unit_sphere(100, seed))
            assert rep.row_norm_ok and rep.projection_ok

    def test_zero_probe(self):
        ens = sample_ensemble(10, 8, seed=0)
        rep = concentration_report(ens, np.zeros(8))
        assert rep.projection_ok and rep.max_projection == 0.0

    def test_rejects_small_n(self):
        ens = sample_ensemble(10, 2, seed=0)
        with pytest.raises(ValueError):
            concentration_report(ens, np.zeros(2))

    def test_bounds_values(self):
        ens = sample_ensemble(50, 9, seed=1)
        rep = concentration_report(ens, sample_unit_sphere(9, 2))
        assert rep.row_norm_bound == pytest.approx(math.sqrt(54))
        assert rep.projection_bound == pytest.approx(5 * math.sqrt(math.log(9)))


class TestLooRun:
    def setup_method(self):
        self.n, self.m, self.seed = 24, 48, 3
        self.ens, self.gt, self.y, self.x0 = make_problem(self.n, self.m, self.seed)
        self.params = capped_defaults(
            self.n, float(np.linalg.norm(self.x0)), Method.POLYAK, max_iters=80
        )

    def test_zero_proximity_at_start(self):
        bundle = loo_run(self.ens, self.y, self.x0, self.params, self.gt)
        assert bundle.proximity[0] == 0.0
        assert np.array_equal(bundle.dist_main[:, 0], np.zeros(self.m))

    @pytest.mark.parametrize("m", [1, 3])
    def test_zero_steps(self, m):
        # max_iters=0 takes no step: proximity is the one start entry
        ens, gt, y, x0 = make_problem(8, m, 0, init="random")
        params = SolverParams(Method.POLYAK, eta=0.1, beta=0.5, max_iters=0)
        bundle = loo_run(ens, y, x0, params, gt)
        assert np.array_equal(bundle.proximity, [0.0])
        assert bundle.dist_main.shape == (m, 1)

    def test_single_measurement_sequence_frozen(self):
        # removing the only row leaves the zero cost; GD never moves
        ens = sample_ensemble(1, 4, seed=0)
        gt = random_ground_truth(4, 0)
        y = observe(ens, gt)
        x0 = np.array([1.0, -2.0, 0.5, 0.25])
        params = SolverParams(method=Method.GD, eta=0.1, max_iters=10)
        seq = loo_sequence(ens, y, x0, params, 0, 10)
        assert np.array_equal(seq, np.tile(x0, (11, 1)))

    def test_nan_poisoning_leaves_own_sequence_unchanged(self):
        steps = 40
        clean = loo_sequence(self.ens, self.y, self.x0, self.params, 5, steps)
        rows = self.ens.rows.copy()
        rows[5] = np.nan
        poisoned = SensingEnsemble(rows=rows, seed=self.seed)
        again = loo_sequence(poisoned, self.y, self.x0, self.params, 5, steps)
        assert np.array_equal(clean, again)
        # any other sequence does read row 5 and is destroyed by the poison
        other = loo_sequence(poisoned, self.y, self.x0, self.params, 6, 3)
        assert np.isnan(other[-1]).all()

    def test_proximity_matches_sequences(self):
        bundle = loo_run(self.ens, self.y, self.x0, self.params, self.gt)
        steps = run(self.ens, self.y, self.x0, self.params, gt=self.gt).n_steps
        main = _iterates(self.ens.rows, self.y, self.x0, self.params, steps, self.m)
        by_hand = np.array([
            np.linalg.norm(
                main - loo_sequence(self.ens, self.y, self.x0, self.params, ell, steps),
                axis=1,
            )
            for ell in range(self.m)
        ])
        assert np.array_equal(bundle.dist_main, by_hand)
        pairs = np.hypot(by_hand[:, 1:], by_hand[:, :-1]).max(axis=0)
        assert np.array_equal(bundle.proximity, np.concatenate([[0.0], pairs]))

    @pytest.mark.parametrize("method, n, m, seed, rows", [
        *(pytest.param(method, 24, 48, 3, None, id=method.value) for method in Method),
        # non-converging runs whose traces end one row short of, at, and one
        # row past a full incoherence block, and one past two blocks, so both
        # the block and the remainder reductions run
        pytest.param(Method.GD, 10, 200, 0, _BLOCK - 1, id="gd-block-1"),
        pytest.param(Method.POLYAK, 10, 200, 0, _BLOCK, id="polyak-block"),
        pytest.param(Method.NESTEROV, 10, 200, 0, _BLOCK + 1, id="nesterov-block+1"),
        pytest.param(Method.POLYAK, 10, 200, 0, 2 * _BLOCK + 1, id="polyak-2block+1"),
    ])
    def test_fixed_step_loop_is_runs_iteration(self, method, n, m, seed, rows):
        # loo_run rebuilds the main iterates with _iterates, so its iterates
        # must give every column of run's bit for bit, each recomputed here
        # with `@` and np.linalg.norm
        ens, gt, y, x0 = make_problem(n, m, seed)
        beta = 0.0 if method is Method.GD else 0.5
        eta = default_params(n, float(np.linalg.norm(x0)), method).eta
        if rows is None:
            params = SolverParams(method, eta=eta, beta=beta, max_iters=80)
        else:
            params = SolverParams(method, eta=eta, beta=beta, max_iters=rows - 1, tol=1e-300)
        trace = run(ens, y, x0, params, gt=gt)
        if rows is not None:
            assert trace.status is Status.MAX_ITERS and len(trace.iters) == rows
        xs = _iterates(ens.rows, y, x0, params, trace.n_steps, m)
        target = trace.sign * gt.x_star
        projs = [ens.rows @ x for x in xs]
        grads = [ens.rows.T @ ((p * p - y) * p) / m for p in projs]
        target_proj = ens.rows @ target
        assert np.array_equal(trace.dist, [np.linalg.norm(x - target) for x in xs])
        assert np.array_equal(trace.cost, [cost(ens, y, x) for x in xs])
        assert np.array_equal(trace.grad_norm, [np.linalg.norm(g) for g in grads])
        assert np.array_equal(
            trace.max_incoherence, [np.abs(p - target_proj).max() for p in projs]
        )

    def test_threshold_value(self):
        assert loo_threshold(100) == pytest.approx(5.0 * math.sqrt(math.log(100) / 100))
        assert loo_threshold(100) == pytest.approx(1.0729830131446736)


class TestLooIncoherenceChain:
    """Pointwise bound: incoherence of the main run is controlled by the
    leave-one-out proximity plus the projection concentration of the
    independent sequences."""

    def test_inequality_along_trace(self):
        n, m, seed = 32, 64, 1
        ens, gt, y, x0 = make_problem(n, m, seed)
        params = capped_defaults(n, float(np.linalg.norm(x0)), Method.POLYAK, 60)
        trace = run(ens, y, x0, params, gt=gt)
        xs = _iterates(ens.rows, y, x0, params, trace.n_steps, m)
        bundle = loo_run(ens, y, x0, params, gt)
        target = trace.sign * gt.x_star
        row_norms = np.linalg.norm(ens.rows, axis=1)
        proj_const = 5.0 * math.sqrt(math.log(n))
        steps = bundle.proximity.shape[0] - 1
        # dist_star[l, t] = ||x^{t,(l)} - s x_star||
        dist_star = np.array([
            np.linalg.norm(loo_sequence(ens, y, x0, params, ell, steps) - target, axis=1)
            for ell in range(m)
        ])
        for t in range(steps + 1):
            lhs = np.abs(ens.rows @ (xs[t] - target))
            rhs = row_norms * bundle.dist_main[:, t] + proj_const * dist_star[:, t]
            assert (lhs <= rhs + 1e-9).all()


class TestContractionConsistency:
    def test_ratio_below_midpoint_matrix_norm(self):
        # trace fully inside the RIC: per-step paired contraction is
        # bounded by the norm of the pair map at the midpoint Hessian
        n = 32
        m = int(round(10 * n * math.log(n)))
        ens, gt, y, x0 = make_problem(n, m, 0)
        params = default_params(n, float(np.linalg.norm(x0)), Method.POLYAK)
        trace = run(ens, y, x0, params, gt=gt)
        xs = _iterates(ens.rows, y, x0, params, trace.n_steps, m)
        assert trace.converged
        assert trace.loc_ok.all() and trace.inc_ok.all()
        target = trace.sign * gt.x_star
        for t in range(1, trace.n_steps + 1, 7):
            midpoint = 0.5 * (xs[t - 1] + target)
            mat = contraction_matrix_hb(
                hessian(ens, y, midpoint), params.eta, params.beta
            )
            assert trace.contraction_ratio[t] <= np.linalg.norm(mat, 2) + 0.05


class TestLatePhaseImplication:
    def test_small_dist_implies_incoherence(self):
        # once dist is below c2 sqrt(log n) / sqrt(6 n), Cauchy-Schwarz with
        # the row-norm bound forces the incoherence flag
        n, seed = 24, 2
        m = int(round(10 * n * math.log(n)))
        ens, gt, y, x0 = make_problem(n, m, seed)
        assert np.linalg.norm(ens.rows, axis=1).max() <= math.sqrt(6 * n)
        params = default_params(n, float(np.linalg.norm(x0)), Method.NESTEROV)
        trace = run(ens, y, x0, params, gt=gt)
        cutoff = 5.0 * math.sqrt(math.log(n)) / math.sqrt(6 * n)
        late = trace.dist <= cutoff
        assert late.any()
        assert trace.inc_ok[late].all()
