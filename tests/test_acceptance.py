"""Acceptance suite: one test per criterion, each timed against its budget
and ending with a printed pass/fail line (visible under `pytest -v -s`).

Criterion 8 checks the leave-one-out proximity bound at m = round(n log n)
= 461 for n=100, the regime in which the leave-one-out argument claims it.
Its five spectral starts are incoherent but not local: each passes the
incoherence check (max |a_l . (x0 - s x*)| from 4.50 to 7.84, within 10.73)
but lies outside the locality radius 2 c1 ||x*|| = 0.6 (dist(x0, x*) from
0.856 to 1.005; `test_ric.py` pins both ranges), so the criterion checks
the bound from incoherent, non-local starts rather than from the local
region the analysis assumes.
It does not run at m=256, the default `--loo_budget_m` limit that
`cmd_loo` checks: the bound is not claimed there, and it fails, because the
spectral start of seed 4 already breaks the incoherence predicate before
the first step (max |a_l . (x0 - s x*)| = 12.02 > 5 sqrt(log 100) = 10.73)
and the proximity reaches 1.3286 against 1.0730 at t=3 through row 9.  The harness
tests that expect exit 1 from `loo` at n=100, m=256, seed 4 keep that
violation pinned.
"""

import dataclasses
import math
import time

import numpy as np

from prbench.diagnostics import loo_sequence, quadratic_parameters
from prbench.harness import ExperimentConfig, momentum_dominates, sweep_cell, theory_m
from prbench.model import (
    SensingEnsemble,
    observe,
    random_ground_truth,
    sample_ensemble,
    sample_unit_sphere,
)
from prbench.solvers import Method, default_params, run
from prbench.spectral import _POWER_STREAM, leading_eigenpair, spectral_init
from prbench import cli, rng

from conftest import make_problem
from reference import (
    check_inc,
    check_loc,
    contraction_matrix_hb,
    contraction_matrix_nag,
    cost,
    dist,
    gradient,
    hessian,
    hessian_extremes,
)


def report(number, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {detail} [{elapsed:.1f}s / {budget:.0f}s]")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"
    assert ok, f"criterion {number}: {detail}"


def run_cli(tmp_path, argv, table=""):
    """Run one command in-process into `tmp_path / "out"`; returns its exit
    code, its table's rows as {column: text} and its `# key=value` comments."""
    out = tmp_path / "out"
    code = cli.main(argv + ["--out", str(out)])
    lines = (out / table if table else out).read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:] if line[0] != "#"]
    comments = dict(line[2:].split("=", 1) for line in lines if line[0] == "#")
    return code, rows, comments


def test_c01_gradient_and_hessian_match_finite_differences():
    start = time.monotonic()
    ens, _, y, _ = make_problem(20, 60, 5)
    worst_grad = 0.0
    worst_hess = 0.0
    for seed in range(10):
        x = sample_unit_sphere(20, 1000 + seed) * (0.5 + 0.1 * seed)
        h = 1e-5 * (1 + np.linalg.norm(x))
        basis = np.eye(20)
        fd_grad = np.array([
            (cost(ens, y, x + h * e) - cost(ens, y, x - h * e)) / (2 * h)
            for e in basis
        ])
        g = gradient(ens, y, x)
        worst_grad = max(worst_grad, np.linalg.norm(g - fd_grad) / np.linalg.norm(fd_grad))
        fd_hess = np.column_stack([
            (gradient(ens, y, x + h * e) - gradient(ens, y, x - h * e)) / (2 * h)
            for e in basis
        ])
        hess = hessian(ens, y, x)
        worst_hess = max(worst_hess, np.linalg.norm(hess - fd_hess) / np.linalg.norm(fd_hess))
    ok = worst_grad < 1e-6 and worst_hess < 1e-5
    report(1, ok, f"grad rel err {worst_grad:.2e} < 1e-6, hess rel err {worst_hess:.2e} < 1e-5",
           time.monotonic() - start, 1.0)


def test_c02_spectral_population_oracle_and_monte_carlo():
    start = time.monotonic()
    x_star = random_ground_truth(5, 3)
    matvec = lambda v: v + 2.0 * x_star * (x_star @ v)
    res = leading_eigenpair(matvec, rng.normals(3, _POWER_STREAM, 5), tol=1e-10)
    x0_pop = math.sqrt(res.lambda1 / 3.0) * res.x0
    pop_dist = dist(x0_pop, x_star)
    ens = sample_ensemble(10**6, 5, seed=11)
    y = observe(ens, x_star)
    mc_dist = dist(spectral_init(ens, y).x0, x_star)
    ok = pop_dist <= 1e-8 and mc_dist <= 0.01
    report(2, ok, f"population dist {pop_dist:.2e} <= 1e-8, Monte-Carlo dist {mc_dist:.4f} <= 0.01",
           time.monotonic() - start, 10.0)


def test_c03_quadratic_oracle_rates_at_kappa_100(tmp_path):
    start = time.monotonic()
    code, rows, comments = run_cli(tmp_path, ["oracle"])
    report(3, code == 0,
           ", ".join(f"{row['method']} {float(row['measured_ratio']):.4f} < "
                     f"{float(row['bound']):.4f}" for row in rows)
           + f"; momentum_below_gd={comments['momentum_below_gd']}",
           time.monotonic() - start, 1.0)


def test_c04_contraction_matrices_match_rate_factors():
    start = time.monotonic()
    mu, L = 1.0, 100.0
    hess = np.diag([mu, L])
    eta, beta = quadratic_parameters(Method.POLYAK)
    hb_radius = np.max(np.abs(np.linalg.eigvals(contraction_matrix_hb(hess, eta, beta))))
    hb_target = (math.sqrt(L) - math.sqrt(mu)) / (math.sqrt(L) + math.sqrt(mu))
    eta, beta = quadratic_parameters(Method.NESTEROV)
    nag_radius = np.max(np.abs(np.linalg.eigvals(contraction_matrix_nag(hess, eta, beta))))
    nag_target = 1.0 - math.sqrt(mu) / math.sqrt(L)
    ok = abs(hb_radius - hb_target) <= 1e-6 and abs(nag_radius - nag_target) <= 1e-6
    report(4, ok,
           f"hb radius {hb_radius:.8f} vs {hb_target:.8f}, "
           f"nag radius {nag_radius:.8f} vs {nag_target:.8f}",
           time.monotonic() - start, 1.0)


def test_c05_grid_momentum_dominance_both_inits():
    # `momentum_dominates` is the rule `prbench sweep` applies to each cell
    start = time.monotonic()
    failures = []
    for init in ("spectral", "random"):
        cfg = ExperimentConfig(seed_list=(0, 1, 2, 3, 4), init=init)
        for n in (10, 50, 100):
            for m in (200, 500, 1000):
                rows = sweep_cell(cfg, n, m)
                if not momentum_dominates(cfg, rows):
                    failures.append(f"{init} n={n} m={m}: medians {[row[-1] for row in rows]}")
    report(5, not failures, "; ".join(failures) or "momentum dominates on every converging cell",
           time.monotonic() - start, 300.0)


def test_c06_contraction_rates_and_incoherence_at_n64():
    start = time.monotonic()
    n = 64
    m = theory_m(n)
    eta = 0.05 / math.log(n)
    gd_bound = 1.0 - eta / 2.0 + 0.05
    agd_bound = 1.0 - math.sqrt(eta) / 2.0 + 0.05
    inc_bound = 5.0 * math.sqrt(math.log(n))
    worst = {Method.GD: 0.0, Method.POLYAK: 0.0, Method.NESTEROV: 0.0}
    worst_inc = 0.0
    for seed in range(10):
        ens, x_star, y, x0 = make_problem(n, m, seed)
        for method in Method:
            params = default_params(n, float(np.linalg.norm(x0)), method)
            trace = run(ens, y, x0, params, x_star)
            assert trace.converged
            if method is Method.GD:
                tail = trace.dist[-50:] / trace.dist[-51:-1]
                worst[method] = max(worst[method], float(tail.max()))
            else:
                worst[method] = max(worst[method], float(np.nanmax(trace.contraction_ratio[-50:])))
            worst_inc = max(worst_inc, float(trace.max_incoherence.max()))
    ok = (
        worst[Method.GD] <= gd_bound
        and worst[Method.POLYAK] <= agd_bound
        and worst[Method.NESTEROV] <= agd_bound
        and worst_inc <= inc_bound
    )
    report(6, ok,
           f"gd ratio {worst[Method.GD]:.4f} <= {gd_bound:.4f}, "
           f"hb {worst[Method.POLYAK]:.4f} / nag {worst[Method.NESTEROV]:.4f} <= {agd_bound:.4f}, "
           f"incoherence {worst_inc:.2f} <= {inc_bound:.2f}",
           time.monotonic() - start, 60.0)


def test_c07_speedup_slopes_track_sqrt_log_n(tmp_path):
    start = time.monotonic()
    code, rows, comments = run_cli(tmp_path, ["slopes", "--n_list", "16,64,256",
                                              "--seed_list", "0,1,2,3,4"])
    details = [f"n={row['n']}: {float(row['mean_slope']):.3f} over {row['seeds']} seeds "
               f"vs sqrt(log n)={float(row['sqrt_log_n']):.3f}" for row in rows]
    details += [f"{key}={value}" for key, value in comments.items()]
    report(7, code == 0, "; ".join(details), time.monotonic() - start, 300.0)


def test_c08_leave_one_out_proximity_and_independence(tmp_path):
    start = time.monotonic()
    n = 100
    m = int(round(n * math.log(n)))  # the m ~ n log n regime of the bound
    passed, worst = 0, 0.0
    for method in ("polyak", "nesterov"):
        for seed in range(5):
            code, rows, _ = run_cli(tmp_path, [
                "loo", "--n_list", str(n), "--m_list", str(m), "--loo_budget_m", str(m),
                "--seed_list", str(seed), "--methods", method, "--max_iters", "500"])
            passed += code == 0
            worst = max(worst, max(float(row["proximity"]) for row in rows))
            threshold = float(rows[0]["threshold"])
    # independence: poisoning row ell leaves sequence ell bit-identical
    ens, x_star, y, x0 = make_problem(n, m, 0)
    params = dataclasses.replace(
        default_params(n, float(np.linalg.norm(x0)), Method.POLYAK), max_iters=500
    )
    clean = loo_sequence(ens, y, x0, params, 7, 50)
    rows = ens.rows.copy()
    rows[7] = np.nan
    poisoned = SensingEnsemble(rows=rows, seed=ens.seed)
    independent = np.array_equal(clean, loo_sequence(poisoned, y, x0, params, 7, 50))
    report(8, passed == 10 and independent,
           f"{passed}/10 runs within threshold {threshold:.4f} (max proximity {worst:.4f}), "
           f"poisoning independence {'holds' if independent else 'violated'}",
           time.monotonic() - start, 120.0)


def test_c09_hessian_bounds_at_ric_points():
    start = time.monotonic()
    n = 64
    m = theory_m(n)
    upper = 20.0 * math.log(n)
    lmin_worst, lmax_worst = math.inf, 0.0
    for seed in range(20):
        ens, x_star, y, x0 = make_problem(n, m, seed)
        assert check_loc(x0, x_star)
        ok_inc, _ = check_inc(x0, x_star, ens)
        assert ok_inc
        lmin, lmax = hessian_extremes(ens, y, x0)
        lmin_worst = min(lmin_worst, lmin)
        lmax_worst = max(lmax_worst, lmax)
    ok = lmin_worst >= 0.45 and lmax_worst <= upper
    report(9, ok,
           f"lambda_min {lmin_worst:.3f} >= 0.45, lambda_max {lmax_worst:.2f} <= {upper:.2f}",
           time.monotonic() - start, 60.0)


def test_c10_concentration_suite_20_of_20(tmp_path):
    start = time.monotonic()
    code, rows, _ = run_cli(tmp_path, ["concentration", "--n_list", "100", "--m_list", "1000",
                                       "--seed_list", ",".join(map(str, range(20)))])
    passed = sum(row["row_ok"] == row["proj_ok"] == "1" for row in rows)
    report(10, code == 0, f"{passed}/{len(rows)} seeds satisfy both bounds",
           time.monotonic() - start, 10.0)


def test_c11_cdp_acceleration_and_fft_parity(tmp_path):
    start = time.monotonic()
    code, _, comments = run_cli(tmp_path, ["cdp", "--cdp_size", "64", "--mask_count", "12",
                                           "--cdp_iters", "140", "--seed_list", "0"],
                                table="errors.csv")
    finals = " ".join(f"{method}={float(comments['final_' + method]):.4f}"
                      for method in ("gd", "polyak", "nesterov"))
    flags = " ".join(f"{key}={comments[key]}"
                     for key in ("accelerated_below_gd", "none_diverged", "fft_parity"))
    report(11, code == 0, f"rel err at 140: {finals}; {flags}", time.monotonic() - start, 120.0)
