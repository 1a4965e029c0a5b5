"""Runtime diagnostics: leave-one-out sequences, the convex-quadratic rate
oracle, and Gaussian concentration checks.

The leave-one-out sequence for row l runs the same method on the cost with
measurement l removed (normalization keeps the original 1/4m), from the
same initial point.  Row l of the ensemble is structurally excluded from
every gradient evaluation of sequence l, which is what makes the sequence
independent of that row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SensingEnsemble
from .objective import gradient_kernel
from .ric import inc_bound
from .solvers import Method, SolverParams, momentum_step, run


@dataclass(frozen=True)
class LooBundle:
    """Per-sequence summaries of the m leave-one-out runs.

    `dist_main[l, t]` is ||x^t - x^{t,(l)}|| and `proximity[t]` is the max
    over l of the stacked-pair norm
    ||(x^t - x^{t,(l)}, x^{t-1} - x^{t-1,(l)})||.  The iterate sequences
    themselves are not kept; `loo_sequence` regenerates any one of them.
    The pass rule against `ric.loo_threshold` is the caller's.
    """

    dist_main: np.ndarray
    proximity: np.ndarray


def _iterates(rows, y, x0, params: SolverParams, steps: int, m: int) -> np.ndarray:
    """Exactly `steps` steps of the chosen method on the cost over `rows`
    with normalization 1/m and no stopping rule; shape (steps + 1, n)."""
    grad_fn = lambda x: gradient_kernel(rows, y, x, m)
    out = np.empty((steps + 1, x0.shape[0]))
    out[0] = x0
    x_prev = x_curr = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, steps + 1):
            x_new = momentum_step(params.method, x_curr, x_prev, grad_fn, params.eta, params.beta)
            x_prev, x_curr = x_curr, x_new
            out[t] = x_curr
    return out


def loo_sequence(
    ens: SensingEnsemble, y, x0, params: SolverParams, ell: int, steps: int
) -> np.ndarray:
    """Iterates of the leave-row-ell sequence, shape (steps + 1, n).

    Row ell is removed from the working arrays before any arithmetic, so it
    is never read; the cost normalization keeps the original 1/m.  The
    sequence runs exactly `steps` steps with no stopping rule.
    """
    rows_l = np.delete(ens.rows, ell, axis=0)
    return _iterates(rows_l, np.delete(y, ell), x0, params, steps, ens.m)


def loo_run(
    ens: SensingEnsemble, y, x0, params: SolverParams, x_star: np.ndarray
) -> LooBundle:
    """Run the m leave-one-out sequences next to the main sequence.

    The main run fixes the step count T, and its iterates are rebuilt by
    the sequences' fixed-step loop, which reproduces `run`'s bit for bit.
    Every sequence iterates exactly T steps so the pairwise distances are
    time-aligned.  The cost is O(m^2 n T).
    """
    steps = run(ens, y, x0, params, x_star).n_steps
    main = _iterates(ens.rows, y, x0, params, steps, ens.m)

    dist_main = np.zeros((ens.m, steps + 1))
    for ell in range(ens.m):
        seq = loo_sequence(ens, y, x0, params, ell, steps)
        dist_main[ell] = np.linalg.norm(main - seq, axis=1)

    proximity = np.zeros(steps + 1)
    proximity[1:] = np.hypot(dist_main[:, 1:], dist_main[:, :-1]).max(axis=0)
    return LooBundle(dist_main=dist_main, proximity=proximity)


# C03's benchmark quadratic f = (QUAD_MU x1^2 + QUAD_L x2^2)/2, condition
# number 100, and the oracle's step count
QUAD_MU, QUAD_L = 1.0, 100.0
ORACLE_STEPS = 10_000


def quadratic_parameters(method: Method) -> tuple[float, float]:
    """(eta, beta) for the two-dimensional quadratic benchmark, with
    mu = QUAD_MU, L = QUAD_L and kappa = L/mu.

    GD uses 1/L.  Heavy ball uses the critically damped pairing
    eta = 4/(sqrt(mu)+sqrt(L))^2, beta = ((sqrt(L)-sqrt(mu))/(sqrt(L)+sqrt(mu)))^2,
    which realizes the (sqrt(kappa)-1)/(sqrt(kappa)+1) contraction.
    Nesterov uses eta = 1/L and beta = (sqrt(kappa)-1)/(sqrt(kappa)+1).
    """
    method = Method(method)
    mu, L = QUAD_MU, QUAD_L
    if method is Method.GD:
        return 1.0 / L, 0.0
    root = (math.sqrt(L) - math.sqrt(mu)) / (math.sqrt(L) + math.sqrt(mu))
    if method is Method.POLYAK:
        return 4.0 / (math.sqrt(mu) + math.sqrt(L)) ** 2, root * root
    return 1.0 / L, root


def quadratic_oracle(method: Method) -> float:
    """Measured asymptotic paired-norm contraction on the benchmark quadratic.

    Iterates ORACLE_STEPS steps from (1, 1) with the benchmark parameters
    and returns the geometric mean of the per-step stacked-pair norm ratios
    over the last half of the run.  The dynamics are linear, so the pair is
    renormalized each step to dodge underflow.
    """
    eta, beta = quadratic_parameters(method)
    method = Method(method)
    scales = np.array([QUAD_MU, QUAD_L])
    grad_fn = lambda x: scales * x
    x_prev = np.array([1.0, 1.0])
    x_curr = np.array([1.0, 1.0])
    pair_norm = math.hypot(np.linalg.norm(x_curr), np.linalg.norm(x_prev))
    log_ratios = []
    for _ in range(ORACLE_STEPS):
        x_new = momentum_step(method, x_curr, x_prev, grad_fn, eta, beta)
        new_norm = math.hypot(np.linalg.norm(x_new), np.linalg.norm(x_curr))
        log_ratios.append(math.log(new_norm / pair_norm))
        # renormalize the pair; the update is linear so this is exact
        x_prev, x_curr = x_curr / new_norm, x_new / new_norm
        pair_norm = 1.0
    tail = log_ratios[ORACLE_STEPS // 2:]
    return math.exp(sum(tail) / len(tail))


def concentration_report(
    ens: SensingEnsemble, probe
) -> tuple[float, float, bool, float, float, bool]:
    """Row-norm and projection concentration checks, as the tuple
    (max_row_norm, row_bound, row_ok, max_projection, proj_bound, proj_ok).

    The probe must be independent of the ensemble (caller responsibility;
    a fresh unit-sphere draw or any fixed vector qualifies).  Rejects
    n < 3, where the projection bound `ric.inc_bound`, C2 sqrt(log n),
    is not meaningful.
    """
    if ens.n < 3:
        raise ValueError("concentration bounds need n >= 3")
    row_norms = np.linalg.norm(ens.rows, axis=1)
    max_row = float(row_norms.max())
    row_bound = math.sqrt(6.0 * ens.n)
    max_proj = float(np.max(np.abs(ens.rows @ probe)))
    proj_bound = inc_bound(ens.n, probe)
    return (max_row, row_bound, max_row <= row_bound,
            max_proj, proj_bound, max_proj <= proj_bound)
