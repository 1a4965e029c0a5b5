"""Gradient descent, Polyak heavy ball, and Nesterov iterations.

All three methods are state machines over the pair (x^t, x^{t-1}).  The
cold-start convention sets x^1 = x^0, so the first computed update of any
method is a plain gradient step.  Error columns in a trace are measured
against s * x_star where the sign s is fixed once at t = 0; this keeps
paired norms and contraction ratios continuous along the run.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .model import GroundTruth, SensingEnsemble, align_sign
from .objective import gradient_kernel
from .ric import inc_bound, loc_radius


class Method(str, enum.Enum):
    GD = "gd"
    POLYAK = "polyak"
    NESTEROV = "nesterov"


class Status(str, enum.Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    DIVERGED = "diverged"


# a cost above this (or a non-finite one) ends a run as diverged
DIVERGENCE_CAP = 1e8


@dataclass(frozen=True)
class SolverParams:
    method: Method
    eta: float
    beta: float = 0.0
    max_iters: int = 10_000
    tol: float = 1e-7

    def __post_init__(self):
        if not 0 < self.eta < math.inf:
            raise ValueError("step size must be positive")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.method is Method.GD and self.beta != 0.0:
            raise ValueError("gradient descent requires beta = 0")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be at least 0, got {self.max_iters}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")


@dataclass(frozen=True)
class IterationTrace:
    """One record per iterate, the initial point included.

    Row t describes x^t.  The dist, incoherence, and pair columns are
    measured against s * x_star with the sign s fixed at t = 0, which
    keeps them continuous along the run; the stopping rule instead uses
    the sign-invariant distance, so a random start that lands in the
    opposite sign basin still reports convergence (with a large dist
    column).  `paired_norm[t]` is the norm of the stacked pair
    (x^t - s x_star, x^{t-1} - s x_star) with x^{-1} taken as x^0, and
    `contraction_ratio[t]` is paired_norm[t] / paired_norm[t-1] (nan at
    t = 0).
    """

    iters: np.ndarray
    dist: np.ndarray
    cost: np.ndarray
    grad_norm: np.ndarray
    max_incoherence: np.ndarray
    loc_ok: np.ndarray
    inc_ok: np.ndarray
    paired_norm: np.ndarray
    contraction_ratio: np.ndarray
    status: Status
    sign: float

    @property
    def n_steps(self) -> int:
        return int(self.iters[-1])

    @property
    def converged(self) -> bool:
        return self.status is Status.CONVERGED


def momentum_step(
    method: Method,
    x_curr: np.ndarray,
    x_prev: np.ndarray,
    grad_fn: Callable[[np.ndarray], np.ndarray],
    eta: float,
    beta: float,
    grad_at_curr: np.ndarray | None = None,
):
    """One update of the chosen method; `grad_at_curr` avoids a recompute
    for the methods that evaluate the gradient at the current iterate."""
    if method is Method.GD:
        g = grad_fn(x_curr) if grad_at_curr is None else grad_at_curr
        return x_curr - eta * g
    mom = beta * (x_curr - x_prev)
    if method is Method.POLYAK:
        g = grad_fn(x_curr) if grad_at_curr is None else grad_at_curr
        return x_curr - eta * g + mom
    return x_curr - eta * grad_fn(x_curr + mom) + mom


def momentum_beta(mu: float, ell: float) -> float:
    """(sqrt(ell) - sqrt(mu)) / (sqrt(ell) + sqrt(mu)), clamped at 0."""
    value = (math.sqrt(ell) - math.sqrt(mu)) / (math.sqrt(ell) + math.sqrt(mu))
    return max(0.0, value)


def default_params(n: int, norm_x0: float, method: Method) -> SolverParams:
    """Experiment defaults: eta = 0.05 / (log(n) ||x0||^2) and the momentum
    targeting a (2, log n)-conditioned objective; beta = 0 for GD."""
    if n < 2:
        raise ValueError("defaults need n >= 2 (log n degenerate)")
    if norm_x0 <= 0:
        raise ValueError("norm_x0 must be positive")
    method = Method(method)
    ell = math.log(n)
    eta = 0.05 / ell / (norm_x0 * norm_x0)
    beta = 0.0 if method is Method.GD else momentum_beta(2.0, ell)
    return SolverParams(method=method, eta=eta, beta=beta)


def theory_params(n: int, norm_x0: float, method: Method) -> SolverParams:
    """Rate-analysis defaults: same eta, momentum targeting (1/2, log n)."""
    base = default_params(n, norm_x0, method)
    if base.method is Method.GD:
        return base
    return replace(base, beta=momentum_beta(0.5, math.log(n)))


def override_params(
    base: SolverParams, eta: float | None, beta: float | None, **changes
) -> SolverParams:
    """`base` with the user's eta and beta overrides and any other field
    `changes` applied.  An eta override always wins; a beta override wins
    except for gradient descent, which keeps beta = 0."""
    if eta is not None:
        changes["eta"] = eta
    if beta is not None and base.method is not Method.GD:
        changes["beta"] = beta
    return replace(base, **changes)


def run(
    ens: SensingEnsemble,
    y,
    x0,
    params: SolverParams,
    gt: GroundTruth,
) -> IterationTrace:
    """Drive the chosen method and record the per-iteration trace.

    Stops when the sign-invariant distance to x_star is at most tol, when
    max_iters is exhausted, or on divergence (cost above DIVERGENCE_CAP or a
    non-finite iterate); divergence is a status, never an exception.
    """
    y = np.asarray(y, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if y.shape != (ens.m,):
        raise ValueError(f"observations have shape {y.shape}, expected ({ens.m},)")
    if x0.shape != (ens.n,):
        raise ValueError(f"start point has shape {x0.shape}, expected ({ens.n},)")
    if gt.x_star.shape != (ens.n,):
        raise ValueError("ground truth dimension mismatch")

    rows, m = ens.rows, ens.m
    grad_fn = lambda x: gradient_kernel(rows, y, x, m)

    sign = align_sign(x0, gt.x_star)
    target = sign * gt.x_star
    target_proj = rows @ target

    # per iterate, only the columns that need the iterate itself; the flags
    # and pair columns are derived from them after the loop
    cost, grad_norm, dist, max_inc = [], [], [], []
    x_curr = x_prev = x0
    status = Status.MAX_ITERS
    t = 0
    # overflow to inf inside a diverging run is the expected signal
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            # one pass of projections feeds cost, gradient, and incoherence
            proj = rows @ x_curr
            resid = proj * proj - y
            cost_value = float(resid @ resid) / (4.0 * m)
            grad_value = rows.T @ (resid * proj) / m
            cost.append(cost_value)
            grad_norm.append(float(np.linalg.norm(grad_value)))
            dist.append(float(np.linalg.norm(x_curr - target)))
            max_inc.append(float(np.max(np.abs(proj - target_proj))))
            if not math.isfinite(cost_value) or cost_value > DIVERGENCE_CAP:
                status = Status.DIVERGED
                break
            if min(dist[-1], float(np.linalg.norm(x_curr + target))) <= params.tol:
                status = Status.CONVERGED
                break
            if t >= params.max_iters:
                break
            x_new = momentum_step(
                params.method, x_curr, x_prev, grad_fn,
                params.eta, params.beta, grad_at_curr=grad_value,
            )
            if not np.all(np.isfinite(x_new)):
                status = Status.DIVERGED
                break
            x_prev, x_curr = x_curr, x_new
            t += 1

    # math.hypot, not np.hypot: the two differ in the last bit
    paired = np.array([math.hypot(d, d_prev) for d, d_prev in zip(dist, dist[:1] + dist)])
    dist = np.asarray(dist, dtype=float)
    max_inc = np.asarray(max_inc, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.concatenate([[np.nan], paired[1:] / paired[:-1]])
    return IterationTrace(
        iters=np.arange(len(cost)),
        dist=dist,
        cost=np.asarray(cost, dtype=float),
        grad_norm=np.asarray(grad_norm, dtype=float),
        max_incoherence=max_inc,
        loc_ok=dist <= loc_radius(gt),
        inc_ok=max_inc <= (inc_bound(ens.n, gt) if ens.n >= 2 else np.inf),
        paired_norm=paired,
        contraction_ratio=ratio,
        status=status,
        sign=sign,
    )
