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

from .model import SensingEnsemble, align_sign
from .objective import gradient_kernel, project, project_t
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

# `run` keeps its projections in blocks of this many values (1 MiB, about
# the L2 size) and reduces the incoherence column one block at a time
INC_BLOCK_VALUES = 2**17


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
):
    """One update of the chosen method."""
    if method is Method.GD:
        return x_curr - eta * grad_fn(x_curr)
    mom = beta * (x_curr - x_prev)
    if method is Method.POLYAK:
        return x_curr - eta * grad_fn(x_curr) + mom
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


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a real vector by np.linalg.norm's own 1-D formula,
    sqrt(v @ v), without its per-call dispatch: `v.dot(v)` makes the same
    BLAS ddot call as `v @ v` without matmul's."""
    return math.sqrt(v.dot(v))


def _block_incoherence(block: np.ndarray, target_proj: np.ndarray) -> np.ndarray:
    """max_i |block[k, i] - target_proj[i]| for each row k, computed in
    place: the block's values are gone afterwards."""
    np.subtract(block, target_proj, out=block)
    np.absolute(block, out=block)
    return np.maximum.reduce(block, axis=1)


def run(
    ens: SensingEnsemble,
    y,
    x0,
    params: SolverParams,
    x_star: np.ndarray,
) -> IterationTrace:
    """Drive the chosen method and record the per-iteration trace.

    Stops when the sign-invariant distance to x_star is at most tol, when
    max_iters is exhausted, or on divergence (cost above DIVERGENCE_CAP or a
    non-finite iterate); divergence is a status, never an exception.
    """
    rows, m = ens.rows, ens.m
    grad_fn = lambda x: gradient_kernel(rows, y, x, m)
    # GD and heavy ball take the gradient at the current iterate, which the
    # trace has just computed; Nesterov's is at its look-ahead point
    if params.method is Method.GD or params.method is Method.POLYAK:
        grad_fn = lambda x: grad_value

    sign = align_sign(x0, x_star)
    target = sign * x_star
    target_proj = rows.dot(target)
    # ||x + target|| >= 2 ||target|| - dist, so the second sign can meet tol
    # only from this dist on; the margin covers rounding in both norms
    second_sign_from = (2.0 - 1e-9) * _norm(target) - params.tol

    # per iterate, only the columns that need the iterate itself; the flags
    # and pair columns are derived from them after the loop.  The workspace
    # is allocated once: the residual, and a block whose rows take the
    # projections of consecutive iterates.  A full block's incoherence is
    # reduced, in place, just before its first row is overwritten, never
    # right after a write: the row just written is the current projection.
    block = np.empty((max(1, INC_BLOCK_VALUES // m), m))
    resid = np.empty(m)
    cost, grad_norm, dist, max_inc = [], [], [], []
    x_curr = x_prev = x0
    status = Status.MAX_ITERS
    t = k = 0  # k: the block rows in use
    # overflow to inf inside a diverging run is the expected signal
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if k == len(block):
                max_inc.append(_block_incoherence(block, target_proj))
                k = 0
            # one pass of projections feeds cost, gradient, and incoherence:
            # `gradient_kernel`'s operations, inlined so the cost can reuse
            # the residual
            proj = block[k]
            k += 1
            project(rows, x_curr, out=proj)
            np.multiply(proj, proj, out=resid)
            resid -= y
            cost_value = float(resid.dot(resid)) / (4.0 * m)
            resid *= proj
            grad_value = project_t(rows, resid)
            grad_value /= m
            dist_value = _norm(x_curr - target)
            cost.append(cost_value)
            grad_norm.append(_norm(grad_value))
            dist.append(dist_value)
            if not math.isfinite(cost_value) or cost_value > DIVERGENCE_CAP:
                status = Status.DIVERGED
                break
            # the sign-invariant distance; the second sign only when needed
            if dist_value <= params.tol or (
                dist_value >= second_sign_from and _norm(x_curr + target) <= params.tol
            ):
                status = Status.CONVERGED
                break
            if t >= params.max_iters:
                break
            x_new = momentum_step(params.method, x_curr, x_prev, grad_fn, params.eta, params.beta)
            # a finite x_new @ x_new means finite entries; an overflowing one
            # can still come from finite entries, so then the entries decide
            if not math.isfinite(x_new.dot(x_new)) and not np.all(np.isfinite(x_new)):
                status = Status.DIVERGED
                break
            x_prev, x_curr = x_curr, x_new
            t += 1
        max_inc.append(_block_incoherence(block[:k], target_proj))

    # math.hypot, not np.hypot: the two differ in the last bit
    paired = np.array([math.hypot(d, d_prev) for d, d_prev in zip(dist, dist[:1] + dist)])
    dist = np.asarray(dist, dtype=float)
    max_inc = np.concatenate(max_inc)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.concatenate([[np.nan], paired[1:] / paired[:-1]])
    return IterationTrace(
        iters=np.arange(len(cost)),
        dist=dist,
        cost=np.asarray(cost, dtype=float),
        grad_norm=np.asarray(grad_norm, dtype=float),
        max_incoherence=max_inc,
        loc_ok=dist <= loc_radius(x_star),
        inc_ok=max_inc <= inc_bound(ens.n, x_star),
        paired_norm=paired,
        contraction_ratio=ratio,
        status=status,
        sign=sign,
    )
