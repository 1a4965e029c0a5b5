"""Region-of-incoherence-and-contraction predicates and contraction matrices.

A point is in the RIC when it is both close to the target (locality) and
its error is not aligned with any single sensing row (incoherence).  The
contraction matrices give the one-step linear map acting on the stacked
pair of consecutive iterate errors for the two momentum methods.
"""

from __future__ import annotations

import math

import numpy as np

from .model import GroundTruth, SensingEnsemble, align_sign, dist

# region constants of the analysis: locality radius 2 c1 ||x*||, incoherence
# bound c2 sqrt(log n) ||x*||, leave-one-out threshold c3 sqrt(log n / n)
C1, C2, C3 = 0.3, 5.0, 5.0


def loc_radius(gt: GroundTruth) -> float:
    return 2.0 * C1 * gt.norm


def inc_bound(n: int, gt: GroundTruth) -> float:
    if n < 2:
        raise ValueError("incoherence bound needs n >= 2 (log n degenerate)")
    return C2 * math.sqrt(math.log(n)) * gt.norm


def loo_threshold(n: int) -> float:
    return C3 * math.sqrt(math.log(n) / n)


def incoherence(ens: SensingEnsemble, delta) -> float:
    """max_i |a_i . delta| over the ensemble rows."""
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (ens.n,):
        raise ValueError(f"delta has shape {delta.shape}, expected ({ens.n},)")
    return float(np.max(np.abs(ens.rows @ delta)))


def check_loc(x, gt: GroundTruth) -> bool:
    """Locality: dist(x, x_star) <= 2 c1 ||x_star|| (inclusive)."""
    return dist(x, gt.x_star) <= loc_radius(gt)


def check_inc(x, gt: GroundTruth, ens: SensingEnsemble) -> tuple[bool, float]:
    """Incoherence of the sign-aligned error; returns (ok, max incoherence)."""
    x = np.asarray(x, dtype=float)
    bound = inc_bound(ens.n, gt)
    s = align_sign(x, gt.x_star)
    value = incoherence(ens, x - s * gt.x_star)
    return value <= bound, value


def contraction_matrix_hb(hess: np.ndarray, eta: float, beta: float) -> np.ndarray:
    """Heavy-ball pair map [[(1+b)I - eta*H, -b*I], [I, 0]]."""
    hess = np.asarray(hess, dtype=float)
    n = hess.shape[0]
    eye = np.eye(n)
    top = np.hstack([(1.0 + beta) * eye - eta * hess, -beta * eye])
    bottom = np.hstack([eye, np.zeros((n, n))])
    return np.vstack([top, bottom])


def contraction_matrix_nag(hess: np.ndarray, eta: float, beta: float) -> np.ndarray:
    """Nesterov pair map [[(1+b)(I - eta*H), -b(I - eta*H)], [I, 0]]."""
    hess = np.asarray(hess, dtype=float)
    n = hess.shape[0]
    eye = np.eye(n)
    shrunk = eye - eta * hess
    top = np.hstack([(1.0 + beta) * shrunk, -beta * shrunk])
    bottom = np.hstack([eye, np.zeros((n, n))])
    return np.vstack([top, bottom])

