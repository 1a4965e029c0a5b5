"""Region-of-incoherence-and-contraction predicates and contraction matrices.

A point is in the RIC when it is both close to the target (locality) and
its error is not aligned with any single sensing row (incoherence).  The
contraction matrices give the one-step linear map acting on the stacked
pair of consecutive iterate errors for the two momentum methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GroundTruth, SensingEnsemble, align_sign, dist


@dataclass(frozen=True)
class RicConfig:
    """Constants for locality (c1), incoherence (c2), leave-one-out (c3)."""

    c1: float = 0.3
    c2: float = 5.0
    c3: float = 5.0

    def __post_init__(self):
        if not (self.c1 > 0 and self.c2 > 0 and self.c3 > 0):
            raise ValueError("RIC constants must be positive")


def loc_radius(gt: GroundTruth, cfg: RicConfig) -> float:
    return 2.0 * cfg.c1 * gt.norm


def inc_bound(n: int, gt: GroundTruth, cfg: RicConfig) -> float:
    if n < 2:
        raise ValueError("incoherence bound needs n >= 2 (log n degenerate)")
    return cfg.c2 * math.sqrt(math.log(n)) * gt.norm


def incoherence(ens: SensingEnsemble, delta) -> float:
    """max_i |a_i . delta| over the ensemble rows."""
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (ens.n,):
        raise ValueError(f"delta has shape {delta.shape}, expected ({ens.n},)")
    return float(np.max(np.abs(ens.rows @ delta)))


def check_loc(x, gt: GroundTruth, cfg: RicConfig) -> bool:
    """Locality: dist(x, x_star) <= 2 c1 ||x_star|| (inclusive)."""
    return dist(x, gt.x_star) <= loc_radius(gt, cfg)


def check_inc(
    x, gt: GroundTruth, ens: SensingEnsemble, cfg: RicConfig
) -> tuple[bool, float]:
    """Incoherence of the sign-aligned error; returns (ok, max incoherence)."""
    x = np.asarray(x, dtype=float)
    bound = inc_bound(ens.n, gt, cfg)
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

