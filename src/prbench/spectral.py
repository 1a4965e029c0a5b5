"""Spectral and random initialization.

The spectral initializer runs matrix-free power iteration on
Y = (1/m) sum_i y_i a_i a_i^T and scales the leading eigenvector so that
||x0|| = sqrt(lambda_1 / 3), which is a consistent norm estimate because
the expected leading eigenvalue of Y is 3 ||x_star||^2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import rng
from .model import SensingEnsemble, unit_sphere

_POWER_STREAM = rng.label_stream("power-iteration")
# distinct from the ground-truth sphere stream so a random start is
# independent of the target drawn with the same seed
_RANDOM_INIT_STREAM = rng.label_stream("random-init")


@dataclass(frozen=True)
class SpectralReport:
    x0: np.ndarray
    lambda1: float
    power_iters_used: int
    residual: float


def leading_eigenpair(
    matvec: Callable[[np.ndarray], np.ndarray],
    v0: np.ndarray,
    tol: float = 1e-10,
    max_iters: int = 1000,
) -> SpectralReport:
    """Power iteration for the leading eigenpair of a symmetric PSD operator.

    The report's `x0` is the unit eigenvector and `lambda1` its eigenvalue;
    the initializers rescale `x0` into a starting point.

    Convergence requires both the Rayleigh-quotient change and the residual
    ||A v - lam v|| to drop below `tol` relative to |lam|; the residual
    requirement is what certifies the returned eigenvector, and the
    relative scaling makes the stop rule invariant under scaling of the
    operator.  Works on real or complex vectors (Hermitian operators).
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be positive")
    v = np.asarray(v0)
    nv = np.linalg.norm(v)
    if nv == 0:
        raise ValueError("start vector must be nonzero")
    v = v / nv
    lam_prev = None
    residual = np.inf
    for k in range(1, max_iters + 1):
        w = matvec(v)
        lam = float(np.real(np.vdot(v, w)))
        residual = float(np.linalg.norm(w - lam * v))
        scale = max(abs(lam), 1e-300)
        settled = lam_prev is not None and abs(lam - lam_prev) <= tol * scale
        if settled and residual <= tol * scale:
            return SpectralReport(x0=v, lambda1=lam, power_iters_used=k, residual=residual)
        nw = np.linalg.norm(w)
        if nw == 0:
            raise ValueError("operator annihilated the iterate")
        v = w / nw
        lam_prev = lam
    raise ValueError(
        f"power iteration did not converge in {max_iters} iterations "
        f"(last residual {residual:.3e})"
    )


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    # first nonzero component positive; stabilizes recorded traces
    nz = np.flatnonzero(v)
    if nz.size and v[nz[0]] < 0:
        return -v
    return v


def spectral_init(ens: SensingEnsemble, y) -> SpectralReport:
    """Spectral initial point x0 = sqrt(lambda_1 / 3) * v1 of Y."""
    y = np.asarray(y, dtype=float)
    if y.shape != (ens.m,):
        raise ValueError(f"observations have shape {y.shape}, expected ({ens.m},)")
    rows = ens.rows

    def matvec(v):
        return rows.T @ (y * (rows @ v)) / ens.m

    v0 = rng.normals(ens.seed, _POWER_STREAM, ens.n)
    report = leading_eigenpair(matvec, v0, tol=1e-10, max_iters=1000)
    if report.lambda1 <= 0:
        raise ValueError(f"leading eigenvalue {report.lambda1:.3e} is not positive")
    return replace(report, x0=np.sqrt(report.lambda1 / 3.0) * _canonical_sign(report.x0))


def random_init(n: int, seed: int) -> np.ndarray:
    """Uniform draw from the unit sphere, independent of the ground truth."""
    return unit_sphere(n, seed, _RANDOM_INIT_STREAM)
