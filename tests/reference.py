"""References the tests check the package against, kept apart from it.

The CLI and the solvers never call these: the quartic cost and its dense
Hessian, the region-of-incoherence-and-contraction (RIC) predicates, the
pair contraction matrices of the two momentum methods, the sign-invariant
distance, and the per-value CSV cell formatter that the harness's row
formats must match byte for byte.

cost(x)     = (1/4m) sum_i ((a_i.x)^2 - y_i)^2
gradient(x) = (1/m)  sum_i ((a_i.x)^2 - y_i) (a_i.x) a_i
hessian(x)  = (1/m)  sum_i (3 (a_i.x)^2 - y_i) a_i a_i^T

A point is in the RIC when it is both close to the target (locality) and
its error is not aligned with any single sensing row (incoherence).  The
contraction matrices give the one-step linear map acting on the stacked
pair of consecutive iterate errors.
"""

from __future__ import annotations

import numpy as np

from prbench.model import SensingEnsemble, align_sign
from prbench.objective import gradient_kernel
from prbench.ric import inc_bound, loc_radius

# beyond this dimension the dense Hessian is refused
DENSE_LIMIT = 512


def dist(x, x_star) -> float:
    """Sign-invariant distance min(||x - x_star||, ||x + x_star||)."""
    x = np.asarray(x, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    if x.shape != x_star.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {x_star.shape}")
    return float(min(np.linalg.norm(x - x_star), np.linalg.norm(x + x_star)))


def _check_inputs(ens: SensingEnsemble, y, x):
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape != (ens.m,):
        raise ValueError(f"observations have shape {y.shape}, expected ({ens.m},)")
    if x.shape != (ens.n,):
        raise ValueError(f"point has shape {x.shape}, expected ({ens.n},)")
    return y, x


def cost(ens: SensingEnsemble, y, x) -> float:
    y, x = _check_inputs(ens, y, x)
    p = ens.rows @ x
    r = p * p - y
    return float(r @ r) / (4.0 * ens.m)


def gradient(ens: SensingEnsemble, y, x) -> np.ndarray:
    y, x = _check_inputs(ens, y, x)
    return gradient_kernel(ens.rows, y, x, ens.m)


def hessian(ens: SensingEnsemble, y, x) -> np.ndarray:
    """Dense n x n Hessian, symmetrized; refuses n > DENSE_LIMIT."""
    y, x = _check_inputs(ens, y, x)
    if ens.n > DENSE_LIMIT:
        raise ValueError(
            f"dense Hessian limited to n <= {DENSE_LIMIT} (got n={ens.n})"
        )
    p = ens.rows @ x
    w = 3.0 * p * p - y
    h = ens.rows.T @ (ens.rows * w[:, None]) / ens.m
    return 0.5 * (h + h.T)


def hessian_extremes(ens: SensingEnsemble, y, x) -> tuple[float, float]:
    """(lambda_min, lambda_max) of the dense Hessian at x; refuses n > DENSE_LIMIT."""
    eigs = np.linalg.eigvalsh(hessian(ens, y, x))
    return float(eigs[0]), float(eigs[-1])


def incoherence(ens: SensingEnsemble, delta) -> float:
    """max_i |a_i . delta| over the ensemble rows."""
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (ens.n,):
        raise ValueError(f"delta has shape {delta.shape}, expected ({ens.n},)")
    return float(np.max(np.abs(ens.rows @ delta)))


def check_loc(x, x_star: np.ndarray) -> bool:
    """Locality: dist(x, x_star) <= 2 c1 ||x_star|| (inclusive)."""
    return dist(x, x_star) <= loc_radius(x_star)


def check_inc(x, x_star: np.ndarray, ens: SensingEnsemble) -> tuple[bool, float]:
    """Incoherence of the sign-aligned error; returns (ok, max incoherence)."""
    x = np.asarray(x, dtype=float)
    bound = inc_bound(ens.n, x_star)
    s = align_sign(x, x_star)
    value = incoherence(ens, x - s * x_star)
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


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")
