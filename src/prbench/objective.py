"""Quartic least-squares cost for phase retrieval, with derivatives.

cost(x)     = (1/4m) sum_i ((a_i.x)^2 - y_i)^2
gradient(x) = (1/m)  sum_i ((a_i.x)^2 - y_i) (a_i.x) a_i
hessian(x)  = (1/m)  sum_i (3 (a_i.x)^2 - y_i) a_i a_i^T
"""

from __future__ import annotations

import numpy as np

from .model import SensingEnsemble

# beyond this dimension the dense Hessian is refused
DENSE_LIMIT = 512


def _check_inputs(ens: SensingEnsemble, y, x):
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape != (ens.m,):
        raise ValueError(f"observations have shape {y.shape}, expected ({ens.m},)")
    if x.shape != (ens.n,):
        raise ValueError(f"point has shape {x.shape}, expected ({ens.n},)")
    return y, x


def gradient_kernel(rows, y, x, m_norm: int) -> np.ndarray:
    p = rows @ x
    return rows.T @ ((p * p - y) * p) / m_norm


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
