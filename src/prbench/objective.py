"""The gradient kernel the solvers and the bench share.

For the quartic least-squares cost (1/4m) sum_i ((a_i.x)^2 - y_i)^2 over
the rows a_i, the gradient is (1/m) sum_i ((a_i.x)^2 - y_i) (a_i.x) a_i;
`m_norm` is the 1/m normalization, which a leave-one-out sequence keeps
at the full m while it drops one row.
"""

from __future__ import annotations

import numpy as np


def gradient_kernel(rows, y, x, m_norm: int) -> np.ndarray:
    """`rows.T @ ((p * p - y) * p) / m_norm` with `p = rows @ x`, bit for bit.

    `ndarray.dot` makes the same BLAS gemv call as `@` without matmul's
    ufunc dispatch, and the elementwise steps run in place: the same
    operations on the same operands, with fewer temporaries.
    """
    p = rows.dot(x)
    w = p * p
    w -= y
    w *= p
    g = rows.T.dot(w)
    g /= m_norm
    return g
