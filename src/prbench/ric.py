"""Region constants and bounds of the region of incoherence and contraction.

A point is in the region when it is both close to the target (locality:
within `loc_radius`) and its error is not aligned with any single sensing
row (incoherence: within `inc_bound`).  `loo_threshold` bounds how far a
leave-one-out sequence may stray from the main iterates.
"""

from __future__ import annotations

import math

import numpy as np

# region constants of the analysis: locality radius 2 c1 ||x*||, incoherence
# bound c2 sqrt(log n) ||x*||, leave-one-out threshold c3 sqrt(log n / n)
C1, C2, C3 = 0.3, 5.0, 5.0


def loc_radius(x_star: np.ndarray) -> float:
    return 2.0 * C1 * float(np.linalg.norm(x_star))


def inc_bound(n: int, x_star: np.ndarray) -> float:
    return C2 * math.sqrt(math.log(n)) * float(np.linalg.norm(x_star))


def loo_threshold(n: int) -> float:
    return C3 * math.sqrt(math.log(n) / n)
