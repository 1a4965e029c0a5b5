"""Gaussian sensing model: ensembles, observations, ground truth.

The recovery target is identifiable only up to sign.  `align_sign` picks
the sign s nearest a point; `solvers.run` fixes it at the start and
measures every error against s * x_star.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng

_SPHERE_STREAM = rng.label_stream("unit-sphere")


@dataclass(frozen=True)
class SensingEnsemble:
    """m Gaussian sensing rows of length n, regenerable from (seed, m, n)."""

    rows: np.ndarray
    seed: int

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    @property
    def n(self) -> int:
        return self.rows.shape[1]


def sample_ensemble(m: int, n: int, seed: int) -> SensingEnsemble:
    """Draw an m x n standard normal ensemble; row i uses stream (seed, i)."""
    rows = rng.normal_rows(seed, m, n)
    rows.setflags(write=False)
    return SensingEnsemble(rows=rows, seed=seed)


def random_ground_truth(n: int, seed: int) -> np.ndarray:
    """Unit-norm target x_star drawn uniformly from the sphere, read-only."""
    x_star = sample_unit_sphere(n, seed)
    x_star.setflags(write=False)
    return x_star


def unit_sphere(n: int, seed: int, stream: int) -> np.ndarray:
    """Uniform draw from the unit sphere: a normalized Gaussian vector taken
    from the given Philox stream."""
    v = rng.normals(seed, stream, n)
    return v / np.linalg.norm(v)


def sample_unit_sphere(n: int, seed: int) -> np.ndarray:
    """Unit-sphere draw from the ground-truth stream."""
    return unit_sphere(n, seed, _SPHERE_STREAM)


def observe(ens: SensingEnsemble, x_star: np.ndarray) -> np.ndarray:
    """Exact noiseless observations y_i = (a_i . x_star)^2, read-only."""
    proj = ens.rows @ x_star
    y = proj * proj
    y.setflags(write=False)
    return y


def align_sign(x, x_star) -> float:
    """Sign s in {+1, -1} minimizing ||x - s*x_star||, ties to +1."""
    if np.linalg.norm(x - x_star) <= np.linalg.norm(x + x_star):
        return 1.0
    return -1.0
