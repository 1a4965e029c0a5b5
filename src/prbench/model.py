"""Gaussian sensing model: ensembles, observations, ground truth, distance.

The recovery target is identifiable only up to sign, so all error
measurements go through :func:`dist`, which minimizes over the two signs.
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


@dataclass(frozen=True)
class GroundTruth:
    x_star: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.norm):
            raise ValueError("ground truth vector must be finite")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.x_star))


def sample_ensemble(m: int, n: int, seed: int) -> SensingEnsemble:
    """Draw an m x n standard normal ensemble; row i uses stream (seed, i)."""
    if m < 1 or n < 1:
        raise ValueError(f"ensemble dimensions must be positive, got m={m}, n={n}")
    rows = rng.normal_rows(seed, m, n)
    rows.setflags(write=False)
    return SensingEnsemble(rows=rows, seed=seed)


def ground_truth(x_star) -> GroundTruth:
    x_star = np.asarray(x_star, dtype=float).copy()
    x_star.setflags(write=False)
    return GroundTruth(x_star=x_star)


def random_ground_truth(n: int, seed: int) -> GroundTruth:
    """Unit-norm target drawn uniformly from the sphere."""
    return ground_truth(sample_unit_sphere(n, seed))


def unit_sphere(n: int, seed: int, stream: int) -> np.ndarray:
    """Uniform draw from the unit sphere: a normalized Gaussian vector taken
    from the given Philox stream."""
    if n < 1:
        raise ValueError("dimension must be positive")
    v = rng.normals(seed, stream, n)
    return v / np.linalg.norm(v)


def sample_unit_sphere(n: int, seed: int) -> np.ndarray:
    """Unit-sphere draw from the ground-truth stream."""
    return unit_sphere(n, seed, _SPHERE_STREAM)


def observe(ens: SensingEnsemble, gt: GroundTruth) -> np.ndarray:
    """Exact noiseless observations y_i = (a_i . x_star)^2, read-only."""
    if ens.n != gt.x_star.shape[0]:
        raise ValueError(
            f"dimension mismatch: ensemble n={ens.n}, ground truth n={gt.x_star.shape[0]}"
        )
    proj = ens.rows @ gt.x_star
    y = proj * proj
    # a square cannot be negative, but it can overflow
    if not np.all(np.isfinite(y)):
        raise ValueError("observations must be finite")
    y.setflags(write=False)
    return y


def dist(x, x_star) -> float:
    """Sign-invariant distance min(||x - x_star||, ||x + x_star||)."""
    x = np.asarray(x, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    if x.shape != x_star.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {x_star.shape}")
    return float(min(np.linalg.norm(x - x_star), np.linalg.norm(x + x_star)))


def align_sign(x, x_star) -> float:
    """Sign s in {+1, -1} minimizing ||x - s*x_star||, ties to +1."""
    x = np.asarray(x, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    if np.linalg.norm(x - x_star) <= np.linalg.norm(x + x_star):
        return 1.0
    return -1.0
