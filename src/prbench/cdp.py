"""Coded diffraction patterns: masked unitary-DFT measurements and
Wirtinger flow with momentum.

The measurement operator stacks L blocks, block l being the unitary DFT of
the signal modulated by random mask d_l, observed as squared magnitudes.
Signals are stored as vectors; two-dimensional images use the row-major
vectorization and a 2-D FFT.  Recovery error is measured up to a global
phase, which the observations cannot see.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .solvers import Method, Status, default_params, momentum_step, override_params
from .spectral import SpectralReport, leading_eigenpair

_INIT_STREAM = rng.label_stream("cdp-power")

# module-level FFT call counter; per-iteration parity across methods is a
# contract the tests measure rather than assume
_fft_calls = 0


def fft_call_count() -> int:
    return _fft_calls


@dataclass(frozen=True)
class CdpMasks:
    """L octanary modulation masks over a signal of the given shape."""

    masks: np.ndarray
    shape: tuple[int, ...]
    seed: int

    @property
    def L(self) -> int:
        return self.masks.shape[0]

    @property
    def n(self) -> int:
        return self.masks.shape[1]


def sample_masks(shape, L: int, seed: int) -> CdpMasks:
    """Draw L octanary masks d = b1 * b2: b1 uniform on {1, -1, i, -i},
    b2 = sqrt(2)/2 with probability 4/5 and sqrt(3) with probability 1/5."""
    shape = tuple(int(s) for s in np.atleast_1d(shape))
    n = int(np.prod(shape))
    if L < 1 or n < 1:
        raise ValueError("need at least one mask and one signal entry")
    quarter_turns = np.array([1.0, 1.0j, -1.0, -1.0j])
    streams = [rng.label_stream(f"cdp-mask-{ell}") for ell in range(L)]
    u = rng._stream_uniforms(seed, streams, 2 * n)
    b1 = quarter_turns[np.floor(4.0 * u[:, :n]).astype(int)]
    b2 = np.where(u[:, n:] < 0.8, math.sqrt(2.0) / 2.0, math.sqrt(3.0))
    masks = b1 * b2
    masks.setflags(write=False)
    return CdpMasks(masks=masks, shape=shape, seed=seed)


def _forward(z: np.ndarray, masks: CdpMasks) -> np.ndarray:
    """The L blocks DFT(d_l * z) as an (L, n) array, from one batched
    transform over the stacked (L, *shape) blocks; L FFTs counted."""
    global _fft_calls
    _fft_calls += masks.L
    blocks = (masks.masks * z).reshape((masks.L,) + masks.shape)
    out = np.fft.fftn(blocks, axes=tuple(range(1, blocks.ndim)), norm="ortho")
    return out.reshape(masks.L, masks.n)


def _adjoint(w: np.ndarray, masks: CdpMasks) -> np.ndarray:
    """sum_l conj(d_l) * IDFT(w_l) over the rows of an (L, n) array, summed in
    mask order, from one batched inverse transform; L FFTs counted."""
    global _fft_calls
    _fft_calls += masks.L
    blocks = w.reshape((masks.L,) + masks.shape)
    blocks = np.fft.ifftn(blocks, axes=tuple(range(1, blocks.ndim)), norm="ortho")
    return (np.conj(masks.masks) * blocks.reshape(masks.L, masks.n)).sum(axis=0)


def cdp_observe(z, masks: CdpMasks) -> np.ndarray:
    """Squared magnitudes |DFT(d_l * z)|^2 stacked into a length L*n vector."""
    z = np.asarray(z, dtype=complex).ravel()
    if z.shape[0] != masks.n:
        raise ValueError(f"signal has length {z.shape[0]}, expected {masks.n}")
    return (np.abs(_forward(z, masks)) ** 2).ravel()


def cdp_gradient(z, y, masks: CdpMasks) -> np.ndarray:
    """(1/m) A^H((|Az|^2 - y) * Az) with m = L*n, via 2L FFTs."""
    z = np.asarray(z, dtype=complex).ravel()
    y = np.asarray(y, dtype=float)
    n, L = masks.n, masks.L
    if z.shape[0] != n:
        raise ValueError(f"signal has length {z.shape[0]}, expected {n}")
    if y.shape != (L * n,):
        raise ValueError(f"observations have shape {y.shape}, expected ({L * n},)")
    w = _forward(z, masks)
    return _adjoint((np.abs(w) ** 2 - y.reshape(L, n)) * w, masks) / (L * n)


def cdp_spectral_init(masks: CdpMasks, y) -> SpectralReport:
    """Leading eigenpair of z -> (1/m) A^H(y * Az), reported with the
    initial point in `x0`.

    The eigenvector is phase-fixed for determinism and scaled to the
    energy-conservation norm estimate sqrt(sum(y) / L).  The eigenvalue is
    reported because sqrt(lambda1 / 3) is the signal norm measured in the
    operator's own scale, which is what step sizes must be matched to.
    The tolerance is loose: this operator's spectral gap is small,
    and the statistical error of the initializer dominates long before the
    eigenpair is resolved to high precision.
    """
    y = np.asarray(y, dtype=float)
    n, L = masks.n, masks.L

    def matvec(v):
        return _adjoint(y.reshape(L, n) * _forward(v, masks), masks) / (L * n)

    raw = rng.normals(masks.seed, _INIT_STREAM, 2 * n)
    v0 = raw[:n] + 1j * raw[n:]
    report = leading_eigenpair(matvec, v0, tol=1e-3, max_iters=500)
    v = report.x0
    pivot = int(np.argmax(np.abs(v)))
    v = v * np.exp(-1j * np.angle(v[pivot]))
    return replace(report, x0=math.sqrt(float(np.sum(y)) / L) * v)


def phase_aligned_rel_err(z, z_star) -> float:
    """min over phases of ||e^{i theta} z - z_star|| / ||z_star||."""
    z = np.asarray(z, dtype=complex).ravel()
    z_star = np.asarray(z_star, dtype=complex).ravel()
    ref = np.linalg.norm(z_star)
    if ref == 0:
        return float(np.linalg.norm(z))
    inner = np.vdot(z, z_star)
    # rotate by the maximizer of Re(e^{i theta} <z_star, z>) and measure
    # directly; the expanded quadratic form cancels catastrophically when
    # the vectors already agree
    phase = inner / abs(inner) if inner != 0 else 1.0
    return float(np.linalg.norm(phase * z - z_star)) / float(ref)


@dataclass(frozen=True)
class CdpTrace:
    method: Method
    rel_err: np.ndarray
    status: Status
    fft_calls_per_iter: tuple[int, ...]
    recovered: np.ndarray


def cdp_run(
    image,
    L: int,
    method: Method,
    iters: int,
    seed: int,
    eta: float | None = None,
    beta: float | None = None,
) -> CdpTrace:
    """Recover an image from coded diffraction observations.

    Spectral init, then `iters` steps of the chosen method; the trace
    records the phase-aligned relative error at every iterate, the init
    included.  Step and momentum default to the shared schedules with n
    equal to the pixel count and the norm measured in the operator's
    scale, sqrt(lambda1 / 3); the unitary-DFT rows have unit norm, so the
    physical signal norm would misstate the curvature by a factor of n.
    The `eta` and `beta` overrides follow `solvers.override_params`.
    """
    image = np.asarray(image, dtype=float)
    n = image.size
    if n > 1 << 16:
        raise ValueError(f"desk-scale limit is 2^16 pixels, got {n}")
    method = Method(method)
    z_star = image.astype(complex).ravel()
    masks = sample_masks(image.shape, L, seed)
    y = cdp_observe(z_star, masks)
    init = cdp_spectral_init(masks, y)
    z0 = init.x0

    params = override_params(
        default_params(n, math.sqrt(init.lambda1 / 3.0), method), eta, beta,
        max_iters=iters,
    )
    grad_fn = lambda z: cdp_gradient(z, y, masks)

    rel_err = [phase_aligned_rel_err(z0, z_star)]
    fft_per_iter = []
    z_prev = z0
    z_curr = z0
    status = Status.MAX_ITERS
    # overflow is the expected signal of divergence, caught by the check below
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(iters):
            before = fft_call_count()
            z_new = momentum_step(method, z_curr, z_prev, grad_fn, params.eta, params.beta)
            fft_per_iter.append(fft_call_count() - before)
            if not np.all(np.isfinite(z_new)):
                status = Status.DIVERGED
                break
            z_prev, z_curr = z_curr, z_new
            rel_err.append(phase_aligned_rel_err(z_curr, z_star))
    recovered = z_curr.reshape(image.shape)
    return CdpTrace(
        method=method,
        rel_err=np.asarray(rel_err),
        status=status,
        fft_calls_per_iter=tuple(fft_per_iter),
        recovered=recovered,
    )


def synthetic_image(height: int = 64, width: int = 64) -> np.ndarray:
    """Deterministic grayscale test image: smooth ramps plus shapes."""
    yy, xx = np.mgrid[0:height, 0:width].astype(float)
    yy /= max(height - 1, 1)
    xx /= max(width - 1, 1)
    img = 0.25 + 0.35 * xx + 0.15 * np.sin(2.0 * np.pi * yy)
    disk = (yy - 0.35) ** 2 + (xx - 0.3) ** 2 < 0.04
    img[disk] = 0.95
    box = (np.abs(yy - 0.7) < 0.12) & (np.abs(xx - 0.7) < 0.18)
    img[box] = 0.05
    return np.clip(img, 0.0, 1.0)
