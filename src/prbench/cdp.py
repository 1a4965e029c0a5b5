"""Coded diffraction patterns: masked unitary-DFT measurements and
Wirtinger flow with momentum.

The measurement operator stacks L blocks, block l being the unitary DFT of
the signal modulated by random mask d_l, observed as squared magnitudes.
Signals keep the image's shape; masks and observations stack L blocks of
that shape, and each transform is one FFT over the image axes.  Recovery
error is measured up to a global phase, which the observations cannot see.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .solvers import Method, Status, default_params, momentum_step, override_params
from .spectral import SpectralReport, leading_eigenpair

_INIT_STREAM = rng.label_stream("cdp-power")

# desk-scale limit on the image's pixel count
MAX_PIXELS = 1 << 16

# module-level FFT call counter; per-iteration parity across methods is a
# contract the tests measure rather than assume
_fft_calls = 0


def fft_call_count() -> int:
    return _fft_calls


def sample_masks(shape, L: int, seed: int) -> np.ndarray:
    """Draw L octanary masks d = b1 * b2 as a read-only (L, *shape) array:
    b1 uniform on {1, -1, i, -i}, b2 = sqrt(2)/2 with probability 4/5 and
    sqrt(3) with probability 1/5."""
    n = math.prod(shape)
    quarter_turns = np.array([1.0, 1.0j, -1.0, -1.0j])
    streams = [rng.label_stream(f"cdp-mask-{ell}") for ell in range(L)]
    u = rng._stream_uniforms(seed, streams, 2 * n)
    b1 = quarter_turns[np.floor(4.0 * u[:, :n]).astype(int)]
    b2 = np.where(u[:, n:] < 0.8, math.sqrt(2.0) / 2.0, math.sqrt(3.0))
    masks = (b1 * b2).reshape((L,) + shape)
    masks.setflags(write=False)
    return masks


def _forward(z: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """The L blocks DFT(d_l * z), stacked like the masks, from one batched
    transform; L FFTs counted."""
    global _fft_calls
    _fft_calls += len(masks)
    return np.fft.fftn(masks * z, axes=tuple(range(1, masks.ndim)), norm="ortho")


def _adjoint(w: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """sum_l conj(d_l) * IDFT(w_l) over the blocks of w, summed in mask
    order, from one batched inverse transform; L FFTs counted."""
    global _fft_calls
    _fft_calls += len(masks)
    blocks = np.fft.ifftn(w, axes=tuple(range(1, masks.ndim)), norm="ortho")
    return (np.conj(masks) * blocks).sum(axis=0)


def cdp_observe(z, masks: np.ndarray) -> np.ndarray:
    """Squared magnitudes |DFT(d_l * z)|^2, stacked like the masks."""
    return np.abs(_forward(z, masks)) ** 2


def cdp_gradient(z, y, masks: np.ndarray) -> np.ndarray:
    """(1/m) A^H((|Az|^2 - y) * Az) with m = L*n, via 2L FFTs."""
    w = _forward(z, masks)
    return _adjoint((np.abs(w) ** 2 - y) * w, masks) / y.size


def cdp_spectral_init(masks: np.ndarray, y, seed: int) -> SpectralReport:
    """Leading eigenpair of z -> (1/m) A^H(y * Az), reported with the
    initial point in `x0`; power iteration starts from a draw on `seed`.

    The eigenvector is phase-fixed for determinism and scaled to the
    energy-conservation norm estimate sqrt(sum(y) / L).  The eigenvalue is
    reported because sqrt(lambda1 / 3) is the signal norm measured in the
    operator's own scale, which is what step sizes must be matched to.
    The tolerance is loose: this operator's spectral gap is small,
    and the statistical error of the initializer dominates long before the
    eigenpair is resolved to high precision.
    """
    n = masks[0].size

    def matvec(v):
        return _adjoint(y * _forward(v, masks), masks) / y.size

    raw = rng.normals(seed, _INIT_STREAM, 2 * n)
    v0 = (raw[:n] + 1j * raw[n:]).reshape(masks.shape[1:])
    report = leading_eigenpair(matvec, v0, tol=1e-3, max_iters=500)
    v = report.x0
    pivot = int(np.argmax(np.abs(v)))
    v = v * np.exp(-1j * np.angle(v.flat[pivot]))
    return replace(report, x0=math.sqrt(float(np.sum(y)) / len(masks)) * v)


def phase_aligned_rel_err(z, z_star) -> float:
    """min over phases of ||e^{i theta} z - z_star|| / ||z_star||."""
    ref = np.linalg.norm(z_star)
    inner = np.vdot(z, z_star)
    # rotate by the maximizer of Re(e^{i theta} <z_star, z>) and measure
    # directly; the expanded quadratic form cancels catastrophically when
    # the vectors already agree
    phase = inner / abs(inner) if inner != 0 else 1.0
    return float(np.linalg.norm(phase * z - z_star)) / float(ref)


@dataclass(frozen=True)
class CdpProblem:
    """One drawn CDP instance: the image, its masks and observations, and
    the spectral start every method runs from."""

    z_star: np.ndarray
    masks: np.ndarray
    y: np.ndarray
    init: SpectralReport


def cdp_problem(image, L: int, seed: int) -> CdpProblem:
    """Draw the masks, observe the image through them, and compute the
    spectral start, once per seed."""
    image = np.asarray(image, dtype=float)
    if image.size > MAX_PIXELS:
        raise ValueError(f"desk-scale limit is 2^16 pixels, got {image.size}")
    z_star = image.astype(complex)
    masks = sample_masks(image.shape, L, seed)
    y = cdp_observe(z_star, masks)
    return CdpProblem(z_star, masks, y, cdp_spectral_init(masks, y, seed))


@dataclass(frozen=True)
class CdpTrace:
    method: Method
    rel_err: np.ndarray
    status: Status
    fft_calls_per_iter: tuple[int, ...]
    recovered: np.ndarray


def cdp_run(
    problem: CdpProblem,
    method: Method,
    iters: int,
    eta: float | None = None,
    beta: float | None = None,
) -> CdpTrace:
    """Recover an image from coded diffraction observations.

    From the spectral start, `iters` steps of the chosen method; the trace
    records the phase-aligned relative error at every iterate, the init
    included.  Step and momentum default to the shared schedules with n
    equal to the pixel count and the norm measured in the operator's
    scale, sqrt(lambda1 / 3); the unitary-DFT rows have unit norm, so the
    physical signal norm would misstate the curvature by a factor of n.
    The `eta` and `beta` overrides follow `solvers.override_params`.
    """
    method = Method(method)
    z_star, masks, y, z0 = problem.z_star, problem.masks, problem.y, problem.init.x0
    params = override_params(
        default_params(z_star.size, math.sqrt(problem.init.lambda1 / 3.0), method), eta, beta)
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
    return CdpTrace(
        method=method,
        rel_err=np.asarray(rel_err),
        status=status,
        fft_calls_per_iter=tuple(fft_per_iter),
        recovered=z_curr,
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
