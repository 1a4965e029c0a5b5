"""The gradient kernel the solvers and the bench share, and the row
projection `rows @ x` they make once or twice per iteration.

For the quartic least-squares cost (1/4m) sum_i ((a_i.x)^2 - y_i)^2 over
the rows a_i, the gradient is (1/m) sum_i ((a_i.x)^2 - y_i) (a_i.x) a_i;
`m_norm` is the 1/m normalization, which a leave-one-out sequence keeps
at the full m while it drops one row.
"""

from __future__ import annotations

import ctypes
import os
import threading

import numpy as np

# `project` splits a product over two threads from this many values of
# `rows` on (4 MiB); below it the hand-off costs about what the split saves
SPLIT_MIN_VALUES = 2**19


def _core_to_spare() -> bool:
    """Whether a second thread finds a core of its own: OpenBLAS runs one
    thread and the process may use two cores or more.  At more BLAS threads
    both parts would run OpenBLAS's threaded kernel at once, which made a
    product near the floor up to 3.6 times as slow as one call."""
    try:
        blas = ctypes.CDLL(np._core._multiarray_umath.__file__)
        cores = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return False
    for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads"):
        threads = getattr(blas, name, None)
        if threads is not None:
            return threads() == 1 and cores >= 2
    return False


# read once: OpenBLAS fixes its thread count when numpy loads it
_SPLIT = _core_to_spare()


class _Worker:
    """A daemon thread that computes one part of a product while the caller
    computes the rest.  It holds no array between products."""

    def __init__(self):
        self.task = None  # (rows, x, out) while a product runs
        self.failed = False
        self.waiting = False  # stays True if an interrupt cut the caller's wait
        self.go, self.done = threading.Lock(), threading.Lock()
        self.go.acquire()
        self.done.acquire()
        threading.Thread(target=self._serve, name="prbench-project", daemon=True).start()

    def _serve(self):
        while True:
            self.go.acquire()
            rows, x, out = self.task
            self.task = None
            try:
                rows.dot(x, out=out)
                self.failed = False
            except Exception:
                # the caller computes this part again and meets the error itself
                self.failed = True
            del rows, x, out
            self.done.release()

    def product(self, rows, x, out):
        """`rows.dot(x, out=out)`: the rows before a multiple of 16 near m/2
        on the worker, and the rest on the calling thread."""
        half = len(rows) // 2 & -16
        self.task = rows[:half], x, out[:half]
        self.waiting = True
        self.go.release()
        try:
            rows[half:].dot(x, out=out[half:])
        finally:
            self.done.acquire()
            self.waiting = False
        if self.failed:
            rows[:half].dot(x, out=out[:half])


_worker = None
# one split product at a time; a concurrent caller computes its own serially
_busy = threading.Lock()


def project(rows, x, out=None) -> np.ndarray:
    """`rows.dot(x, out=out)`, bit for bit at one BLAS thread.

    From SPLIT_MIN_VALUES values of `rows` on, when OpenBLAS runs one
    thread and a second core is free, a worker thread computes the rows
    before a multiple of 16 near m/2 while the caller computes the rest.
    At more BLAS threads every product is one call.  Each output is still one dot product over n, and the split keeps
    every row in the BLAS kernel's block it has in the whole product, so
    the bits are those of one call.  numpy's BLAS call releases the GIL, so
    the parts run on two cores.  An error in either part reaches the
    caller as numpy's own, after the worker has finished.
    """
    global _worker
    if not _SPLIT or rows.size < SPLIT_MIN_VALUES or not _busy.acquire(blocking=False):
        return rows.dot(x, out=out)
    try:
        if out is None:
            out = np.empty(len(rows), np.result_type(rows, x))
        # after an interrupted wait the old worker may still be writing and
        # will release `done` late: leave it and start a fresh one
        if _worker is None or _worker.waiting:
            _worker = _Worker()
        _worker.product(rows, x, out)
        return out
    finally:
        _busy.release()


def gradient_kernel(rows, y, x, m_norm: int) -> np.ndarray:
    """`rows.T @ ((p * p - y) * p) / m_norm` with `p = rows @ x`, bit for bit.

    `ndarray.dot` makes the same BLAS gemv call as `@` without matmul's
    ufunc dispatch, `project` splits `p`'s product over two threads with
    the same bits, and the elementwise steps run in place: the same
    operations on the same operands, with fewer temporaries.
    """
    p = project(rows, x)
    w = p * p
    w -= y
    w *= p
    g = rows.T.dot(w)
    g /= m_norm
    return g
