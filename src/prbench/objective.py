"""The gradient kernel the solvers and the bench share, and the two
products it makes: the row projection `rows @ x` and the transposed
product `rows.T @ w`.

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
# `project_t` splits from this many values on (16 MiB): its halves gain
# less than `project`'s, and below it the split was slower inside `run`
SPLIT_T_MIN_VALUES = 2**21

try:
    # numpy's own OpenBLAS, which numpy has already loaded
    _BLAS = ctypes.CDLL(np._core._multiarray_umath.__file__)
except (AttributeError, OSError):
    _BLAS = None


def _pin_one_thread() -> bool:
    """Set numpy's OpenBLAS to one thread for the whole process, so that no
    product's bits depend on OPENBLAS_NUM_THREADS; whether it took.  A BLAS
    without the setter is left as it is, and then no product splits."""
    for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                 "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
        get, pin = (getattr(_BLAS, name.format(verb), None) for verb in ("get", "set"))
        if get is not None and pin is not None:
            pin(1)
            return get() == 1
    return False


# pinned at import, before the package's first BLAS call.  A split needs one
# BLAS thread: with more, both parts ran OpenBLAS's threaded kernel at once,
# up to 3.6 times as slow as one call.  And it needs a second usable core.
try:
    _SPLIT = _pin_one_thread() and len(os.sched_getaffinity(0)) >= 2
except (AttributeError, OSError):  # no affinity call: the pin is made, no split
    _SPLIT = False


def _numpy_dgemv():
    """numpy's own ILP64 `cblas_dgemv`, or None in a numpy built without it.
    A `ctypes.CDLL` call releases the GIL, so two calls run at once."""
    dgemv = getattr(_BLAS, "scipy_cblas_dgemv64_", None)
    if dgemv is not None:
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        dgemv.restype = None
        dgemv.argtypes = (ctypes.c_int, ctypes.c_int, i64, i64, ctypes.c_double, ptr, i64,
                          ptr, i64, ctypes.c_double, ptr, i64)
    return dgemv


# CBLAS's enum values
_COL_MAJOR, _NO_TRANS = 102, 111


def _dot(rows, x, out):
    rows.dot(x, out=out)


class _Worker:
    """A daemon thread that runs one part of a product while the caller
    runs the rest.  It holds no array between products."""

    def __init__(self):
        self.task = None  # (function, arguments) while a product runs
        self.failed = False
        self.waiting = False  # stays True if an interrupt cut the caller's wait
        self.dgemv = _numpy_dgemv()
        self.go, self.done = threading.Lock(), threading.Lock()
        self.go.acquire()
        self.done.acquire()
        threading.Thread(target=self._serve, name="prbench-project", daemon=True).start()

    def _serve(self):
        while True:
            self.go.acquire()
            part, args = self.task
            self.task = None
            try:
                part(*args)
                self.failed = False
            except Exception:
                # the caller runs this part again and meets the error itself
                self.failed = True
            del part, args
            self.done.release()

    def run(self, part, mine, yours):
        """`part(*mine)` on the worker while the calling thread runs
        `part(*yours)`; returns once both are done."""
        self.task = part, mine
        self.waiting = True
        self.go.release()
        try:
            part(*yours)
        finally:
            self.done.acquire()
            self.waiting = False
        if self.failed:
            part(*mine)

    def columns(self, rows, w, out, c0, c1):
        """`out[c0:c1] = rows[:, c0:c1].T @ w` for a C-contiguous float64
        `rows`, as numpy's own call for `rows.T.dot(w)` computes it."""
        m, n = rows.shape
        self.dgemv(_COL_MAJOR, _NO_TRANS, c1 - c0, m, 1.0, rows.ctypes.data + 8 * c0, n,
                   w.ctypes.data, 1, 0.0, out.ctypes.data + 8 * c0, 1)


_worker = None
# one split product at a time; a concurrent caller computes its own serially
_busy = threading.Lock()


def _free_worker() -> _Worker:
    """The worker, for a caller that holds `_busy`.  After an interrupted
    wait the old worker may still be running and will release `done` late:
    leave it and start a fresh one."""
    global _worker
    if _worker is None or _worker.waiting:
        _worker = _Worker()
    return _worker


def project(rows, x, out=None) -> np.ndarray:
    """`rows.dot(x, out=out)`, bit for bit.

    From SPLIT_MIN_VALUES values of `rows` on, when OpenBLAS runs one
    thread and a second core is usable, a worker thread computes the rows
    before a multiple of 16 near m/2 while the caller computes the rest.
    Each output is still one dot product over n, and the split keeps every
    row in the BLAS kernel's block it has in the whole product, so the
    bits are those of one call.  numpy's BLAS call releases the GIL, so
    the parts run on two cores.  An error in either part reaches the
    caller as numpy's own, after the worker has finished.
    """
    if not _SPLIT or rows.size < SPLIT_MIN_VALUES or not _busy.acquire(blocking=False):
        return rows.dot(x, out=out)
    try:
        if out is None:
            out = np.empty(len(rows), np.result_type(rows, x))
        half = len(rows) // 2 & -16
        _free_worker().run(_dot, (rows[:half], x, out[:half]), (rows[half:], x, out[half:]))
        return out
    finally:
        _busy.release()


def _gemv_fits(rows, w) -> bool:
    """Whether numpy computes `rows.T.dot(w)` as one column-major
    `cblas_dgemv` over the arrays' own buffers, and `rows` has the 16
    columns or more that give both parts of a split some columns: plain,
    aligned, C-contiguous float64 ndarrays, `rows` a matrix of two rows
    or more and `w` a vector of one entry per row.  numpy computes a
    one-row or one-column matrix as a vector, not with `dgemv`."""
    return (type(rows) is np.ndarray and type(w) is np.ndarray
            and rows.ndim == 2 and len(rows) >= 2 and rows.shape[1] >= 16
            and w.shape == rows.shape[:1]
            and rows.dtype == np.float64 and w.dtype == np.float64
            and rows.flags.c_contiguous and w.flags.c_contiguous
            and rows.flags.aligned and w.flags.aligned)


def project_t(rows, w) -> np.ndarray:
    """`rows.T.dot(w)`, bit for bit.

    From SPLIT_T_MIN_VALUES values of `rows` on, under `project`'s rule
    for a spare core, a worker thread computes the columns before a
    multiple of 8 near n/2 while the caller computes the rest.  numpy
    makes the whole product as one column-major `cblas_dgemv` over the
    n columns; each part is that call on its own columns, through the
    same library, and a part that starts on the kernel's 4-column grid
    keeps every output's sums as they are in the whole call.  numpy's
    `matmul` on strided halves holds the GIL, so its halves do not
    overlap; a `ctypes` call releases it.  Only a C-contiguous float64
    `rows` with a C-contiguous float64 `w` of m entries takes that path;
    any other input, or a numpy without that symbol, makes one
    `rows.T.dot(w)`, whose errors are numpy's own.
    """
    if not (_SPLIT and rows.size >= SPLIT_T_MIN_VALUES and _gemv_fits(rows, w)
            and _busy.acquire(blocking=False)):
        return rows.T.dot(w)
    try:
        worker = _free_worker()
        if worker.dgemv is None:
            return rows.T.dot(w)
        n = rows.shape[1]
        out = np.empty(n)
        half = n // 2 & -8
        worker.run(worker.columns, (rows, w, out, 0, half), (rows, w, out, half, n))
        return out
    finally:
        _busy.release()


def gradient_kernel(rows, y, x, m_norm: int) -> np.ndarray:
    """`rows.T @ ((p * p - y) * p) / m_norm` with `p = rows @ x`, bit for bit.

    `ndarray.dot` makes the same BLAS gemv call as `@` without matmul's
    ufunc dispatch, `project` and `project_t` split the two products over
    two threads with the same bits, and the elementwise steps run in
    place: the same operations on the same operands, with fewer
    temporaries.
    """
    p = project(rows, x)
    w = p * p
    w -= y
    w *= p
    g = project_t(rows, w)
    g /= m_norm
    return g
