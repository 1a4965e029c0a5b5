"""Pins the BLAS thread count and describes the machine a result came from.

Import this module before anything that imports numpy: OpenBLAS reads its
thread count once, when numpy loads it.  One thread keeps the large
headtohead gradient steady and makes the small sweep and loo kernels faster
than two threads do on a two-core machine.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1

for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)


def _openblas_runtime(numpy_dir: str) -> tuple[int | None, str | None]:
    """Thread count and core type reported by the OpenBLAS numpy loaded."""
    libs = glob.glob(os.path.join(numpy_dir, os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return threads(), config().decode()
    return None, None


def describe() -> dict:
    """Core count, BLAS build and runtime, thread count and versions."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, runtime = _openblas_runtime(os.path.dirname(np.__file__))
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": runtime,
        "blas_threads": threads,
        "blas_threads_pinned": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }
