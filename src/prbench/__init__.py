"""Phase retrieval solvers with momentum, plus implicit-regularization
diagnostics and a reproducible experiment harness."""

# importing `objective` sets numpy's OpenBLAS to one thread before the
# package's first BLAS call, so no output depends on OPENBLAS_NUM_THREADS
from . import objective  # noqa: F401
