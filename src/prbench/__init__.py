"""Phase retrieval solvers with momentum, plus implicit-regularization
diagnostics and a reproducible experiment harness."""
