"""Phase retrieval solvers with momentum, plus implicit-regularization
diagnostics and a reproducible experiment harness."""

from .diagnostics import (
    ConcentrationReport,
    LooBundle,
    concentration_report,
    loo_run,
    quadratic_oracle,
)
from .model import (
    GroundTruth,
    Observations,
    SensingEnsemble,
    dist,
    ground_truth,
    observe,
    random_ground_truth,
    sample_ensemble,
    sample_unit_sphere,
)
from .objective import cost, gradient, hessian, hessian_extremes
from .ric import (
    check_inc,
    check_loc,
    contraction_matrix_hb,
    contraction_matrix_nag,
)
from .solvers import (
    IterationTrace,
    Method,
    SolverParams,
    Status,
    default_params,
    run,
    theory_params,
)
from .spectral import SpectralReport, leading_eigenpair, random_init, spectral_init

__all__ = [
    "ConcentrationReport",
    "GroundTruth",
    "IterationTrace",
    "LooBundle",
    "Method",
    "Observations",
    "SensingEnsemble",
    "SolverParams",
    "SpectralReport",
    "Status",
    "check_inc",
    "check_loc",
    "concentration_report",
    "contraction_matrix_hb",
    "contraction_matrix_nag",
    "cost",
    "default_params",
    "dist",
    "gradient",
    "ground_truth",
    "hessian",
    "hessian_extremes",
    "leading_eigenpair",
    "loo_run",
    "observe",
    "quadratic_oracle",
    "random_ground_truth",
    "random_init",
    "run",
    "sample_ensemble",
    "sample_unit_sphere",
    "spectral_init",
    "theory_params",
]
