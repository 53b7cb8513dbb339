"""Higher-order trace derivatives of Schatten norms via operator integrals.

The package computes Taylor coefficients of t -> ||H + tV||_p^p for
Hermitian matrices, built from three layers: scalar function models and
divided differences, multiple operator integrals on eigenvalue grids,
and seeded experiment drivers with reproducible reports.
"""

from .divided import DividedDifference, divided_difference
from .errors import (
    EigenSolverError,
    QuadratureError,
    UnsupportedConfigError,
    ValidationError,
)
from .experiments import (
    DEFAULT_N_GRID,
    DEFAULT_TOLERANCES,
    MODES,
    CheckSet,
    ExperimentConfig,
    RunReport,
    run,
    run_derivative,
    run_holder_scan,
    run_moi_convergence,
    run_perturbation_check,
    run_selftest,
    run_taylor_scan,
    thread_count,
)
from .forms import (
    DEFAULT_T_GRID,
    FrechetForm,
    TaylorReport,
    delta_symmetric,
    embedded_delta,
    fd_oracle,
    holder_difference_norms,
    model_delta_bracket,
    selfadjoint_embed,
    taylor_expand,
    taylor_integral_form,
    trace_identity_residual,
)
from .functions import (
    CallableKernel,
    Monomial,
    Polynomial,
    PowerAbs,
    PowerKernel,
    ScalarFunctionModel,
    as_kernel,
)
from .instances import PROFILES, SplitMix64, generate_instance
from .moi import (
    MoiRequest,
    SeparableSymbol,
    algebraic_shift,
    binned_eigenvalues,
    moi_binned,
    moi_exact,
    moi_separable,
    perturbation_identity,
)
from .momenta import MomentumSpec, momentum_eval, momentum_perturbation_pair
from .spectral import (
    HermitianMatrix,
    SchattenExponent,
    SpectralDecomposition,
    apply_scalar_function,
    eigendecompose,
    schatten_norm,
)
from .util import canonical_json, fit_loglog_slope, frobenius, operator_norm, real_trace

__all__ = [
    "CallableKernel",
    "CheckSet",
    "DEFAULT_N_GRID",
    "DEFAULT_T_GRID",
    "DEFAULT_TOLERANCES",
    "DividedDifference",
    "EigenSolverError",
    "ExperimentConfig",
    "FrechetForm",
    "HermitianMatrix",
    "MODES",
    "MoiRequest",
    "Monomial",
    "MomentumSpec",
    "PROFILES",
    "Polynomial",
    "PowerAbs",
    "PowerKernel",
    "QuadratureError",
    "RunReport",
    "ScalarFunctionModel",
    "SchattenExponent",
    "SeparableSymbol",
    "SpectralDecomposition",
    "SplitMix64",
    "TaylorReport",
    "UnsupportedConfigError",
    "ValidationError",
    "algebraic_shift",
    "apply_scalar_function",
    "as_kernel",
    "binned_eigenvalues",
    "canonical_json",
    "delta_symmetric",
    "divided_difference",
    "eigendecompose",
    "embedded_delta",
    "fd_oracle",
    "fit_loglog_slope",
    "frobenius",
    "generate_instance",
    "holder_difference_norms",
    "model_delta_bracket",
    "moi_binned",
    "moi_exact",
    "moi_separable",
    "momentum_eval",
    "momentum_perturbation_pair",
    "operator_norm",
    "perturbation_identity",
    "real_trace",
    "run",
    "run_derivative",
    "run_holder_scan",
    "run_moi_convergence",
    "run_perturbation_check",
    "run_selftest",
    "run_taylor_scan",
    "schatten_norm",
    "selfadjoint_embed",
    "taylor_expand",
    "taylor_integral_form",
    "thread_count",
    "trace_identity_residual",
]

__version__ = "0.1.0"
