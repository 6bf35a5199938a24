"""Spectral simulator and inequality-verification lab for linear SPDEs
driven by Hilbert-space-valued Gaussian noise.

Submodules:
  symbols     symbol classes, builtin symbols, multiplier-condition checks
  spectral    periodic grid, FFT multiplier calculus, evolution operators
  covariance  temporal covariance kernels and their integral operators
  gaussian    Q-Gaussian path sampling, RKHS inner products, integrals
  malliavin   cylinder functionals, derivative/Skorohod machinery
  solver      mild-solution assembly with two stochastic-convolution routes
  verify      ratio checkers for the inequalities in scope
  cli         config-driven batch front-end
"""

from .covariance import CovarianceKernel, builtin_kernel
from .errors import (
    AlignmentError,
    HypothesisViolationError,
    KernelValidityError,
    SchemaError,
    SpdelabError,
    SymbolClassError,
    SymbolDomainError,
)
from .gaussian import QSpec, StepFunction, sample_paths, wiener_integral_exact
from .malliavin import (
    CylinderFunctional,
    ElementaryProcess,
    d1p_norm,
    d_phi,
    malliavin_derivative,
    skorohod_elementary,
    skorohod_moment_check,
)
from .reports import MultiplierReport, RatioReport
from .solver import (
    SPDEProblem,
    SolutionEnsemble,
    mode_residual,
    solve,
    stochastic_convolution_modewise,
    stochastic_convolution_pathwise,
)
from .spectral import Field, GridSpec
from .symbols import SymbolSpec, builtin_symbol
from .verify import (
    apriori_estimate_check,
    bessel_equivalence_check,
    g_operator_check,
    kernel_envelope_check,
    lp_inequality_check,
    maximal_inequality_check,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "CovarianceKernel",
    "CylinderFunctional",
    "ElementaryProcess",
    "Field",
    "GridSpec",
    "HypothesisViolationError",
    "KernelValidityError",
    "MultiplierReport",
    "QSpec",
    "RatioReport",
    "SPDEProblem",
    "SchemaError",
    "SolutionEnsemble",
    "SpdelabError",
    "StepFunction",
    "SymbolClassError",
    "SymbolDomainError",
    "SymbolSpec",
    "apriori_estimate_check",
    "bessel_equivalence_check",
    "builtin_kernel",
    "builtin_symbol",
    "d1p_norm",
    "d_phi",
    "g_operator_check",
    "kernel_envelope_check",
    "lp_inequality_check",
    "malliavin_derivative",
    "maximal_inequality_check",
    "mode_residual",
    "sample_paths",
    "skorohod_elementary",
    "skorohod_moment_check",
    "solve",
    "stochastic_convolution_modewise",
    "stochastic_convolution_pathwise",
    "wiener_integral_exact",
]
