"""Spectral theory of the Dirichlet deformation operator pi*(1 + (hbar/c)^2 d^2/dv^2)
on [-v_c, v_c]: closed-form spectrum, sine-basis transform, an independent
finite-difference eigensolver, and experiment drivers with serializable reports.
"""

from .errors import (
    ConditioningWarning,
    DeformSpecError,
    DomainError,
    FormatError,
    NumericalError,
    ResolutionError,
    ValidationError,
)
from .experiments import (
    DEFAULT_TOLERANCES,
    DecayModel,
    ExperimentReport,
    FDSpectrumReport,
    asymptotics_report,
    constant_coefficient_report,
    convergence_study,
    inverse_limit_report,
    refinement_study,
    rigidity_report,
)
from .fdsolver import (
    TridiagonalSymmetricMatrix,
    discretize,
    eigenvalues_tridiagonal,
    eigenvector_inverse_iteration,
    interior_grid,
    top_eigenvalues,
)
from .params import (
    CRITICAL_VELOCITY_RATIO,
    OperatorParams,
    canonical_params,
    custom_params,
    deformation_profile,
    si_params,
)
from .quadrature import (
    QuadratureRule,
    composite_simpson_rule,
    default_projection_rule,
    fd_derivative,
    gauss_legendre_rule,
    uniform_grid,
)
from .spectrum import (
    CriticalIndexReport,
    asymptotic_coefficient,
    asymptotic_eigenvalue,
    count_interior_zeros,
    critical_index,
    eigenfunction,
    eigenvalue,
    wavenumber,
)
from .transform import (
    CoefficientVector,
    evaluate,
    gram_matrix,
    l2_norm,
    parseval_defect,
    project,
)

__version__ = "0.1.0"

__all__ = [
    "CRITICAL_VELOCITY_RATIO",
    "CoefficientVector",
    "ConditioningWarning",
    "CriticalIndexReport",
    "DEFAULT_TOLERANCES",
    "DecayModel",
    "DeformSpecError",
    "DomainError",
    "ExperimentReport",
    "FDSpectrumReport",
    "FormatError",
    "NumericalError",
    "OperatorParams",
    "QuadratureRule",
    "ResolutionError",
    "TridiagonalSymmetricMatrix",
    "ValidationError",
    "asymptotic_coefficient",
    "asymptotic_eigenvalue",
    "asymptotics_report",
    "canonical_params",
    "composite_simpson_rule",
    "constant_coefficient_report",
    "convergence_study",
    "count_interior_zeros",
    "critical_index",
    "custom_params",
    "default_projection_rule",
    "deformation_profile",
    "discretize",
    "eigenfunction",
    "eigenvalue",
    "eigenvalues_tridiagonal",
    "eigenvector_inverse_iteration",
    "evaluate",
    "fd_derivative",
    "gauss_legendre_rule",
    "gram_matrix",
    "interior_grid",
    "inverse_limit_report",
    "l2_norm",
    "parseval_defect",
    "project",
    "refinement_study",
    "rigidity_report",
    "si_params",
    "top_eigenvalues",
    "uniform_grid",
    "wavenumber",
]
