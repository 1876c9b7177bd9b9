"""Weakly nonlinear sound in variable-cross-section ducts.

Closed-form fields built from a smoothing-kernel representation, a
spectral marching reference, and exact shape-preserving solutions for
the family of duct profiles that admits them.
"""

from .errors import (BlowUpError, BreakdownError, ConfigError, CoverageError,
                     DomainError, HornWaveError, QuadratureError,
                     RangeOverflowError, ResolutionError, SeriesTailError,
                     SingularProfileError, SpacingError,
                     WindowTruncationError)
from .grid import TauGrid
from .invariant import (InvariantConfig, OrbitTable, ShapeTable,
                        assemble_invariant_q, first_integral_solution,
                        integrate_factor_ode, nested_area_integral,
                        similarity_vars)
from .kernel import (InitialCondition, KernelField, kernel_quadrature,
                     kernel_series)
from .profiles import (BetaFamilyProfile, ConstantProfile, ExponentialProfile,
                       PowerLawProfile, Profile, SphericalProfile,
                       TabulatedProfile)
from .rg import (PhysParams, RGSolution, evaluate_station, first_order,
                 perturbative, zero_order)
from .solver import SolverConfig, SolverResult, residual, solve

__version__ = "0.1.0"

__all__ = [
    "BetaFamilyProfile", "BlowUpError", "BreakdownError", "ConfigError",
    "ConstantProfile", "CoverageError", "DomainError", "ExponentialProfile",
    "HornWaveError", "InitialCondition", "InvariantConfig", "KernelField",
    "OrbitTable", "PhysParams", "PowerLawProfile", "Profile",
    "QuadratureError", "RGSolution", "RangeOverflowError", "ResolutionError",
    "SeriesTailError", "ShapeTable", "SingularProfileError", "SolverConfig",
    "SolverResult", "SpacingError", "SphericalProfile", "TabulatedProfile",
    "TauGrid", "WindowTruncationError", "assemble_invariant_q",
    "evaluate_station", "first_integral_solution", "first_order",
    "integrate_factor_ode", "kernel_quadrature", "kernel_series",
    "nested_area_integral", "perturbative", "residual",
    "similarity_vars", "solve", "zero_order", "__version__",
]
