"""Centered finite differences on equidistributed grids.

Solves the boundary-layer model problem -u'' + lam^2 u = 0 with
Dirichlet data on non-uniform grids generated by the equidistribution
principle, and provides the analysis tools that show how the node
distribution controls the scheme's convergence order (second order in
general, fourth order for the (u_x)^{1/4} monitor).
"""

from .adapt import AdaptiveConfig, AdaptiveResult, adaptive_solve, adaptive_solve_many
from .analysis import (
    ConvergenceReport,
    consistency_error,
    convergence_order,
    fourth_order_residual,
    max_error,
    refinement_ladder,
)
from .equidist import (
    EquidistResult,
    EquidistributionError,
    MonotonicityError,
    equidist_defect,
    equidistribute,
)
from .grid import Grid, GridMapping, analytic_mapped_grid, uniform_grid
from .monitor import (
    ConstantMonitor,
    DiscreteGradientMonitor,
    ExactPowerMonitor,
    MonitorFunction,
    ScaledMonitor,
)
from .problem import ProblemSpec, exact_derivative, exact_solution
from .solver import (
    DiscreteSolution,
    assemble_dirichlet,
    assemble_scheme,
    scheme_residual,
    solve_bvp,
    solve_dirichlet,
)
from .tridiag import PivotError, TridiagonalSystem, solve_tridiagonal

__version__ = "0.1.0"

__all__ = [
    "AdaptiveConfig",
    "AdaptiveResult",
    "ConstantMonitor",
    "ConvergenceReport",
    "DiscreteGradientMonitor",
    "DiscreteSolution",
    "EquidistResult",
    "EquidistributionError",
    "ExactPowerMonitor",
    "Grid",
    "GridMapping",
    "MonitorFunction",
    "MonotonicityError",
    "PivotError",
    "ProblemSpec",
    "ScaledMonitor",
    "TridiagonalSystem",
    "adaptive_solve",
    "adaptive_solve_many",
    "analytic_mapped_grid",
    "assemble_dirichlet",
    "assemble_scheme",
    "consistency_error",
    "convergence_order",
    "equidist_defect",
    "equidistribute",
    "exact_derivative",
    "exact_solution",
    "fourth_order_residual",
    "max_error",
    "refinement_ladder",
    "scheme_residual",
    "solve_bvp",
    "solve_dirichlet",
    "solve_tridiagonal",
    "uniform_grid",
]
