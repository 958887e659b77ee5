"""Centered finite-difference scheme for the layer problem on any grid.

Interior rows discretize -u'' + lam^2 u = 0 as

    -[ (u_{j+1} - u_j)/h_{j+1/2} - (u_j - u_{j-1})/h_{j-1/2} ] / h_j
        + lam^2 u_j = 0,

with the Dirichlet values eliminated into the right-hand side.  On a
uniform grid this reduces to the standard three-point stencil.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .problem import ProblemSpec, exact_solution
from .tridiag import TridiagonalSystem, solve_tridiagonal


@dataclass(frozen=True)
class DiscreteSolution:
    """Grid, nodal values, and the problem they solve."""

    grid: Grid
    values: np.ndarray
    spec: ProblemSpec

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.nodes.shape:
            raise ValueError("values must have one entry per grid node")
        object.__setattr__(self, "values", values)

    def write_csv(self, path) -> None:
        """CSV columns x, u, u_exact, abs_error."""
        from .io import write_csv

        exact = exact_solution(self.spec, self.grid.nodes)
        write_csv(
            path,
            ["x", "u", "u_exact", "abs_error"],
            [self.grid.nodes, self.values, exact, np.abs(self.values - exact)],
        )


def assemble_dirichlet(grid: Grid, lam: float, left_value: float, right_value: float) -> TridiagonalSystem:
    """Scheme for -u'' + lam^2 u = 0 with arbitrary Dirichlet data.

    lam = 0 is allowed here (pure second-difference operator, exact for
    affine functions); the ProblemSpec-facing wrappers require lam > 0.
    """
    h = grid.steps
    hj = 0.5 * (h[:-1] + h[1:])
    lower = -1.0 / (hj * h[:-1])
    upper = -1.0 / (hj * h[1:])
    diag = -(lower + upper) + lam**2
    rhs = np.zeros(grid.n_cells - 1)
    rhs[0] -= lower[0] * left_value
    rhs[-1] -= upper[-1] * right_value
    return TridiagonalSystem(lower=lower[1:], diag=diag, upper=upper[:-1], rhs=rhs)


def solve_dirichlet(grid: Grid, lam: float, left_value: float, right_value: float) -> np.ndarray:
    """Nodal values (boundary rows included) for arbitrary Dirichlet data."""
    interior = solve_tridiagonal(assemble_dirichlet(grid, lam, left_value, right_value))
    u = np.empty(grid.n_cells + 1)
    u[0] = left_value
    u[-1] = right_value
    u[1:-1] = interior
    return u


def scheme_residual(grid: Grid, values: np.ndarray, lam: float) -> np.ndarray:
    """Scheme applied to given nodal values, at interior nodes.

    With the exact solution inserted this is the consistency error.
    """
    values = np.asarray(values, dtype=float)
    flux = np.diff(values) / grid.steps
    return -np.diff(flux) / grid.node_steps + lam**2 * values[1:-1]


def assemble_scheme(grid: Grid, spec: ProblemSpec) -> TridiagonalSystem:
    """Tridiagonal system for the layer problem on the given grid."""
    return assemble_dirichlet(grid, spec.lam, spec.left_bc, spec.right_bc)


def solve_bvp(grid: Grid, spec: ProblemSpec) -> DiscreteSolution:
    """Solve the layer problem; boundary values imposed exactly."""
    u = solve_dirichlet(grid, spec.lam, spec.left_bc, spec.right_bc)
    return DiscreteSolution(grid, u, spec)
