"""Centered finite-difference scheme for the layer problem on any grid.

Interior rows discretize -u'' + lam^2 u = 0 as

    -[ (u_{j+1} - u_j)/h_{j+1/2} - (u_j - u_{j-1})/h_{j-1/2} ] / h_j
        + lam^2 u_j = 0,

with the Dirichlet values eliminated into the right-hand side.  On a
uniform grid this reduces to the standard three-point stencil.

solve_dirichlet owns the arrays it assembles the bands into, and the
right-hand side goes into the interior of the nodal vector it returns;
tridiag.solve_in_place overwrites them all, leaving the solution there.
A long solve thus holds 4.5n doubles: three bands, the nodal vector and
the kernel's buffer of n/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .problem import LAM_MAX, ProblemSpec, exact_solution, largest, require
from .tridiag import TridiagonalSystem, solve_in_place
from .tridiag import solve_tridiagonal  # noqa: F401 -- unused; perfbench/tracer.py wraps this name


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


def _assemble(grid: Grid, lam: float, left_value: float, right_value: float):
    """Bands of the scheme, and the nodal vector holding its right-hand side.

    Returns lower, diag, upper (length N-1) and u (length N+1).  lower[0]
    and upper[-1] couple the first and last rows to the boundary nodes:
    their terms are eliminated into the right-hand side, which fills the
    interior of u, and u's ends hold the Dirichlet values.
    """
    require("|lam|", abs(lam), 0.0, high=LAM_MAX)  # so that lam**2 is finite
    for name, value in (("left_value", left_value), ("right_value", right_value)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    h = grid.steps
    with np.errstate(all="ignore"):  # overflow is checked once, below
        hj = h[:-1] + h[1:]
        hj *= 0.5
        lower = hj * h[:-1]
        upper = hj * h[1:]
        del h  # freed before u is allocated
        np.divide(-1.0, lower, out=lower)
        np.divide(-1.0, upper, out=upper)
        diag = np.add(lower, upper, out=hj)
        diag *= -1.0
        diag += lam**2
        left_term = lower[0] * left_value
        right_term = upper[-1] * right_value
    # diag is >= 0 where finite; written so that NaN fails the check too
    if not (largest(diag) < math.inf and math.isfinite(left_term) and math.isfinite(right_term)):
        raise ValueError("grid steps too small: the scheme's coefficients overflow")
    u = np.zeros(grid.n_cells + 1)
    u[0] = left_value
    u[-1] = right_value
    u[1] -= left_term
    u[-2] -= right_term
    return lower, diag, upper, u


def assemble_dirichlet(grid: Grid, lam: float, left_value: float, right_value: float) -> TridiagonalSystem:
    """Scheme for -u'' + lam^2 u = 0 with arbitrary Dirichlet data.

    lam = 0 is allowed here (pure second-difference operator, exact for
    affine functions); the ProblemSpec-facing wrappers require lam > 0.
    """
    lower, diag, upper, u = _assemble(grid, lam, left_value, right_value)
    return TridiagonalSystem(lower=lower[1:], diag=diag, upper=upper[:-1], rhs=u[1:-1])


def solve_dirichlet(grid: Grid, lam: float, left_value: float, right_value: float) -> np.ndarray:
    """Nodal values (boundary rows included) for arbitrary Dirichlet data."""
    lower, diag, upper, u = _assemble(grid, lam, left_value, right_value)
    solve_in_place(lower, diag, upper, u[1:-1])
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
