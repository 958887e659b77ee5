"""Centered finite-difference scheme for the layer problem on any grid.

Interior rows discretize -u'' + lam^2 u = 0 as

    -[ (u_{j+1} - u_j)/h_{j+1/2} - (u_j - u_{j-1})/h_{j-1/2} ] / h_j
        + lam^2 u_j = 0,

with the Dirichlet values eliminated into the right-hand side.  On a
uniform grid this reduces to the standard three-point stencil.

solve_dirichlet takes one of three paths by the number of unknowns
n = N - 1:

* n < FUSED_CUTOFF: _solve_short makes one pass over the nodes as Python
  floats.  Each step of the loop forms one row's coefficients and takes
  the Thomas forward step on it; a back-substitution loop follows.  At
  table2's N = 20 this takes 6.2 us against 12.5 us for the numpy path,
  of which ~9 us are the ~20 numpy calls and scalar writes of _assemble.
  The cost of the loop grows by ~0.3 us a row, faster than that of the
  whole-array numpy operations, so it stops at the measured crossover
  (fused/numpy: 23/25 us at n = 80, 45/43 us at n = 160).
* FUSED_CUTOFF <= n < tridiag.CR_CUTOFF: _assemble, then the Thomas loop
  of tridiag.solve_in_place.
* n >= tridiag.CR_CUTOFF: _assemble, then cyclic reduction.

The fused loop does the IEEE operations of the other two paths in the
same order, so all three agree bit for bit at any n.  Where one of the
numpy path's checks could fail, it returns None and solve_dirichlet
takes the numpy path, which raises the error; every path thus raises the
same errors.  solve_stack solves a stack of grids, one per row, the same
way: it is how the adaptive loop solves all its lockstep rows.

On the numpy path solve_dirichlet owns the arrays it assembles the bands
into, and the right-hand side goes into the interior of the nodal vector
it returns; tridiag.solve_in_place overwrites them all, leaving the
solution there.  A long solve thus holds 4.5n doubles: three bands, the
nodal vector and the kernel's buffer of n/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .problem import LAM_MAX, ProblemSpec, exact_solution, largest, require, smallest
from .tridiag import PIVOT_FLOOR, TridiagonalSystem, solve_in_place
from .tridiag import solve_tridiagonal  # noqa: F401 -- unused; perfbench/tracer.py wraps this name

# unknowns below which solve_dirichlet runs _solve_short: the crossover
# with _assemble plus Thomas, measured between 110 and 120 (2.1 GHz Xeon
# vCPU, Python 3.11, numpy 2.4)
FUSED_CUTOFF = 112


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


def _checked_lam2(lam: float, left_value: float, right_value: float):
    """lam**2, once lam and the Dirichlet values are checked."""
    require("|lam|", abs(lam), 0.0, high=LAM_MAX)  # so that lam**2 is finite
    for name, value in (("left_value", left_value), ("right_value", right_value)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    return lam**2


def _assemble(grid: Grid, lam: float, left_value: float, right_value: float):
    """Bands of the scheme, and the nodal vector holding its right-hand side.

    Returns lower, diag, upper (length N-1) and u (length N+1).  lower[0]
    and upper[-1] couple the first and last rows to the boundary nodes:
    their terms are eliminated into the right-hand side, which fills the
    interior of u, and u's ends hold the Dirichlet values.
    """
    lam2 = _checked_lam2(lam, left_value, right_value)
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
        diag += lam2
        # as Python floats, whose sums overflow to inf without a numpy warning
        left_term = float(lower[0] * left_value)
        right_term = float(upper[-1] * right_value)
    # diag is >= 0 where finite; written so that NaN fails the check too
    if not largest(diag) < math.inf:
        raise ValueError("grid steps too small: the scheme's coefficients overflow")
    # a single unknown takes both terms, (0 - left_term) - right_term, as below
    if not (math.isfinite(left_term) and math.isfinite(right_term)
            and (grid.n_cells > 2 or math.isfinite(-left_term - right_term))):
        raise ValueError(
            f"Dirichlet data too large for the grid steps: the eliminated boundary terms "
            f"overflow (left_value={left_value!r}, right_value={right_value!r})")
    d = smallest(diag)
    if d < PIVOT_FLOOR:
        raise ValueError(
            f"scheme row underflows: diagonal {d!r} below {PIVOT_FLOOR} where lam**2 and "
            f"1/h**2 underflow (lam={lam}, ell={grid.ell}, n_cells={grid.n_cells})")
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
    if grid.n_cells - 1 < FUSED_CUTOFF:
        lam2 = _checked_lam2(lam, left_value, right_value)
        # as Python floats: numpy scalars would be slower and warn on overflow
        u = _solve_short(grid.nodes.tolist(), float(lam2), float(left_value), float(right_value))
        if u is not None:
            return np.array(u)
    lower, diag, upper, u = _assemble(grid, lam, left_value, right_value)
    solve_in_place(lower, diag, upper, u[1:-1])
    return u


def solve_stack(nodes: np.ndarray, ell: float, lam: float, left_value: float,
                right_value: float) -> np.ndarray:
    """solve_dirichlet on each row of nodes, a stack of grids on [0, ell],
    as one stack of nodal values.

    Short rows run _solve_short on the rows as lists, with no Grid built.
    Where one of them returns None, and for rows from FUSED_CUTOFF on,
    every row goes through solve_dirichlet, which raises the numpy path's
    error or returns the same values.
    """
    if nodes.shape[1] - 2 < FUSED_CUTOFF:
        lam2 = float(_checked_lam2(lam, left_value, right_value))
        left, right = float(left_value), float(right_value)
        rows = [_solve_short(x, lam2, left, right) for x in nodes.tolist()]
        if None not in rows:
            return np.array(rows)
    return np.array([solve_dirichlet(Grid(x, ell), lam, left_value, right_value) for x in nodes])


def _solve_short(x: list, lam2: float, left_value: float, right_value: float):
    """solve_dirichlet's nodal values as a list, by one loop over the nodes x.

    Each pass forms one row's coefficients as _assemble does and takes
    the Thomas forward step on it as tridiag._thomas does, with the same
    IEEE operations in the same order, so the result is the same bit for
    bit.  The first row's lower coefficient multiplies left_value into its
    right side, which is the forward step from a row before it with
    c = 0 and d = left_value; only the last row, at x[-1] = ell, has the
    right boundary term.  (With a single row the two terms are subtracted
    from 0 in the other order: (0 - a) - b and (0 - b) - a round alike,
    signed zeros included.)

    Returns None where a check of the numpy path could fail: a pivot not
    in [PIVOT_FLOOR, inf), which covers a diagonal that overflows or
    underflows, since lo * c >= 0 keeps each pivot at most its diagonal;
    a step product that underflows to 0; or a boundary term that
    overflows, which leaves the last d not finite.  solve_dirichlet then
    takes the numpy path, which raises its error or returns its own
    (equal) result.
    """
    ell = x[-1]
    cp = []
    dp = []
    c, d = 0.0, left_value
    xm = x[1]
    hl = xm - x[0]
    try:
        for xr in x[2:]:
            hr = xr - xm
            hj = (hl + hr) * 0.5
            lo = -1.0 / (hj * hl)
            up = -1.0 / (hj * hr)
            piv = -(lo + up) + lam2 - lo * c
            if not PIVOT_FLOOR <= piv < math.inf:
                return None
            c = up / piv
            d = ((0.0 if xr < ell else 0.0 - up * right_value) - lo * d) / piv
            cp.append(c)
            dp.append(d)
            xm, hl = xr, hr
    except ZeroDivisionError:  # a step product underflowed to 0
        return None
    if not abs(d) < math.inf:
        return None
    u = [d]
    for c, d in zip(cp[-2::-1], dp[-2::-1]):
        u.append(d - c * u[-1])
    u.append(left_value)
    u.reverse()
    u.append(right_value)
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
