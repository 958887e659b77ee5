"""Centered finite-difference scheme for the layer problem on any grid.

Interior rows discretize -u'' + lam^2 u = 0 as

    -[ (u_{j+1} - u_j)/h_{j+1/2} - (u_j - u_{j-1})/h_{j-1/2} ] / h_j
        + lam^2 u_j = 0,

with the Dirichlet values eliminated into the right-hand side.  On a
uniform grid this reduces to the standard three-point stencil.

solve_dirichlet (and solve_stack, row by row) takes one of two paths by
the number of unknowns n = N - 1:

* n < CR_CUTOFF: _solve_short makes one pass over the nodes as Python
  floats, forming each row's coefficients and taking the Thomas forward
  step on it, then back-substitutes.  It makes none of _assemble's
  numpy calls, whose fixed cost dominates a short solve, so below
  CR_CUTOFF, near its crossover with _assemble plus cyclic reduction, it
  is the faster of the two.
* n >= CR_CUTOFF: _assemble, then cyclic reduction by
  tridiag.solve_in_place.

Where one of _assemble's checks could fail the loop returns None, and
the numpy path raises the error, or solves the system by cyclic
reduction like a long one.

solve_stack solves the adaptive loop's grids, a stack of them with one
grid per row, taking lam and the Dirichlet values from a ProblemSpec
unchecked.  Each row of a stack of fewer than STACK_ROWS short grids
runs _solve_short.  A taller stack of short grids runs
_solve_columns: _solve_short's IEEE operations in its order, one column
of all rows at a time, so that each numpy call serves every row and the
cost per column is fixed.  Where any row fails one of _solve_short's
checks, every row goes through solve_dirichlet, as do long grids.

The kernel takes row sums in place of a diagonal, and the scheme's are
known in closed form: lam^2 in an interior row, and lam^2 less the
boundary coupling in the first and last rows, whose coupling went into
the right-hand side.  _assemble hands these to the kernel, and forms
the diagonal only to check it.  Summed back from a diagonal rounded at
~4/h^2, a row sum would keep an error of eps*4/h^2 against lam^2, which
floors the error of long solves (README, numerical notes).

On the numpy path solve_dirichlet assembles the bands and row sums into
a workspace of its thread, and the right-hand side into the interior of
the nodal vector it returns; tridiag.solve_in_place overwrites them all,
leaving the solution there.  The workspace holds 3.5n doubles: the step
sums that become the row sums, two bands and the kernel's buffer of n/2.
Each thread keeps its own, grown to the largest n it has solved and
reused by every later long solve, which so allocates only its fresh
nodal vector.  Fresh temporaries that large would be pages the allocator
takes from the OS and hands back at every solve, each faulted in afresh.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .problem import (LAM_MAX, ParameterError, ProblemSpec, exact_solution, largest, require,
                      smallest)
from .tridiag import PIVOT_FLOOR, solve_in_place
from .tridiag import solve_tridiagonal  # noqa: F401 -- unused; perfbench/tracer.py wraps this name

# unknowns from which solve_dirichlet assembles and solves by cyclic
# reduction.  Against _solve_short on a uniform grid, with the workspace
# kept from earlier solves: 174 us against 159 at 420 unknowns, 166
# against 172 at 450 and 197 against 229 at 575 (best of 7 runs of 3 x 200
# solves, 2-vCPU Xeon, numpy 2.4.6).  With fresh temporaries the numpy
# path reads the same, since blocks this small come back from the heap
# with no page faults.  An earlier, slower run of that host read 348
# against 324 at 500 and 393 against 379 at 576: the crossover moves with
# the host between about 450 and 576, where the paths are within 15%.
CR_CUTOFF = 576

# rows from which solve_stack solves a stack of short grids column by
# column across its rows (_solve_columns) rather than row by row with
# _solve_short.  On stacks of 21-node grids: 68 us against 79 at 8 rows,
# 78 against 84 at 9, 85 against 81 at 10 and 105 against 84 at 12 (medians
# of 31 alternating runs of 300 solves, 2-vCPU Xeon, numpy 2.4.6).  Both
# costs grow in proportion to N: on 81- and 321-node grids too, the column
# path is slower at 8 rows and faster at 10.
STACK_ROWS = 10

# each thread's long-solve workspace (_workspace)
_local = threading.local()


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


def _workspace(n: int) -> np.ndarray:
    """This thread's workspace for a long solve of n unknowns: at least
    3.5n doubles, kept and reused, and grown to the largest n so far."""
    work = getattr(_local, "work", None)
    size = 3 * n + (n + 1) // 2
    if work is None or work.size < size:
        _local.work = None  # freed before its successor is allocated
        work = _local.work = np.empty(size)
    return work


def _assemble(grid: Grid, lam: float, left_value: float, right_value: float,
              work: np.ndarray):
    """Bands and row sums of the scheme, in work, and the nodal vector
    holding its right-hand side.

    Returns lower, rowsum, upper (length n = N-1), the first 3n doubles of
    work, and u (length N+1), a fresh array.  lower[0] and upper[-1]
    couple the first and last rows to the boundary nodes: their terms are
    eliminated into the right-hand side, which fills the interior of u,
    and u's ends hold the Dirichlet values.  The row sums are in closed
    form: lam**2 in every row, less lower[0] in the first and upper[-1] in
    the last, whose couplings left the matrix.  The diagonal -(lower +
    upper) + lam**2 is formed only to be checked for overflow and for a
    row below PIVOT_FLOOR, in the buffer the row sums then fill.  The
    steps sit in u until the right-hand side goes in.  lam and the
    Dirichlet values are checked by the caller.
    """
    lam2 = lam**2
    n = grid.n_cells - 1
    x = grid.nodes
    u = np.empty(n + 2)
    h = np.subtract(x[1:], x[:-1], out=u[1:])
    hj, lower, upper = work[:n], work[n : 2 * n], work[2 * n : 3 * n]
    with np.errstate(all="ignore"):  # overflow is checked once, below
        np.add(h[:-1], h[1:], out=hj)
        hj *= 0.5
        np.multiply(hj, h[:-1], out=lower)
        np.multiply(hj, h[1:], out=upper)
        np.divide(-1.0, lower, out=lower)
        np.divide(-1.0, upper, out=upper)
        # as Python floats, whose sums overflow to inf without a numpy warning
        left_term = float(lower[0] * left_value)
        right_term = float(upper[-1] * right_value)
        diag = np.add(lower, upper, out=hj)
        diag *= -1.0
        diag += lam2
    # diag is >= 0 where finite; written so that NaN fails the check too
    if not largest(diag) < math.inf:
        raise ParameterError("grid steps too small: the scheme's coefficients overflow",
                             ell=grid.ell, n_cells=grid.n_cells)
    # a single unknown takes both terms, (0 - left_term) - right_term, as below
    if not (math.isfinite(left_term) and math.isfinite(right_term)
            and (grid.n_cells > 2 or math.isfinite(-left_term - right_term))):
        raise ParameterError(
            "Dirichlet data too large for the grid steps: the eliminated boundary terms "
            "overflow", left_value=left_value, right_value=right_value)
    d = smallest(diag)
    if d < PIVOT_FLOOR:
        raise ParameterError(
            f"scheme row underflows: diagonal {d!r} below {PIVOT_FLOOR} where lam**2 and "
            "1/h**2 underflow", lam=lam, ell=grid.ell, n_cells=grid.n_cells)
    rowsum = diag  # the diagonal's buffer, no longer needed
    rowsum.fill(lam2)
    rowsum[0] -= lower[0]
    rowsum[-1] -= upper[-1]
    u.fill(0.0)
    u[0] = left_value
    u[-1] = right_value
    u[1] -= left_term
    u[-2] -= right_term
    return lower, rowsum, upper, u


def solve_dirichlet(grid: Grid, lam: float, left_value: float, right_value: float) -> np.ndarray:
    """Nodal values (boundary rows included) for arbitrary Dirichlet data.

    lam = 0 is allowed here (pure second-difference operator, exact for
    affine functions); the ProblemSpec-facing solve_bvp requires lam > 0.
    """
    require("|lam|", abs(lam), 0.0, high=LAM_MAX)  # so that lam**2 is finite
    for name, value in (("left_value", left_value), ("right_value", right_value)):
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}", tail=False,
                                 **{name: value})
    n = grid.n_cells - 1
    if n < CR_CUTOFF:
        # as Python floats: numpy scalars would be slower and warn on overflow
        u = _solve_short(grid.nodes.tolist(), float(lam**2), float(left_value),
                         float(right_value))
        if u is not None:
            return np.array(u)
    work = _workspace(n)
    lower, rowsum, upper, u = _assemble(grid, lam, left_value, right_value, work)
    solve_in_place(lower, rowsum, upper, u[1:-1], work[3 * n :])
    return u


def solve_stack(nodes: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """solve_bvp's nodal values on each row of nodes, a stack of grids on
    [0, spec.ell], as one stack.

    Short rows run _solve_short, with no Grid built and no re-check of
    what ProblemSpec has checked: fewer than STACK_ROWS rows as lists, a
    taller stack column by column across its rows (_solve_columns).  Long
    rows, or every row where one fails a check of the fast path, go
    through solve_dirichlet.
    """
    if nodes.shape[1] - 2 < CR_CUTOFF:
        lam2 = float(spec.lam**2)
        if len(nodes) >= STACK_ROWS:
            u = _solve_columns(nodes, lam2, spec.left_bc, spec.right_bc)
            if u is not None:
                return u
        else:
            rows = [_solve_short(x, lam2, spec.left_bc, spec.right_bc) for x in nodes.tolist()]
            if None not in rows:
                return np.array(rows)
    return np.array([solve_dirichlet(Grid(x, spec.ell), spec.lam, spec.left_bc, spec.right_bc)
                     for x in nodes])


def _solve_columns(nodes: np.ndarray, lam2: float, left_value: float, right_value: float):
    """_solve_short on every row of the stack nodes at once, as an array.

    The coefficients of all rows and columns are formed in a few whole
    arrays, with _solve_short's IEEE operations in its order, and the
    Thomas algorithm's forward step and back substitution then run column
    by column, each one numpy call across the rows: a fixed cost per
    column, where _solve_short's is per row.  Where any row fails one of
    _solve_short's checks, after the forward step, returns None.  A step
    product that underflows to 0 leaves that row a pivot of inf or NaN,
    which fails the pivot check, as _solve_short's ZeroDivisionError
    does.
    """
    x = np.ascontiguousarray(nodes.T)  # a row per node, a column per grid
    with np.errstate(all="ignore"):  # what a check below would reject
        h = x[1:] - x[:-1]
        hl, hr = h[:-1], h[1:]
        hj = hl + hr
        hj *= 0.5
        lo = np.multiply(hj, hl)
        np.divide(-1.0, lo, out=lo)
        up = np.multiply(hj, hr, out=hj)
        np.divide(-1.0, up, out=up)
        piv = lo + up  # -(lo + up) + lam2 is lam2 - (lo + up), bit for bit
        np.subtract(lam2, piv, out=piv)
        # the right side is 0 but at x[-1] = ell, where the boundary term enters
        d = np.where(x[2:] < x[-1], 0.0, 0.0 - up * right_value)
        t = np.empty(x.shape[1])
        multiply, subtract, divide = np.multiply, np.subtract, np.divide
        c, dk = 0.0, left_value  # as if a row before the first had c = 0, d = left_value
        for lo_k, up_k, piv_k, d_k in zip(lo, up, piv, d):  # each out positional: faster
            multiply(lo_k, c, t)
            subtract(piv_k, t, piv_k)
            c = divide(up_k, piv_k, up_k)
            multiply(lo_k, dk, t)
            subtract(d_k, t, d_k)
            dk = divide(d_k, piv_k, d_k)
        # NaN fails each check, as largest and smallest return it
        if not (PIVOT_FLOOR <= smallest(piv) and largest(piv) < math.inf
                and largest(abs(dk)) < math.inf):
            return None
        for c, d_k, u in zip(up[-2::-1], d[-2::-1], d[:0:-1]):
            subtract(d_k, multiply(c, u, t), d_k)
    u = np.empty(nodes.shape)
    u[:, 0] = left_value
    u[:, 1:-1] = d.T
    u[:, -1] = right_value
    return u


def _solve_short(x: list, lam2: float, left_value: float, right_value: float):
    """solve_dirichlet's nodal values as a list, by one loop over the nodes x.

    Each pass forms one row's coefficients as _assemble does,
    with the same IEEE operations in the same order, diagonal included,
    and takes the Thomas algorithm's forward step on it.  The first row's
    lower coefficient multiplies left_value into its right side, which is
    the forward step from a row before it with c = 0 and d = left_value;
    only the last row, at x[-1] = ell, has the right boundary term.  (With
    a single row the two terms are subtracted from 0 in the other order:
    (0 - a) - b and (0 - b) - a round alike, signed zeros included.)

    Returns None where a check of the numpy path could fail: a pivot not
    in [PIVOT_FLOOR, inf), which covers a diagonal that overflows or
    underflows, since lo * c >= 0 keeps each pivot at most its diagonal;
    a step product that underflows to 0; or a boundary term that
    overflows, which leaves the last d not finite.
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


def solve_bvp(grid: Grid, spec: ProblemSpec) -> DiscreteSolution:
    """Solve the layer problem; boundary values imposed exactly."""
    u = solve_dirichlet(grid, spec.lam, spec.left_bc, spec.right_bc)
    return DiscreteSolution(grid, u, spec)
