"""Numerical grid equidistribution by iterated constant-flux sweeps.

The node positions solve the nonlinear central-difference system

    omega_{j+1/2} (x_{j+1} - x_j) - omega_{j-1/2} (x_j - x_{j-1}) = 0,

with x_0 = 0, x_N = ell.  With the weights frozen at the current iterate
it says the flux omega * dx is constant, so each sweep is solved by a
cumulative sum of 1/omega; at the fixed point the discrete
equidistribution principle omega_{j+1/2} J_{j+1/2} = const holds.

Smooth monitors contract plainly.  Piecewise-constant monitors (the
solution-adaptive family) make the sweep map discontinuous and it can
enter a small limit cycle instead of converging; when the displacement
grows between sweeps the update is therefore progressively damped.
Convergence is always measured on the undamped sweep displacement, so a
converged grid moves less than tol under one more full sweep.

Once the damping reaches its floor the sweep map is fixed, so an iterate
that repeats exactly repeats forever.  Such a cycle is detected with
Brent's power-of-two method (one saved iterate) and reported at once as
an EquidistributionError carrying the best iterate: the same grid and
update that running on to the sweep cap would give, because the cycle
has already been swept in full.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, uniform_grid
from .monitor import MonitorFunction
from .problem import ProblemSpec, largest, require, smallest
from .tridiag import solve_tridiagonal  # noqa: F401 -- unused; perfbench/tracer.py wraps this name

DAMPING_FLOOR = 0.25


class EquidistributionError(RuntimeError):
    """Sweeps did not converge; carries the best iterate seen."""

    def __init__(self, message: str, grid: Grid, final_update: float, iterations: int):
        super().__init__(message)
        self.grid = grid
        self.final_update = final_update
        self.iterations = iterations


class MonotonicityError(RuntimeError):
    """An iterate lost strict node ordering (signals a bad monitor)."""


@dataclass(frozen=True)
class EquidistResult:
    """Converged grid plus iteration diagnostics; the equidistribution
    defect is computed on demand by equidist_defect(grid, monitor)."""

    grid: Grid
    iterations: int
    final_update: float


def _interval_weights(monitor: MonitorFunction, nodes: np.ndarray) -> np.ndarray:
    w = np.asarray(monitor.interval_values(nodes), dtype=float)
    if w.shape != (len(nodes) - 1,):
        raise ValueError(f"monitor returned {w.shape}, expected ({len(nodes) - 1},)")
    # NaN fails both comparisons (smallest and largest propagate it), so it is rejected too
    if not (smallest(w) > 0.0 and largest(w) < np.inf):
        raise ValueError("monitor values must be finite and strictly positive")
    return w


def _sweep(nodes: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Exact solve of the frozen-weight system: constant flux w * dx, ends pinned.

    Dividing by the least weight keeps every term of the sum in [0, 1], so no
    weight ratio can overflow it.  A ratio beyond the double range underflows
    to 0 instead: neighbouring nodes collapse and the sweep loop ends in
    MonotonicityError.
    """
    new = np.empty(len(nodes))
    new[0] = 0.0
    (smallest(w) / w).cumsum(out=new[1:])
    new *= (nodes[-1] - nodes[0]) / new[-1]
    new += nodes[0]
    new[-1] = nodes[-1]
    return new


def equidist_defect(grid: Grid, monitor: MonitorFunction) -> float:
    """Relative spread of omega_{j+1/2} * J_{j+1/2} around its mean."""
    w = _interval_weights(monitor, grid.nodes)
    c = w * grid.midpoint_jacobian
    mean = float(np.mean(c))
    return float(np.max(np.abs(c - mean)) / mean)


def equidistribute(
    monitor: MonitorFunction,
    spec: ProblemSpec,
    n_cells: int,
    initial: Grid | None = None,
    tol: float = 1e-12,
    max_iter: int = 10000,
) -> EquidistResult:
    """Solve the discrete equidistribution equations for the given monitor.

    Starts from the uniform grid unless an initial grid with the same
    N and ell is supplied.  Raises EquidistributionError after max_iter
    sweeps, or as soon as an iterate at the damping floor repeats exactly
    (the exception carries the best iterate either way), and
    MonotonicityError if an iterate loses node ordering.
    """
    require("tol", tol, 0.0, strict=True)  # NaN never stops the sweeps, inf stops them at once
    require("max_iter", max_iter, 1)
    if initial is None:
        initial = uniform_grid(spec, n_cells)
    if initial.n_cells != n_cells or initial.ell != spec.ell:
        raise ValueError("initial grid does not match n_cells and ell")

    x = initial.nodes  # read-only, and x is only ever rebound
    relax = 1.0
    prev_update = None
    best = (np.inf, x)
    saved = None  # Brent cycle finding: (sweep, update, iterate) at powers of two
    for it in range(1, max_iter + 1):
        w = _interval_weights(monitor, x)
        step = _sweep(x, w) - x
        update = largest(abs(step))
        if update < best[0]:
            best = (update, x)
        if update < tol:
            return EquidistResult(Grid(x, spec.ell), it, update)
        if relax == DAMPING_FLOOR:
            # x came from a floor step and the map x -> x + relax * (sweep(x) - x)
            # is fixed from here on, so a repeat of x is a cycle; equal iterates
            # have equal updates, so the arrays are compared only when those match
            if saved is not None and update == saved[1] and np.array_equal(x, saved[2]):
                message = (f"the iterate of sweep {it - 1} repeats that of sweep {saved[0]} at the "
                           f"damping floor (period {it - 1 - saved[0]}; best update {best[0]:.3e})")
                break
            if (it - 1) & (it - 2) == 0:
                saved = (it - 1, update, x)
        if prev_update is not None and update > prev_update:
            relax = max(0.5 * relax, DAMPING_FLOOR)
        prev_update = update
        x = x + (step if relax == 1.0 else relax * step)  # 1.0 * step is step, exactly
        if largest(x[1:] <= x[:-1]):
            raise MonotonicityError(
                f"node ordering lost after sweep {it}; monitor values may be invalid"
            )
    else:
        message = f"no convergence after {it} sweeps (best update {best[0]:.3e})"
    raise EquidistributionError(message, grid=Grid(best[1], spec.ell),
                                final_update=best[0], iterations=it)
