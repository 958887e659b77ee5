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

The sweep loop, sweep_rows, runs on a stack of grids with one grid per
row, each with its own weights, tolerance, cap, damping, best iterate
and cycle check; a row leaves the stack when it stops.  equidistribute
is its one-row case, and the adaptive loop runs many rows at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, uniform_grid
from .monitor import MonitorFunction
from .problem import ProblemSpec, largest, per_row, require, row_largest, smallest
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


def _checked(w: np.ndarray) -> np.ndarray:
    """w, once every weight is finite and strictly positive."""
    # NaN fails both comparisons (smallest and largest propagate it), so it is rejected too
    if not (smallest(w) > 0.0 and largest(w) < np.inf):
        raise ValueError("monitor values must be finite and strictly positive")
    return w


def _interval_weights(monitor: MonitorFunction, nodes: np.ndarray) -> np.ndarray:
    w = np.asarray(monitor.interval_values(nodes), dtype=float)
    if w.shape != (len(nodes) - 1,):
        raise ValueError(f"monitor returned {w.shape}, expected ({len(nodes) - 1},)")
    return _checked(w)


def _sweep(nodes: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Exact solve of the frozen-weight system: constant flux w * dx, ends pinned.

    nodes and w are one grid on [0, ell] and its weights, or stacks of
    them with one grid per row; each row is swept on its own.  Dividing by
    the row's least weight keeps every term of the sum in [0, 1], so no
    weight ratio can overflow it.  A ratio beyond the double range
    underflows to 0 instead: neighbouring nodes collapse and the sweep
    loop ends in MonotonicityError.
    """
    new = np.empty(nodes.shape)
    new[..., 0] = 0.0
    # the first node is 0, so the span is the last node and adding the
    # first one back would change no bit
    if w.size == w.shape[-1]:  # one grid: numpy takes a scalar faster than a column
        np.add.accumulate(smallest(w) / w, axis=-1, out=new[..., 1:])
        new *= nodes.item(-1) / new.item(-1)
    else:
        np.add.accumulate(np.minimum.reduce(w, axis=-1, keepdims=True) / w, axis=-1,
                          out=new[..., 1:])
        new *= nodes[..., -1:] / new[..., -1:]
    new[..., -1] = nodes[..., -1]
    return new


class _Row:
    """Damping, best iterate and cycle record of one row of the sweep loop."""

    __slots__ = ("index", "tol", "max_iter", "relax", "prev_update", "best", "best_x", "saved")

    def __init__(self, index: int, tol: float, max_iter: int, x: np.ndarray):
        self.index = index  # the row's place in the stack the loop started with
        self.tol = tol
        self.max_iter = max_iter
        self.relax = 1.0
        self.prev_update = None
        self.best = np.inf
        self.best_x = x
        self.saved = None  # Brent cycle finding: (sweep, update, iterate) at powers of two


def _damping(rows: list):
    """The rows' damping factors as per_row gives them, or None while all are 1."""
    return per_row([row.relax for row in rows]) if any(row.relax != 1.0 for row in rows) else None


def sweep_rows(weights, x: np.ndarray, data: tuple, tol: list, max_iter: list) -> list:
    """Run the damped sweep iteration on every row of the stack x at once.

    Row i starts from the grid x[i] and stops on its own tol[i] and
    max_iter[i]; a row that stops leaves the stack, and the rest go on.
    weights(x, *data) returns the checked interval weights of the stacked
    iterates x, where each array in data has one row per row of x and
    leaves with it.  Returns one (nodes, sweeps, update, message) per row:
    message is None where the row converged, with nodes its last iterate,
    and otherwise says why it stalled, with nodes its best iterate and
    update that iterate's.  Raises MonotonicityError as soon as an
    iterate loses node ordering.
    """
    rows = [_Row(i, t, m, xi) for i, (t, m, xi) in enumerate(zip(tol, max_iter, x))]
    out = [None] * len(rows)
    cap = min(max_iter, default=0)  # the first sweep at which a row reaches its max_iter
    factor = None  # the rows' damping factors (_damping), None while all are 1
    it = 0
    while rows:
        it += 1
        step = _sweep(x, weights(x, *data)) - x
        stopped = []
        damped = False
        for i, (row, update) in enumerate(zip(rows, row_largest(abs(step)))):
            if update < row.best:
                row.best, row.best_x = update, x[i]
            if update < row.tol:
                out[row.index] = (x[i], it, update, None)
                stopped.append(i)
                continue
            if row.relax == DAMPING_FLOOR:
                # x[i] came from a floor step and the map x -> x + relax * (sweep(x) - x)
                # is fixed from here on, so a repeat of x[i] is a cycle; equal iterates
                # have equal updates, so the arrays are compared only when those match
                saved = row.saved
                if saved is not None and update == saved[1] and np.array_equal(x[i], saved[2]):
                    message = (f"the iterate of sweep {it - 1} repeats that of sweep {saved[0]} "
                               f"at the damping floor (period {it - 1 - saved[0]}; best update "
                               f"{row.best:.3e})")
                    out[row.index] = (row.best_x, it, row.best, message)
                    stopped.append(i)
                    continue
                if (it - 1) & (it - 2) == 0:
                    row.saved = (it - 1, update, x[i])
            if row.prev_update is not None and update > row.prev_update:
                row.relax = max(0.5 * row.relax, DAMPING_FLOOR)
                damped = True
            row.prev_update = update
        if stopped:
            if len(stopped) == len(rows):
                break
            keep = [i for i in range(len(rows)) if i not in stopped]
            rows = [rows[i] for i in keep]
            x, step = x[keep], step[keep]
            data = tuple(d[keep] for d in data)
            cap = min(row.max_iter for row in rows)
            damped = True  # the factors lose rows too
        if damped:
            factor = _damping(rows)
        x = x + (step if factor is None else factor * step)  # 1.0 * step is step, exactly
        if largest(x[:, 1:] <= x[:, :-1]):
            raise MonotonicityError(
                f"node ordering lost after sweep {it}; monitor values may be invalid"
            )
        if it == cap:
            keep = []
            for i, row in enumerate(rows):
                if row.max_iter > it:
                    keep.append(i)
                else:
                    message = f"no convergence after {it} sweeps (best update {row.best:.3e})"
                    out[row.index] = (row.best_x, it, row.best, message)
            rows = [rows[i] for i in keep]
            x = x[keep]
            data = tuple(d[keep] for d in data)
            factor = _damping(rows)
            cap = min((row.max_iter for row in rows), default=0)
    return out


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

    def weights(x):
        return _interval_weights(monitor, x[0])[None]

    (nodes, sweeps, update, message), = sweep_rows(weights, initial.nodes[None], (), [tol],
                                                   [max_iter])
    grid = Grid(nodes, spec.ell)
    if message is None:
        return EquidistResult(grid, sweeps, update)
    raise EquidistributionError(message, grid=grid, final_update=update, iterations=sweeps)
