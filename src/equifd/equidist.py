"""Numerical grid equidistribution by iterated constant-flux sweeps.

The node positions solve the nonlinear central-difference system

    omega_{j+1/2} (x_{j+1} - x_j) - omega_{j-1/2} (x_j - x_{j-1}) = 0,

with x_0 = 0, x_N = ell.  With the weights frozen at the current iterate
it says the flux omega * dx is constant, so each sweep is solved by a
cumulative sum of 1/omega; at the fixed point the discrete
equidistribution principle omega_{j+1/2} J_{j+1/2} = const holds.  The
sum is rescaled to span [0, ell], so a sweep needs 1/omega only up to a
constant factor: it takes the inverse weights min(omega)/omega, which
lie in (0, 1].

Piecewise-constant monitors (the solution-adaptive family) make the
sweep map discontinuous and it can enter a small limit cycle instead of
converging; when the displacement grows between sweeps the update is
therefore progressively damped.  A smooth monitor can grow it too: the
(u_x)^(1/2) one at lam = 10 halves the damping twice.
Convergence is always measured on the undamped sweep displacement, so a
converged grid moves less than tol under one more full sweep.

Once the damping reaches its floor the sweep map is fixed, so an iterate
that repeats exactly repeats forever.  Such a cycle is detected with
Brent's power-of-two method (one saved iterate) and reported at once as
an EquidistributionError carrying the best iterate: the same grid and
update that running on to the sweep cap would give, because the cycle
has already been swept in full.

The stack loop, sweep_rows, runs on a stack of grids with one grid per
row, each with its own weights, damping, best iterate and cycle check,
under one tolerance and sweep cap; a row leaves the stack when it
converges or cycles, and at the cap all stop.  The adaptive loop runs
many rows at once, served by its stacked DiscreteGradientMonitor and its
rows(keep).  Each sweep asks for the inverse weights of the whole stack
in one monitor.MonitorFunction.inverse_weights call: the least of a
monitor's checked weights divided by each, or the smooth monitor's
closed form, whose range it checked when it was built.

A lone row has its own loop, _sweep_row, on its 1-D grid: its record
lives in locals, its step is formed in one buffer that every sweep
reuses, and its node order is checked into one reused mask.
equidistribute and the adaptive loop's lone config (adapt._adapt_row)
start in it, with any monitor, and sweep_rows hands it its last
remaining row with all that row has recorded, so the stack loop never
carries a stack of one.  Both loops sweep with _sweep and do the same
IEEE operations in the same order.  A MonotonicityError from either
names the row that collided, by its place in the stack sweep_rows
started with.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .grid import Grid, uniform_grid
from .monitor import MonitorFunction
from .problem import ProblemSpec, largest, per_row, require, require_count, row_largest
from .tridiag import solve_tridiagonal  # noqa: F401 -- unused; perfbench/tracer.py wraps this name

DAMPING_FLOOR = 0.25

# each thread's sweep buffer for one grid (_buffer)
_local = threading.local()


class EquidistributionError(RuntimeError):
    """Sweeps did not converge; carries the best iterate seen."""

    def __init__(self, message: str, grid: Grid, final_update: float, iterations: int):
        super().__init__(message)
        self.grid = grid
        self.final_update = final_update
        self.iterations = iterations


class MonotonicityError(RuntimeError):
    """Neighbouring nodes collided: the weights spread too far for doubles.

    row is the first row whose nodes collided, by its place in the stack
    the sweep loop started with: 0 for a lone grid."""

    row = 0


@dataclass(frozen=True)
class EquidistResult:
    """Converged grid plus iteration diagnostics; the equidistribution
    defect is computed on demand by equidist_defect(grid, monitor)."""

    grid: Grid
    iterations: int
    final_update: float


def _sweep(nodes: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Exact solve of the frozen-weight system: constant flux w * dx, ends pinned.

    nodes is one grid on [0, ell], or a stack of them with one grid per
    row, and r its inverse weights, min(w)/w of each row
    (monitor.MonitorFunction.inverse_weights); each row is swept on its
    own.  Every term of the sum lies in [0, 1], so no weight ratio can
    overflow it.  A ratio beyond the double range underflows to 0
    instead: neighbouring nodes collapse and the sweep loop ends in
    MonotonicityError.  One grid's result is this thread's sweep buffer,
    which the next sweep of a grid of that size overwrites.
    """
    # the first node is 0, so the span is the last node and adding the
    # first one back would change no bit
    if r.ndim == 1:  # one grid: numpy takes a scalar faster than a column
        new = _buffer(len(nodes))
        new[0] = 0.0
        np.add.accumulate(r, out=new[1:])
        end = nodes.item(-1)
        new *= end / new.item(-1)
        new[-1] = end
        return new
    new = np.empty(nodes.shape)
    new[:, 0] = 0.0
    np.add.accumulate(r, axis=-1, out=new[:, 1:])
    new *= nodes[:, -1:] / new[:, -1:]
    new[:, -1] = nodes[:, -1]
    return new


def _buffer(n: int) -> np.ndarray:
    """This thread's sweep buffer of n doubles, kept and reused while n
    stays the same."""
    new = getattr(_local, "sweep", None)
    if new is None or len(new) != n:
        new = _local.sweep = None  # the old buffer is freed before the new one is made
        new = _local.sweep = np.empty(n)
    return new


class _Row:
    """Damping, best iterate and cycle record of one row of the sweep loop."""

    __slots__ = ("index", "relax", "prev_update", "best", "best_x", "saved")

    def __init__(self, index: int, x: np.ndarray):
        self.index = index  # the row's place in the stack the loop started with
        self.relax = 1.0
        self.prev_update = None
        self.best = np.inf
        self.best_x = x
        self.saved = None  # Brent cycle finding: (sweep, update, iterate) at powers of two


def _cycle_message(it: int, saved: tuple, best: float) -> str:
    return (f"the iterate of sweep {it - 1} repeats that of sweep {saved[0]} at the damping "
            f"floor (period {it - 1 - saved[0]}; best update {best:.3e})")


def _cap_message(it: int, best: float) -> str:
    return f"no convergence after {it} sweeps (best update {best:.3e})"


def _collision(it: int, row: int) -> MonotonicityError:
    """The error of row's nodes colliding at sweep it.  row is set on the
    error, not passed to it, so that the public constructor gains no
    settable value and MonotonicityError(message) still names row 0."""
    error = MonotonicityError(f"neighbouring nodes collided after sweep {it}")
    error.row = row
    return error


def sweep_rows(monitor: MonitorFunction, x: np.ndarray, tol: float, max_iter: int) -> list:
    """Run the damped sweep iteration on every row of the stack x at once.

    Row i starts from the grid x[i]; a row whose update falls below tol,
    or whose iterate cycles, leaves the stack, and the rest go on until
    sweep max_iter, where they all stop.  monitor.inverse_weights gives
    the stacked iterates' inverse weights, and monitor.rows(keep) serves
    the rows that remain.  A lone row, at the start or once the others
    have left, goes on in _sweep_row with all it has recorded.  Returns
    one (nodes, sweeps, update, message) per row: message is None where
    the row converged, with nodes its last iterate, and otherwise says
    why it stalled, with nodes its best iterate and update that
    iterate's.  Raises MonotonicityError, naming the row that collided,
    as soon as an iterate loses node ordering.
    """
    if len(x) == 1:
        return [_sweep_row(monitor, x[0], tol, max_iter)]
    rows = [_Row(i, xi) for i, xi in enumerate(x)]
    out = [None] * len(rows)
    factor = None  # the rows' damping factors as per_row gives them, None while all are 1
    it = 0
    while True:
        it += 1
        step = _sweep(x, monitor.inverse_weights(x))
        step -= x
        stopped = []
        damped = False
        for i, (row, update) in enumerate(zip(rows, row_largest(abs(step)))):
            if update < row.best:
                row.best, row.best_x = update, x[i]
            if update < tol:
                out[row.index] = (x[i], it, update, None)
                stopped.append(i)
                continue
            if row.relax == DAMPING_FLOOR:
                # x[i] came from a floor step and the map x -> x + relax * (sweep(x) - x)
                # is fixed from here on, so a repeat of x[i] is a cycle; equal iterates
                # have equal updates, so the arrays are compared only when those match
                saved = row.saved
                if saved is not None and update == saved[1] and np.array_equal(x[i], saved[2]):
                    out[row.index] = (row.best_x, it, row.best, _cycle_message(it, saved, row.best))
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
            monitor = monitor.rows(keep)
            x, step = x[keep], step[keep]
            damped = True  # the factors lose rows too
        if damped:
            relax = [row.relax for row in rows]
            factor = per_row(relax) if any(r != 1.0 for r in relax) else None
        if factor is not None:  # while all factors are 1, step is the undamped step
            step *= factor
        x = x + step
        unordered = x[:, 1:] <= x[:, :-1]
        if largest(unordered):
            raise _collision(it, rows[int(unordered.any(axis=1).argmax())].index)
        if it == max_iter:
            for row in rows:
                out[row.index] = (row.best_x, it, row.best, _cap_message(it, row.best))
            break
        if len(rows) == 1:
            out[rows[0].index] = _sweep_row(monitor, x[0], tol, max_iter, rows[0], it)
            break
    return out


def _sweep_row(monitor: MonitorFunction, x: np.ndarray, tol: float, max_iter: int,
               row: _Row | None = None, it: int = 0) -> tuple:
    """sweep_rows on the one grid x, as its (nodes, sweeps, update,
    message): the same arithmetic in the same order, with no stack.

    A row handed over by sweep_rows brings its record and the sweeps it
    has made.  Each sweep's step is formed in this thread's sweep buffer,
    its update is the larger of the step's greatest entry and the
    negated least (the first NaN, as the largest absolute value gives),
    and node order is checked in one mask kept for the run: the new
    iterate and the monitor's inverse weights are all it allocates.
    """
    if row is None:
        row = _Row(0, x)
    relax, prev_update, best, best_x, saved = (
        row.relax, row.prev_update, row.best, row.best_x, row.saved)
    unordered = np.empty(len(x) - 1, dtype=bool)
    while True:
        it += 1
        step = _sweep(x, monitor.inverse_weights(x))
        step -= x
        update = max(step.item(step.argmax()), -step.item(step.argmin()))
        if update < best:
            best, best_x = update, x
        if update < tol:
            return x, it, update, None
        if relax == DAMPING_FLOOR:
            # as in sweep_rows: from here on a repeat of x is a cycle
            if saved is not None and update == saved[1] and np.array_equal(x, saved[2]):
                return best_x, it, best, _cycle_message(it, saved, best)
            if (it - 1) & (it - 2) == 0:
                saved = (it - 1, update, x)
        if prev_update is not None and update > prev_update:
            relax = max(0.5 * relax, DAMPING_FLOOR)
        prev_update = update
        if relax != 1.0:
            step *= relax
        x = x + step
        np.less_equal(x[1:], x[:-1], out=unordered)
        if largest(unordered):
            raise _collision(it, row.index)
        if it == max_iter:
            return best_x, it, best, _cap_message(it, best)


def equidist_defect(grid: Grid, monitor: MonitorFunction) -> float:
    """Relative spread of omega_{j+1/2} * J_{j+1/2} around its mean.  A
    scale of either factor leaves it unchanged, so each is taken over its
    largest entry: the products then lie in [0, 1], where neither they nor
    their mean can overflow, as w * J can for an ell near the largest
    double."""
    w = monitor.interval_weights(grid.nodes)
    h = grid.steps
    c = (w / largest(w)) * (h / largest(h))
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
    require_count("max_iter", max_iter, 1)
    require_count("n_cells", n_cells, 2)  # also where an initial grid is given
    if initial is None:
        initial = uniform_grid(spec, n_cells)
    if initial.n_cells != n_cells or initial.ell != spec.ell:
        raise ValueError("initial grid does not match n_cells and ell")
    nodes, sweeps, update, message = _sweep_row(monitor, initial.nodes, tol, max_iter)
    grid = Grid(nodes, spec.ell)
    if message is None:
        return EquidistResult(grid, sweeps, update)
    raise EquidistributionError(message, grid=grid, final_update=update, iterations=sweeps)
