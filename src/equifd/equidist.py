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
converging; when the displacement does not shrink between sweeps the
update is therefore progressively damped, so that an exact 2-cycle of
equal displacements is damped as well.  A smooth monitor can grow it
too: the (u_x)^(1/2) one at lam = 10 halves the damping twice.
Convergence is always measured on the undamped sweep displacement, so a
converged grid moves less than tol under one more full sweep.

Once the damping reaches its floor the sweep map is fixed, so an iterate
that repeats exactly repeats forever.  Such a cycle is detected with
Brent's power-of-two method (one saved iterate) and reported at once as
an EquidistributionError carrying the best iterate: the same grid and
update that running on to the sweep cap would give, because the cycle
has already been swept in full.

The stack loop, _sweep_rows, runs on a stack of two grids or more, one
per row, each with its own weights, damping, best iterate and cycle
check, under one tolerance and sweep cap; a row leaves the stack when it
converges or cycles, and at the cap all stop.  Only the adaptive loop
calls it, with its stacked DiscreteGradientMonitor, whose _rows(keep)
serves the rows that remain.  Each sweep asks for the inverse weights of
the whole stack in one monitor.MonitorFunction.inverse_weights call: the
least of a monitor's checked weights divided by each, or the smooth
monitor's closed form, whose range it checked when it was built.

A lone row has its own loop, _sweep_row, on its 1-D grid: its step is
formed in one buffer that every sweep reuses, and its node order is
checked into one reused mask.  equidistribute, for any monitor but the
smooth one, and the adaptive loop's lone row (adapt._adapt_row) start in
it, and _sweep_rows hands it its last remaining row with all that row
has recorded, so the stack loop never carries a stack of one.  Both
loops sweep with _sweep and leave each row's stops, damping and best
iterate to its _Row, so both do the same IEEE operations in the same
order.  A MonotonicityError from either names the row that collided, by
its place in the stack _sweep_rows started with.

For an ExactPowerMonitor, equidistribute runs _mix_row instead: the
same sweeps, each mixed with the last three by type-II Anderson mixing
(Anderson, J. ACM 12, 1965; Walker & Ni, SIAM J. Numer. Anal. 49,
2011).  The smooth monitor's sweep map is smooth and contracts slowly,
one mode at a time, which is the case mixing is built for: at lam = 10
it takes 14 sweeps at beta = 1/4 and 20 or 21 at beta = 1/2 where the
damped sweeps take 30 and 101, and lands within 7e-13 of their grid.
_mix_row stops and raises where _sweep_row does, and hands a run that
stops improving to _sweep_row, whose damping and cycle check then apply.
The adaptive loop keeps the plain sweeps: its monitor is piecewise
constant, so its sweep map jumps wherever a midpoint crosses a node of
the solution's grid and no secant model holds across it; its sweeps are
few and short, at N = 20, where a sweep is call overhead; and table2's
pinned outer counts are those of the plain sweeps' iterates.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .grid import Grid, uniform_grid
from .monitor import ExactPowerMonitor, MonitorFunction
from .problem import (ProblemSpec, largest, per_row, require, require_count, row_largest,
                      smallest)
from .tridiag import solve_tridiagonal  # noqa: F401 -- unused; perfbench/tracer.py wraps this name

DAMPING_FLOOR = 0.25
_DEPTH = 3  # the differences _mix_row keeps

# each thread's sweep buffer for one grid (_buffer)
_local = threading.local()


class EquidistributionError(RuntimeError):
    """Sweeps did not converge; carries the best iterate seen."""

    def __init__(self, message: str, grid: Grid, final_update: float, iterations: int):
        super().__init__(message)
        self.grid = grid
        self.final_update = final_update
        self.iterations = iterations

    def __reduce__(self):
        # a copy or unpickled error is rebuilt from all four arguments, not
        # from args, which holds the message only
        return type(self), (self.args[0], self.grid, self.final_update, self.iterations), \
            self.__dict__


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
    """One row of either sweep loop: its damping, best iterate and cycle
    record, and the rules that stop or damp it."""

    __slots__ = ("index", "relax", "prev_update", "best", "best_x", "saved")

    def __init__(self, index: int, x: np.ndarray):
        self.index = index  # the row's place in the stack the loop started with
        self.relax = 1.0
        self.prev_update = np.nan  # no comparison with NaN holds: sweep 1 damps nothing
        self.best = np.inf
        self.best_x = x
        self.saved = None  # Brent cycle finding: (sweep, update, iterate) at powers of two

    def record(self, it: int, update: float, x: np.ndarray, tol: float) -> tuple | None:
        """Record sweep it's undamped update from the iterate x: the row's
        (nodes, sweeps, update, message) where it converged or x cycles at
        the damping floor, else None, with relax halved if the update did not shrink."""
        if update < self.best:
            self.best, self.best_x = update, x
        if update < tol:
            return x, it, update, None
        if self.relax == DAMPING_FLOOR:
            # x came from a floor step and the map x -> x + relax * (sweep(x) - x)
            # is fixed from here on, so a repeat of x is a cycle; equal iterates
            # have equal updates, so the arrays are compared only when those match
            saved = self.saved
            if saved is not None and update == saved[1] and np.array_equal(x, saved[2]):
                return (self.best_x, it, self.best,
                        f"the iterate of sweep {it - 1} repeats that of sweep {saved[0]} at the "
                        f"damping floor (period {it - 1 - saved[0]}; best update {self.best:.3e})")
            if (it - 1) & (it - 2) == 0:
                self.saved = (it - 1, update, x)
        if update >= self.prev_update:
            self.relax = max(0.5 * self.relax, DAMPING_FLOOR)
        self.prev_update = update
        return None

    def capped(self, it: int) -> tuple:
        """The row's (nodes, sweeps, update, message) at the sweep cap it."""
        return (self.best_x, it, self.best,
                f"no convergence after {it} sweeps (best update {self.best:.3e})")


def _collision(it: int, row: int) -> MonotonicityError:
    """The error of row's nodes colliding at sweep it.  row is set on the
    error, not passed to it, so that the public constructor gains no
    settable value and MonotonicityError(message) still names row 0."""
    error = MonotonicityError(f"neighbouring nodes collided after sweep {it}")
    error.row = row
    return error


def _sweep_rows(monitor: MonitorFunction, x: np.ndarray, tol: float, max_iter: int) -> list:
    """Run the damped sweep iteration on every row of the stack x, of two
    rows or more, at once.

    Row i starts from the grid x[i]; a row whose update falls below tol,
    or whose iterate cycles, leaves the stack, and the rest go on until
    sweep max_iter, where they all stop.  monitor.inverse_weights gives
    the stacked iterates' inverse weights, and monitor._rows(keep) serves
    the rows that remain.  The last row left goes on in _sweep_row with
    all it has recorded.  Returns one (nodes, sweeps, update, message) per
    row: message is None where the row converged, with nodes its last
    iterate, and otherwise says why it stalled, with nodes its best
    iterate and update that iterate's.  Raises MonotonicityError, naming
    the row that collided, as soon as an iterate loses node ordering.
    """
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
            before = row.relax
            done = row.record(it, update, x[i], tol)
            if done is not None:
                out[row.index] = done
                stopped.append(i)
            elif row.relax != before:
                damped = True
        if stopped:
            if len(stopped) == len(rows):
                break
            keep = [i for i in range(len(rows)) if i not in stopped]
            rows = [rows[i] for i in keep]
            monitor = monitor._rows(keep)
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
                out[row.index] = row.capped(it)
            break
        if len(rows) == 1:
            out[rows[0].index] = _sweep_row(monitor, x[0], tol, max_iter, rows[0], it)
            break
    return out


def _sweep_row(monitor: MonitorFunction, x: np.ndarray, tol: float, max_iter: int,
               row: _Row | None = None, it: int = 0) -> tuple:
    """_sweep_rows on the one grid x, as its (nodes, sweeps, update,
    message): the same arithmetic in the same order, with no stack.

    A row handed over by _sweep_rows brings its record and the sweeps it
    has made.  Each sweep's step is formed in this thread's sweep buffer,
    its update is the larger of the step's greatest entry and the
    negated least (the first NaN, as the largest absolute value gives),
    and node order is checked in one mask kept for the run: the new
    iterate and the monitor's inverse weights are all it allocates.
    """
    if row is None:
        row = _Row(0, x)
    unordered = np.empty(len(x) - 1, dtype=bool)
    while True:
        it += 1
        step = _sweep(x, monitor.inverse_weights(x))
        step -= x
        done = row.record(it, max(step.item(step.argmax()), -step.item(step.argmin())), x, tol)
        if done is not None:
            return done
        if row.relax != 1.0:
            step *= row.relax
        x = x + step
        np.less_equal(x[1:], x[:-1], out=unordered)
        if largest(unordered):
            raise _collision(it, row.index)
        if it == max_iter:
            return row.capped(it)


def _mix_row(monitor: MonitorFunction, x: np.ndarray, tol: float, max_iter: int) -> tuple:
    """_sweep_row's run of the one grid x, each sweep mixed with the last
    ones: type-II Anderson mixing of depth _DEPTH.  Returns or raises as
    _sweep_row does.

    Sweep k gives S(x_k) and the residual f_k = S(x_k) - x_k, its step.
    Their differences from sweep k - 1 replace the oldest of the last
    _DEPTH kept in d_g and d_f, and the Gram matrix of the d_f gains the
    new one's row.  The weights gamma fit f_k by the d_f in least squares,
    and the next iterate is S(x_k) - gamma . d_g, a combination of sweeps
    whose ends stay 0 and ell; where the kept d_f are dependent to
    rounding (one is 0 where two sweeps in a row give the same step) the
    step is plain.  The residuals are kept scaled by the power
    of two that brings ell into [1/2, 1), exactly, so the Gram matrix and
    its right-hand side are formed on numbers no larger than 2 for any
    ell (unscaled, they overflow at ell = 1.5e308).  A mixed iterate that is
    not strictly ordered (or not finite) gives way to the plain step
    x + f_k, formed as _sweep_row forms it, and the history is dropped; a
    plain step that collides raises as there.  After _DEPTH sweeps with no
    new best update the best iterate goes on in _sweep_row, with its
    record and the sweeps made so far, under that loop's damping, cycle
    check and cap.
    """
    n = len(x)
    ell = x.item(-1)
    scale = math.ldexp(1.0, min(-math.frexp(ell)[1], 1023))  # 2**1023 at most, for a subnormal ell
    row = _Row(0, x)
    gs = np.empty((2, n))  # S(x) of this sweep and the last, by the parity of it
    fs = np.empty((2, n))  # S(x) - x, scaled, likewise
    d_g = np.empty((_DEPTH, n))
    d_f = np.empty((_DEPTH, n))
    gram = [[0.0] * _DEPTH for _ in range(_DEPTH)]
    kept = 0  # the differences formed since the history was last dropped
    pairs = np.empty(n - 1, dtype=bool)  # a test of each pair of neighbouring nodes
    it = stale = 0
    while True:
        it += 1
        cur, last = it & 1, ~it & 1
        step = _sweep(x, monitor.inverse_weights(x))
        np.copyto(gs[cur], step)  # step is the shared sweep buffer
        step -= x
        update = max(step.item(step.argmax()), -step.item(step.argmin()))
        if update < row.best:
            row.best, row.best_x, stale = update, x, 0
        else:
            stale += 1
        if update < tol:
            return x, it, update, None
        if stale == _DEPTH and it < max_iter:
            return _sweep_row(monitor, row.best_x, tol, max_iter, row, it)
        np.multiply(step, scale, out=fs[cur])
        mixed = None
        if it > 1:
            slot = kept % _DEPTH  # the oldest row, once all are in use
            kept += 1
            used = min(kept, _DEPTH)
            np.subtract(gs[cur], gs[last], out=d_g[slot])
            np.subtract(fs[cur], fs[last], out=d_f[slot])
            for j, value in enumerate((d_f[:used] @ d_f[slot]).tolist()):
                gram[slot][j] = gram[j][slot] = value
            gamma = _least_squares(gram, (d_f[:used] @ fs[cur]).tolist())
            if gamma is not None:
                # near the largest double, large weights can carry a mix out of
                # the range: it is then not finite, and fails the order test
                with np.errstate(over="ignore", invalid="ignore"):
                    mixed = np.dot(gamma, d_g[:used])
                    np.subtract(gs[cur], mixed, out=mixed)
                np.greater(mixed[1:], mixed[:-1], out=pairs)
                if not smallest(pairs):
                    mixed = None
                    kept = 0
        if mixed is None:
            x = x + step
            np.less_equal(x[1:], x[:-1], out=pairs)
            if largest(pairs):
                raise _collision(it, row.index)
        else:
            x = mixed
        if it == max_iter:
            return row.capped(it)


def _least_squares(gram: list, rhs: list) -> list | None:
    """The weights that fit the residual by the kept differences in least
    squares: gram holds the differences' inner products, rhs theirs with
    the residual, each in its first len(rhs) rows.  The normal equations
    are factored L D L^T in Python floats; None where a pivot is not
    above 0, the differences being dependent to rounding."""
    used = len(rhs)
    low, pivots = [], []  # the unit lower factor's rows left of its diagonal, and D
    for i in range(used):
        line = []
        for j in range(i):
            value = gram[i][j]
            for p in range(j):
                value -= line[p] * low[j][p] * pivots[p]
            line.append(value / pivots[j])
        pivot = gram[i][i]
        for p in range(i):
            pivot -= line[p] * line[p] * pivots[p]
        if not pivot > 0.0:
            return None
        low.append(line)
        pivots.append(pivot)
    z = []
    for i in range(used):
        value = rhs[i]
        for p in range(i):
            value -= low[i][p] * z[p]
        z.append(value)
    weights = [0.0] * used
    for i in range(used - 1, -1, -1):
        value = z[i] / pivots[i]
        for p in range(i + 1, used):
            value -= low[p][i] * weights[p]
        weights[i] = value
    return weights


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
    N and ell is supplied.  An ExactPowerMonitor's sweeps are mixed
    (_mix_row), any other monitor's damped (_sweep_row).  Raises
    EquidistributionError after max_iter
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
    loop = _mix_row if isinstance(monitor, ExactPowerMonitor) else _sweep_row
    nodes, sweeps, update, message = loop(monitor, initial.nodes, tol, max_iter)
    grid = Grid(nodes, spec.ell)
    if message is None:
        return EquidistResult(grid, sweeps, update)
    raise EquidistributionError(message, grid=grid, final_update=update, iterations=sweeps)
