"""Solution-adaptive outer loop: solve, remesh, repeat.

Each outer iteration solves the layer problem on the current grid,
builds the monitor 1 + alpha*|u_x|^beta from that discrete solution,
and equidistributes it to obtain the next grid.  The loop stops when
two consecutive solutions agree at like node indices to within eps
(the solutions live on different grids; the comparison is deliberately
index-wise), or when the grid itself stops moving.

The solve-remesh alternation can oscillate for aggressive monitors
(large alpha with beta >= 1); as in the inner solver, the grid update
is progressively damped whenever the solution change does not shrink.
An equal change damps too: an exact 2-cycle of grids repeats its change
at every step, and would otherwise run undamped to max_outer.  A stalled
inner equidistribution (possible for rough piecewise-constant monitors,
which need not admit an exact discrete fixed point) is not fatal: the
inner solver stops at the first exact cycle at its damping floor, its
best iterate is taken, the stall is counted in the result, and the outer
iteration proceeds.

adaptive_solve_many runs the loops of many configs in lockstep, one row
of a stack of grids per config, so that each numpy call of an outer step
serves every row: solver.solve_stack solves them (a tall stack column by
column across its rows), the rows' solution errors come from one np.exp,
one monitor.DiscreteGradientMonitor on the whole stack gives every row's
weights (one power per beta, one lookup for the stack), and one stacked
sweep loop (equidist._sweep_rows) equidistributes them all.  The configs
differ only in alpha and beta and share their stops.  Each row keeps its
own damping, best iterate, cycle check and sweep count, and leaves the
stack when it converges, so the others go on as if alone; at max_outer
all stop.

Once fewer than two rows are left after a step's solve and eps check,
the last one goes on in its own loop, _adapt_row, on its 1-D grid, from
that step's remesh: its monitor is built on the one grid, its sweeps run
in equidist._sweep_row and it solves its grid as a stack of one.  That
is the one hand-over.  Both loops leave each config's stops, damping
and history to its _Run.  A lone config
(adaptive_solve) solves step 1 as a stack of one and is handed over
then; a row left alone at a step's end, by a neighbour whose grid
stopped moving, takes one more stacked solve first.  So no stack of one
is ever swept.  Every result is bit for bit that of running its config
on its own: both loops do the one-config loop's IEEE operations for
every row, in the same order.  Where a sweep's nodes collide, either
loop raises a ParameterError naming lam, ell, n_cells and the alpha and
beta of the first row that collided.

The loop builds its monitor without the constructor's input checks,
which it has made: AdaptiveConfig checks alpha and beta, the solver
gives finite values, and each new grid's node order is checked at the
end of the step that made it.  The monitor checks its weights once,
when it is built, and its interval_weights hands them to the sweeps as
they are; _rows(keep) shares its table and lookup keys with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equidist import DAMPING_FLOOR, MonotonicityError, _sweep_row, _sweep_rows
from .grid import Grid, uniform_grid
from .monitor import DiscreteGradientMonitor
from .problem import (ParameterError, ProblemSpec, largest, per_row, require, require_count,
                      row_largest, smallest)
from .solver import DiscreteSolution, solve_stack

# not called here; kept because perfbench/tracer.py wraps these names in this module
from .analysis import max_error  # noqa: F401
from .equidist import equidistribute  # noqa: F401
from .solver import solve_bvp  # noqa: F401


TRACE_COLUMNS = ["n", "error_norm", "solution_change", "grid_change",
                 "inner_sweeps", "inner_stall", "relax"]


@dataclass(frozen=True)
class AdaptiveConfig:
    """Monitor parameters and stopping tolerances for the adaptive loop."""

    alpha: float
    beta: float
    eps: float = 1e-10
    max_outer: int = 1000
    inner_tol: float = 1e-12
    inner_max_iter: int = 10000

    def __post_init__(self):
        require("alpha", self.alpha, 0.0)
        require("beta", self.beta, 0.0)
        require("eps", self.eps, 0.0, strict=True)
        require("inner_tol", self.inner_tol, 0.0, strict=True)
        require_count("max_outer", self.max_outer, 1)
        require_count("inner_max_iter", self.inner_max_iter, 1)


@dataclass(frozen=True)
class AdaptiveResult:
    """Final solution with iteration diagnostics.

    outer_iterations counts BVP solves.  history has one row per solve,
    with the columns of TRACE_COLUMNS: the solve's index n, its max error,
    the change from the previous solution (nan at n=1), the largest node
    move of the grid update, the equidistribution's sweeps, 1 if it
    stalled (0 otherwise) and the damping factor relax applied to the
    update.  The row that stops the loop on eps has no equidistribution:
    0 sweeps and a grid change of 0.  inner_stalls counts the
    equidistributions that stopped without converging and whose best
    iterate was taken instead.
    """

    solution: DiscreteSolution
    outer_iterations: int
    error_norm: float
    converged: bool
    history: list
    inner_stalls: int

    def write_trace_csv(self, path) -> None:
        from .io import write_csv

        cols = list(zip(*self.history)) if self.history else [[]] * len(TRACE_COLUMNS)
        write_csv(path, TRACE_COLUMNS, cols)


class _Run:
    """One config of either outer loop: its record and the rules that stop or damp it."""

    __slots__ = ("index", "config", "relax", "error", "change", "prev_change", "history",
                 "stalls")

    def __init__(self, index: int, config: AdaptiveConfig):
        self.index = index  # the config's place in the caller's list
        self.config = config
        self.relax = 1.0
        self.error = self.change = None  # of the current outer step
        # the previous step's change.  Step 1's change is NaN, and no
        # comparison with NaN holds: step 1 neither stops on eps nor damps,
        # and step 2 does not damp
        self.prev_change = np.nan
        self.history = []
        self.stalls = 0

    def solved(self, n: int, error: float, change: float, eps: float) -> bool:
        """Record step n's solve: True where its change from the last solution
        is below eps, which ends the run; else damp where it did not shrink."""
        self.error, self.change = error, change
        if change < eps:
            self.history.append((n, error, change, 0.0, 0, 0, self.relax))
            return True
        # >=: an exact 2-cycle repeats its change, and must be damped too
        if change >= self.prev_change:
            self.relax = max(0.5 * self.relax, DAMPING_FLOOR)
        self.prev_change = change
        return False

    def remeshed(self, n: int, grid_change: float, inner: tuple, inner_tol: float) -> bool:
        """Record step n's remesh, which moved the grid by grid_change after the
        equidistribution inner, (nodes, sweeps, update, message): True where
        grid_change is below inner_tol, as the next solve would repeat this one."""
        _, sweeps, _, message = inner
        stalled = 0 if message is None else 1
        self.stalls += stalled
        self.history.append((n, self.error, self.change, grid_change, sweeps, stalled, self.relax))
        return grid_change < inner_tol

    def result(self, spec, nodes, values, converged) -> AdaptiveResult:
        solution = DiscreteSolution(Grid(nodes, spec.ell), values, spec)
        return AdaptiveResult(solution, len(self.history), self.error, converged, self.history,
                              self.stalls)


def adaptive_solve_many(spec: ProblemSpec, n_cells: int, configs) -> list[AdaptiveResult]:
    """Run the solve-remesh loop of each config from the uniform grid, all
    in lockstep; returns one result per config, in their order.  The
    configs must share eps, max_outer, inner_tol and inner_max_iter."""
    # rows of equal beta side by side: the monitor takes one power per run of them
    runs = sorted((_Run(i, cfg) for i, cfg in enumerate(configs)), key=lambda run: run.config.beta)
    stops = {(run.config.eps, run.config.max_outer, run.config.inner_tol,
              run.config.inner_max_iter) for run in runs}
    if len(stops) > 1:
        raise ValueError("the configs of one batch must share eps, max_outer, inner_tol and "
                         "inner_max_iter")
    if not runs:
        return []
    stops, = stops
    eps, max_outer, inner_tol, inner_max_iter = stops
    results = [None] * len(runs)
    # the rows' alpha and beta, as the Python floats the monitor takes, filtered as runs is
    params = [[float(run.config.alpha) for run in runs], [float(run.config.beta) for run in runs]]
    x = np.repeat(uniform_grid(spec, n_cells).nodes[None], len(runs), axis=0)
    prev_values = None
    n = 0
    while True:
        n += 1
        values = solve_stack(x, spec)
        errors = row_largest(abs(values - np.exp(spec.lam * (x - spec.ell))))
        if prev_values is None:
            changes = [np.nan] * len(runs)
        else:
            changes = row_largest(abs(values - prev_values))
        keep = []
        for i, (run, error, change) in enumerate(zip(runs, errors, changes)):
            if run.solved(n, error, change, eps):
                results[run.index] = run.result(spec, x[i], values[i], True)
            else:
                keep.append(i)
        if len(keep) < 2:  # the last row remeshes in the lone loop
            for i in keep:
                results[runs[i].index] = _adapt_row(spec, runs[i], x[i], values[i], n, stops)
            break
        if len(keep) < len(runs):
            runs = [runs[i] for i in keep]
            params = [[column[i] for i in keep] for column in params]
            x, values = x[keep], values[keep]

        alphas, betas = params
        try:
            inner = _sweep_rows(DiscreteGradientMonitor._trusted(alphas, betas, x, values), x,
                                inner_tol, inner_max_iter)
        except MonotonicityError as err:
            raise _collapse(spec, n_cells, runs[err.row].config, err) from None
        target = np.array([nodes for nodes, _, _, _ in inner])
        # exact at the ends: 0 + r*(0 - 0) == 0 and ell + r*(ell - ell) == ell
        new = x + per_row([run.relax for run in runs]) * (target - x)
        grid_changes = row_largest(abs(new - x))
        moved = []
        for i, (run, grid_change, swept) in enumerate(zip(runs, grid_changes, inner)):
            if run.remeshed(n, grid_change, swept, inner_tol):
                results[run.index] = run.result(spec, x[i], values[i], True)
            else:
                moved.append(i)
        # the check of Grid(new[i]): the ends are exact, so this is the strict increase
        checked = new if len(moved) == len(new) else new[moved]
        if len(checked) and not smallest(checked[:, 1:] > checked[:, :-1]):
            raise ValueError("grid nodes must be strictly increasing")
        if n == max_outer or not moved:  # at max_outer all stop; with none moved, none is left
            for i in moved:
                results[runs[i].index] = runs[i].result(spec, x[i], values[i], False)
            break
        x, prev_values = new, values
        if len(moved) < len(runs):  # a lone row left takes one more stacked solve, then leaves
            runs = [runs[i] for i in moved]
            params = [[column[i] for i in moved] for column in params]
            x, prev_values = new[moved], values[moved]
    return results


def _adapt_row(spec: ProblemSpec, run: _Run, x: np.ndarray, values: np.ndarray, n: int,
               stops: tuple) -> AdaptiveResult:
    """adaptive_solve_many's loop for run's config alone, on its 1-D grid
    x: the same arithmetic and exits in the same order, with no stack.

    It takes over at the remesh of outer step n, once that step's solve
    and eps check are done: values is the solution on x, whose error,
    change and damping run holds.  run keeps the record and the rules
    (_Run.solved and _Run.remeshed) as it does in the stack loop; its
    monitor is the one-grid DiscreteGradientMonitor._trusted, its sweeps
    are equidist._sweep_row and its solves solve_stack on the stack of x
    alone.  stops are the batch's eps, max_outer, inner_tol and
    inner_max_iter.
    """
    eps, max_outer, inner_tol, inner_max_iter = stops
    config = run.config
    alphas, betas = [float(config.alpha)], [float(config.beta)]
    while True:
        monitor = DiscreteGradientMonitor._trusted(alphas, betas, x, values)
        try:
            inner = _sweep_row(monitor, x, inner_tol, inner_max_iter)
        except MonotonicityError as err:
            raise _collapse(spec, len(x) - 1, config, err) from None
        step = inner[0] - x
        if run.relax != 1.0:  # a factor 1 changes no bit
            step *= run.relax
        new = x + step
        if run.remeshed(n, largest(abs(new - x)), inner, inner_tol):
            return run.result(spec, x, values, True)
        if not smallest(new[1:] > new[:-1]):
            raise ValueError("grid nodes must be strictly increasing")
        if n == max_outer:
            return run.result(spec, x, values, False)
        n += 1
        x, prev_values = new, values
        values = solve_stack(x[None], spec)[0]
        if run.solved(n, largest(abs(values - np.exp(spec.lam * (x - spec.ell)))),
                      largest(abs(values - prev_values)), eps):
            return run.result(spec, x, values, True)


def _collapse(spec: ProblemSpec, n_cells: int, config: AdaptiveConfig,
              err: MonotonicityError) -> ParameterError:
    """The error of a sweep whose nodes collided under config's monitor."""
    return ParameterError(f"1 + alpha*|u_x|**beta varies too much over the cells to "
                          f"equidistribute them: {err}", lam=spec.lam, ell=spec.ell,
                          n_cells=n_cells, alpha=config.alpha, beta=config.beta)


def adaptive_solve(spec: ProblemSpec, n_cells: int, config: AdaptiveConfig) -> AdaptiveResult:
    """Run the solve-remesh loop from the uniform grid."""
    return adaptive_solve_many(spec, n_cells, [config])[0]
