"""Solution-adaptive outer loop: solve, remesh, repeat.

Each outer iteration solves the layer problem on the current grid,
builds the monitor 1 + alpha*|u_x|^beta from that discrete solution,
and equidistributes it to obtain the next grid.  The loop stops when
two consecutive solutions agree at like node indices to within eps
(the solutions live on different grids; the comparison is deliberately
index-wise), or when the grid itself stops moving.

The solve-remesh alternation can oscillate for aggressive monitors
(large alpha with beta >= 1); as in the inner solver, the grid update
is progressively damped whenever the solution change grows.  A stalled
inner equidistribution (possible for rough piecewise-constant monitors,
which need not admit an exact discrete fixed point) is not fatal: the
inner solver stops at the first exact cycle at its damping floor, its
best iterate is taken, the stall is counted in the result, and the outer
iteration proceeds.

adaptive_solve_many runs the loops of many configs in lockstep, one row
of a stack of grids per config, so that each numpy call of an outer step
serves every row: the rows' solution errors come from one np.exp, the
monitors of all rows with one beta from one power, and one stacked sweep
loop (equidist.sweep_rows) equidistributes them all.  Each row keeps its
own damping, best iterate, cycle check, sweep count and tolerances, and
leaves the stack when it stops, so the others go on as if alone; each
row's solve is solver._solve_short on the row as a list.  Every result
is bit for bit that of running its config on its own: the arithmetic of
every row is the one-config loop's, in the same order.  adaptive_solve
is the one-config case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .equidist import DAMPING_FLOOR, _checked, sweep_rows
from .grid import Grid, uniform_grid
from .monitor import gradient_weights
from .problem import ProblemSpec, per_row, require, row_largest, smallest
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
        require("max_outer", self.max_outer, 1)
        require("inner_max_iter", self.inner_max_iter, 1)


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
    history: list = field(default_factory=list)
    inner_stalls: int = 0

    def write_trace_csv(self, path) -> None:
        from .io import write_csv

        cols = list(zip(*self.history)) if self.history else [[]] * len(TRACE_COLUMNS)
        write_csv(path, TRACE_COLUMNS, cols)


class _Run:
    """One config's place in the lockstep loop and what it has done so far."""

    __slots__ = ("index", "config", "alpha", "beta", "relax", "error", "change", "prev_change",
                 "history", "stalls")

    def __init__(self, index: int, config: AdaptiveConfig):
        self.index = index  # the config's place in the caller's list
        self.config = config
        self.alpha = float(config.alpha)
        self.beta = float(config.beta)
        self.relax = 1.0
        self.error = self.change = None  # of the current outer step
        self.prev_change = None
        self.history = []
        self.stalls = 0

    def result(self, spec, nodes, values, converged) -> AdaptiveResult:
        solution = DiscreteSolution(Grid(nodes, spec.ell), values, spec)
        return AdaptiveResult(solution, len(self.history), self.error, converged, self.history,
                              self.stalls)


def _lookup(x: np.ndarray, breaks: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The gradient monitors' weights at the midpoints of the stacked
    iterates x: each row looks its midpoints up in its own breakpoints.

    As in DiscreteGradientMonitor.interval_values, a row's monitor is
    piecewise constant over the grid it was built on.  One searchsorted a
    row keeps each lookup exact; adding row offsets to the floats to
    search them all at once would round them and move lookups.
    """
    mid = 0.5 * (x[:, :-1] + x[:, 1:])
    if len(x) == 1:  # the same lookup, without stacking a list of rows
        return _checked(table.take(breaks[0].searchsorted(mid[0], "right")[None]))
    return _checked(np.array([w[b.searchsorted(m, "right")]
                              for w, b, m in zip(table, breaks, mid)]))


def _monitor_table(runs: list, x: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each row's interval weights, with one gradient_weights call per run
    of rows that share beta (the rows are sorted by beta)."""
    starts = [0] + [i for i in range(1, len(runs)) if runs[i].beta != runs[i - 1].beta]
    tables = []
    for start, stop in zip(starts, starts[1:] + [len(runs)]):
        alpha = per_row([run.alpha for run in runs[start:stop]])
        tables.append(gradient_weights(alpha, runs[start].beta, x[start:stop],
                                       values[start:stop]))
    return tables[0] if len(tables) == 1 else np.concatenate(tables)


def adaptive_solve_many(spec: ProblemSpec, n_cells: int, configs) -> list[AdaptiveResult]:
    """Run the solve-remesh loop of each config from the uniform grid, all
    in lockstep; returns one result per config, in their order."""
    runs = sorted((_Run(i, cfg) for i, cfg in enumerate(configs)), key=lambda run: run.beta)
    results = [None] * len(runs)
    x = np.repeat(uniform_grid(spec, n_cells).nodes[None], len(runs), axis=0)
    prev_values = None
    n = 0
    while runs:
        n += 1
        values = solve_stack(x, spec.ell, spec.lam, spec.left_bc, spec.right_bc)
        errors = row_largest(abs(values - np.exp(spec.lam * (x - spec.ell))))
        if prev_values is None:
            changes = [np.nan] * len(runs)
        else:
            changes = row_largest(abs(values - prev_values))
        keep = []
        for i, (run, error, change) in enumerate(zip(runs, errors, changes)):
            run.error, run.change = error, change
            if prev_values is not None:
                if change < run.config.eps:
                    run.history.append((n, error, change, 0.0, 0, 0, run.relax))
                    results[run.index] = run.result(spec, x[i], values[i], True)
                    continue
                if run.prev_change is not None and change > run.prev_change:
                    run.relax = max(0.5 * run.relax, DAMPING_FLOOR)
                run.prev_change = change
            keep.append(i)
        if len(keep) < len(runs):
            if not keep:
                break
            runs = [runs[i] for i in keep]
            x, values = x[keep], values[keep]

        inner = sweep_rows(_lookup, x, (x[:, 1:-1], _monitor_table(runs, x, values)),
                           [run.config.inner_tol for run in runs],
                           [run.config.inner_max_iter for run in runs])
        target = np.array([nodes for nodes, _, _, _ in inner])
        # exact at the ends: 0 + r*(0 - 0) == 0 and ell + r*(ell - ell) == ell
        new = x + per_row([run.relax for run in runs]) * (target - x)
        grid_changes = row_largest(abs(new - x))
        keep, moved = [], []
        for i, (run, grid_change, (_, sweeps, _, message)) in enumerate(
                zip(runs, grid_changes, inner)):
            stalled = 0 if message is None else 1
            run.stalls += stalled
            run.history.append((n, run.error, run.change, grid_change, sweeps, stalled, run.relax))
            if grid_change < run.config.inner_tol:
                # stationary grid: the next solve would reproduce this solution
                results[run.index] = run.result(spec, x[i], values[i], True)
                continue
            moved.append(i)
            if n == run.config.max_outer:
                results[run.index] = run.result(spec, x[i], values[i], False)
            else:
                keep.append(i)
        # the check of Grid(new[i]): the ends are exact, so this is the strict increase
        checked = new if len(moved) == len(new) else new[moved]
        if len(checked) and not smallest(checked[:, 1:] > checked[:, :-1]):
            raise ValueError("grid nodes must be strictly increasing")
        x, prev_values = new, values
        if len(keep) < len(runs):
            runs = [runs[i] for i in keep]
            x, prev_values = new[keep], values[keep]
    return results


def adaptive_solve(spec: ProblemSpec, n_cells: int, config: AdaptiveConfig) -> AdaptiveResult:
    """Run the solve-remesh loop from the uniform grid."""
    return adaptive_solve_many(spec, n_cells, [config])[0]
