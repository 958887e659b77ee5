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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import max_error
from .equidist import DAMPING_FLOOR, EquidistributionError, equidistribute
from .grid import Grid, uniform_grid
from .monitor import DiscreteGradientMonitor
from .problem import ProblemSpec, largest, require
from .solver import DiscreteSolution, solve_bvp


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


def adaptive_solve(spec: ProblemSpec, n_cells: int, config: AdaptiveConfig) -> AdaptiveResult:
    """Run the solve-remesh loop from the uniform grid."""
    grid = uniform_grid(spec, n_cells)
    prev_values = None
    prev_change = None
    relax = 1.0
    history = []
    stalls = 0
    converged = False
    for n in range(1, config.max_outer + 1):
        solution = solve_bvp(grid, spec)
        error = max_error(solution)
        change = np.nan
        if prev_values is not None:
            change = largest(abs(solution.values - prev_values))
            if change < config.eps:
                history.append((n, error, change, 0.0, 0, 0, relax))
                converged = True
                break
            if prev_change is not None and change > prev_change:
                relax = max(0.5 * relax, DAMPING_FLOOR)
            prev_change = change

        monitor = DiscreteGradientMonitor.from_solution(config.alpha, config.beta, solution)
        try:
            inner = equidistribute(
                monitor,
                spec,
                n_cells,
                initial=grid,
                tol=config.inner_tol,
                max_iter=config.inner_max_iter,
            )
            target, sweeps, stalled = inner.grid, inner.iterations, 0
        except EquidistributionError as err:
            target, sweeps, stalled = err.grid, err.iterations, 1
        stalls += stalled
        # exact at the ends: 0 + r*(0 - 0) == 0 and ell + r*(ell - ell) == ell
        new_nodes = grid.nodes + relax * (target.nodes - grid.nodes)
        grid_change = largest(abs(new_nodes - grid.nodes))
        history.append((n, error, change, grid_change, sweeps, stalled, relax))
        if grid_change < config.inner_tol:
            # stationary grid: the next solve would reproduce this solution
            converged = True
            break
        prev_values = solution.values
        grid = Grid(new_nodes, spec.ell)
    return AdaptiveResult(solution, n, error, converged, history, stalls)
