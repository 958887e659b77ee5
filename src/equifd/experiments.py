"""Canned experiments: convergence tables, adaptive sweeps, error profiles.

These functions reproduce the package's reference results; the CLI is a
thin wrapper around them.  All of them return plain data and optionally
write CSV files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adapt import AdaptiveConfig, adaptive_solve, adaptive_solve_many
from .analysis import ConvergenceReport, refinement_ladder
from .grid import GridMapping, analytic_mapped_grid
from .io import write_csv
from .problem import ProblemSpec, exact_solution
from .solver import solve_bvp

LADDER = (10, 20, 40, 80, 160, 320, 640)
TABLE1_BETAS = (0.0, 0.25, 0.5, 2.0)
TABLE2_ALPHAS = (0.0, 0.1, 0.5, 1.0, 2.0, 10.0, 1e2, 1e3, 1e4)
TABLE2_BETAS = (0.125, 0.25, 0.5, 1.0, 2.0)


def _beta_label(beta: float) -> str:
    return "uniform" if beta == 0.0 else f"beta={beta:g}"


def run_table1(
    spec: ProblemSpec | None = None,
    n_values=LADDER,
    betas=TABLE1_BETAS,
    csv_path=None,
) -> list[ConvergenceReport]:
    """Convergence ladders for the analytic grid families."""
    spec = spec or ProblemSpec(lam=10.0, ell=1.0)
    reports = []
    for beta in betas:
        mapping = GridMapping(spec, beta)
        factory = lambda n, m=mapping: analytic_mapped_grid(m, n)
        reports.append(refinement_ladder(spec, factory, n_values, _beta_label(beta)))
    if csv_path is not None:
        header = ["N"]
        cols = [list(n_values)]
        for rep in reports:
            tag = rep.label.replace("beta=", "b").replace(".", "_")
            header += [f"error_{tag}", f"p_{tag}"]
            cols.append(rep.errors)
            cols.append([np.nan if p is None else p for p in rep.orders])
        write_csv(csv_path, header, cols)
    return reports


def format_table1(reports: list[ConvergenceReport]) -> str:
    head = f"{'N':>5}"
    for rep in reports:
        head += f" | {rep.label:>10} {'p':>5}"
    lines = [head]
    for i in range(len(reports[0].rows)):
        n = reports[0].rows[i][0]
        line = f"{n:>5}"
        for rep in reports:
            _, e, p = rep.rows[i]
            ptxt = "---" if p is None else f"{p:.3g}"
            line += f" | {e:>10.3g} {ptxt:>5}"
        lines.append(line)
    return "\n".join(lines)


@dataclass(frozen=True)
class SweepCell:
    alpha: float
    beta: float
    error: float
    iterations: int
    converged: bool


def run_table2(
    spec: ProblemSpec | None = None,
    n_cells: int = 20,
    alphas=TABLE2_ALPHAS,
    betas=TABLE2_BETAS,
    eps: float = 1e-10,
    max_outer: int = 5000,
    csv_path=None,
) -> list[SweepCell]:
    """Adaptive-monitor parameter sweep; non-converged cells are flagged.

    All cells run at once, in lockstep (adapt.adaptive_solve_many).
    """
    spec = spec or ProblemSpec(lam=10.0, ell=1.0)
    configs = [AdaptiveConfig(alpha=alpha, beta=beta, eps=eps, max_outer=max_outer)
               for alpha in alphas for beta in betas]
    cells = [SweepCell(cfg.alpha, cfg.beta, res.error_norm, res.outer_iterations, res.converged)
             for cfg, res in zip(configs, adaptive_solve_many(spec, n_cells, configs))]
    if csv_path is not None:
        write_csv(
            csv_path,
            ["alpha", "beta", "error", "n", "converged"],
            [
                [c.alpha for c in cells],
                [c.beta for c in cells],
                [c.error for c in cells],
                [c.iterations for c in cells],
                [int(c.converged) for c in cells],
            ],
        )
    return cells


def format_table2(cells: list[SweepCell]) -> str:
    betas = sorted({c.beta for c in cells})
    alphas = sorted({c.alpha for c in cells})
    by_key = {(c.alpha, c.beta): c for c in cells}
    head = f"{'alpha':>8}"
    for b in betas:
        head += f" | {_beta_label(b):>16}"
    lines = [head]
    for a in alphas:
        line = f"{a:>8g}"
        for b in betas:
            c = by_key[(a, b)]
            mark = "" if c.converged else "*"
            line += f" | {c.error:>9.3g} {c.iterations:>5d}{mark}"
        lines.append(line)
    if any(not c.converged for c in cells):
        lines.append("(* did not reach the stopping tolerance)")
    return "\n".join(lines)


def run_error_profile(
    spec: ProblemSpec | None = None,
    n_cells: int = 80,
    betas=TABLE1_BETAS,
    csv_path=None,
) -> dict:
    """Pointwise errors of the four analytic-grid families at fixed N."""
    spec = spec or ProblemSpec(lam=10.0, ell=1.0)
    xs, errs, labels = [], [], []
    profiles = {}
    for beta in betas:
        grid = analytic_mapped_grid(GridMapping(spec, beta), n_cells)
        sol = solve_bvp(grid, spec)
        err = np.abs(sol.values - exact_solution(spec, grid.nodes))
        profiles[_beta_label(beta)] = (grid.nodes, err)
        xs.extend(grid.nodes)
        errs.extend(err)
        labels.extend([_beta_label(beta)] * len(err))
    if csv_path is not None:
        write_csv(csv_path, ["x", "abs_error", "monitor_label"], [xs, errs, labels])
    return profiles


def solve_single(spec: ProblemSpec, n_cells: int, grid_mode: str, beta: float = 0.0,
                 alpha: float = 0.0, tol: float = 1e-12, max_iter: int = 10000,
                 eps: float = 1e-10, max_outer: int = 1000):
    """One solve in the requested grid mode; returns (solution, converged)."""
    if grid_mode in ("uniform", "analytic"):
        # the uniform grid is the beta = 0 member of the mapped family
        mapping = GridMapping(spec, 0.0 if grid_mode == "uniform" else beta)
        return solve_bvp(analytic_mapped_grid(mapping, n_cells), spec), True
    if grid_mode == "equidistributed":
        from .equidist import equidistribute
        from .monitor import ExactPowerMonitor

        res = equidistribute(ExactPowerMonitor(spec, beta), spec, n_cells,
                             tol=tol, max_iter=max_iter)
        return solve_bvp(res.grid, spec), True
    if grid_mode == "adaptive":
        cfg = AdaptiveConfig(alpha=alpha, beta=beta, eps=eps, max_outer=max_outer,
                             inner_tol=tol, inner_max_iter=max_iter)
        res = adaptive_solve(spec, n_cells, cfg)
        return res.solution, res.converged
    raise ValueError(f"unknown grid mode {grid_mode!r}")
