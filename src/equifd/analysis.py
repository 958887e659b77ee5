"""Error norms, convergence-order estimation, and consistency analysis.

The headline diagnostic is the fourth-order condition: the scheme's
leading consistency term on a mapped grid is proportional to

    x_qq * u_xxx + (1/4) * x_q^2 * u_xxxx,

which vanishes identically for the (u_x)^{1/4} mapping.  Grids built
from that monitor therefore turn the second-order scheme into a
fourth-order one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, GridMapping
from .problem import ProblemSpec, exact_derivative, exact_solution
from .solver import DiscreteSolution, scheme_residual


def max_error(solution: DiscreteSolution) -> float:
    """Max-norm distance to the exact solution at the nodes."""
    exact = exact_solution(solution.spec, solution.grid.nodes)
    return float(abs(solution.values - exact).max())


def convergence_order(error_coarse: float, error_fine: float) -> float:
    """log2 of the error ratio under mesh doubling."""
    if error_coarse <= 0.0 or error_fine <= 0.0:
        raise ValueError("errors must be positive to estimate an order")
    return float(np.log2(error_coarse / error_fine))


def consistency_error(grid: Grid, spec: ProblemSpec) -> np.ndarray:
    """Scheme residual with the exact solution inserted, at interior nodes."""
    return scheme_residual(grid, exact_solution(spec, grid.nodes), spec.lam)


def fourth_order_residual(mapping: GridMapping, q, normalized: bool = True):
    """Leading consistency combination of a mapping at reference points q.

    Returns (t1 + t2) / (|t1| + |t2|) by default, where
    t1 = x_qq * u_xxx and t2 = (1/4) * x_q^2 * u_xxxx; the raw sum is
    returned with normalized=False.  Identically zero only for
    beta = 1/4.
    """
    q = np.asarray(q, dtype=float)
    if not ((q > 0.0) & (q < 1.0)).all():  # written so that a NaN q fails too
        raise ValueError("q must lie strictly inside (0, 1)")
    x = mapping.evaluate(q)
    t1 = mapping.second_derivative(q) * exact_derivative(mapping.spec, x, 3)
    t2 = 0.25 * mapping.derivative(q) ** 2 * exact_derivative(mapping.spec, x, 4)
    if normalized:
        return (t1 + t2) / (np.abs(t1) + np.abs(t2) + np.finfo(float).tiny)
    return t1 + t2


@dataclass(frozen=True)
class ConvergenceReport:
    """Refinement ladder: rows of (N, max error, estimated order)."""

    rows: list
    label: str = ""

    @classmethod
    def from_errors(cls, n_values, errors, label: str = "") -> "ConvergenceReport":
        rows = []
        for k, (n, e) in enumerate(zip(n_values, errors)):
            p = convergence_order(errors[k - 1], e) if k > 0 else None
            rows.append((int(n), float(e), p))
        return cls(rows, label)

    @property
    def errors(self) -> list:
        return [r[1] for r in self.rows]

    @property
    def orders(self) -> list:
        return [r[2] for r in self.rows]

    def write_csv(self, path) -> None:
        from .io import write_csv

        ns = [r[0] for r in self.rows]
        ps = [np.nan if r[2] is None else r[2] for r in self.rows]
        write_csv(path, ["N", "error", "p"], [ns, self.errors, ps])

    def format_table(self) -> str:
        lines = [f"{'N':>6}  {'error':>10}  {'p':>6}    {self.label}"]
        for n, e, p in self.rows:
            ptxt = "---" if p is None else f"{p:.3g}"
            lines.append(f"{n:>6}  {e:>10.3g}  {ptxt:>6}")
        return "\n".join(lines)


def refinement_ladder(spec: ProblemSpec, grid_factory, n_values, label: str = "") -> ConvergenceReport:
    """Solve on grid_factory(N) for each N and report errors and orders."""
    from .solver import solve_bvp

    errors = [max_error(solve_bvp(grid_factory(n), spec)) for n in n_values]
    return ConvergenceReport.from_errors(n_values, errors, label)
