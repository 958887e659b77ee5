"""Grids on [0, ell] and the closed-form node mappings that generate them.

A grid is a strictly increasing node set x_0 = 0 < x_1 < ... < x_N = ell.
Non-uniform grids come from a mapping x(q) of the reference interval
[0, 1]; equidistributing the monitor (u_x)^beta gives the mapping in
closed form,

    x(q) = ell + ln(q + (1 - q) e^{-beta*lam*ell}) / (beta*lam),  beta > 0,

with the uniform grid x(q) = q*ell as the beta = 0 member.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .problem import ProblemSpec, require, smallest


@dataclass(frozen=True)
class Grid:
    """Immutable node set with step and Jacobian accessors."""

    nodes: np.ndarray
    ell: float

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("grid needs at least 3 nodes (N >= 2)")
        if not math.isfinite(self.ell):
            raise ValueError(f"grid length ell must be finite, got {self.ell}")
        if nodes[0] != 0.0 or nodes[-1] != self.ell:
            raise ValueError("grid endpoints must be exactly 0 and ell")
        # written so that a NaN node fails the check too
        if not smallest(nodes[1:] > nodes[:-1]):
            raise ValueError("grid nodes must be strictly increasing")
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def n_cells(self) -> int:
        """Number of intervals N."""
        return self.nodes.size - 1

    @property
    def steps(self) -> np.ndarray:
        """Interval lengths h_{j+1/2} = x_{j+1} - x_j, length N."""
        return self.nodes[1:] - self.nodes[:-1]

    @property
    def node_steps(self) -> np.ndarray:
        """Averaged steps at interior nodes, (h_{j-1/2} + h_{j+1/2})/2, length N-1."""
        s = self.steps
        return 0.5 * (s[:-1] + s[1:])

    @property
    def midpoint_jacobian(self) -> np.ndarray:
        """J_{j+1/2} = h_{j+1/2} / h, length N."""
        return self.steps * self.n_cells

    @property
    def max_step(self) -> float:
        return float(np.max(self.steps))

    @property
    def midpoints(self) -> np.ndarray:
        """Arithmetic interval midpoints, length N."""
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])

    def write_csv(self, path) -> None:
        """Single-column CSV with header 'x', one node per row."""
        from .io import write_csv

        write_csv(path, ["x"], [self.nodes])


@dataclass(frozen=True)
class GridMapping:
    """Closed-form mapping x(q) for the monitor (u_x)^beta; beta = 0 is uniform."""

    spec: ProblemSpec
    beta: float = 0.0

    def __post_init__(self):
        require("beta", self.beta, 0.0)

    def check_layer_width(self) -> None:
        """Raise ValueError if the layer width 1/(beta*lam) is below one ulp
        of ell: the mapping then rounds every node but x(0) to ell, so no
        grid it generates has distinct nodes."""
        spec = self.spec
        # width < ulp(ell), written without the division, which can overflow
        if self.beta * spec.lam * math.ulp(spec.ell) > 1.0:
            raise ValueError(
                f"the layer width 1/(beta*lam) is below one ulp of ell, so the mapped nodes "
                f"collapse onto ell (lam={spec.lam}, ell={spec.ell}, beta={self.beta})")

    def _decay(self) -> float:
        """e^{-beta*lam*ell}; warns if it underflows to zero."""
        arg = self.beta * self.spec.lam * self.spec.ell
        e = np.exp(-arg)
        if e == 0.0:
            warnings.warn(
                f"exp(-beta*lam*ell) underflows for beta*lam*ell = {arg}; "
                "the mapped endpoint x(0) is pinned to 0 explicitly",
                RuntimeWarning,
            )
        return float(e)

    def evaluate(self, q):
        """Physical coordinate x(q) for q in [0, 1]."""
        q = np.asarray(q, dtype=float)
        spec = self.spec
        if self.beta == 0.0:
            return q * spec.ell
        e = self._decay()
        with np.errstate(divide="ignore"):
            return spec.ell + np.log(q + (1.0 - q) * e) / (self.beta * spec.lam)

    def derivative(self, q):
        """Jacobian dx/dq of the mapping."""
        q = np.asarray(q, dtype=float)
        spec = self.spec
        if self.beta == 0.0:
            return np.full_like(q, spec.ell)
        e = self._decay()
        return (1.0 - e) / (self.beta * spec.lam * (q + (1.0 - q) * e))

    def second_derivative(self, q):
        """d^2x/dq^2 of the mapping."""
        q = np.asarray(q, dtype=float)
        spec = self.spec
        if self.beta == 0.0:
            return np.zeros_like(q)
        e = self._decay()
        return -((1.0 - e) ** 2) / (self.beta * spec.lam * (q + (1.0 - q) * e) ** 2)


def uniform_grid(spec: ProblemSpec, n_cells: int) -> Grid:
    """Equally spaced grid x_j = j*ell/N."""
    require("n_cells", n_cells, 2)
    q = np.arange(n_cells + 1) / n_cells
    return Grid(q * spec.ell, spec.ell)


def analytic_mapped_grid(mapping: GridMapping, n_cells: int) -> Grid:
    """Grid x_j = x(j/N) from the closed-form mapping, endpoints pinned."""
    require("n_cells", n_cells, 2)
    mapping.check_layer_width()
    q = np.arange(n_cells + 1) / n_cells
    nodes = np.asarray(mapping.evaluate(q), dtype=float)
    # roundoff (or underflow at q=0) in the log/exp composition must not
    # move the boundary nodes
    nodes[0] = 0.0
    nodes[-1] = mapping.spec.ell
    return Grid(nodes, mapping.spec.ell)
