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
from functools import cached_property

import numpy as np

from .problem import ParameterError, ProblemSpec, require, require_count, smallest


@dataclass(frozen=True)
class Grid:
    """Immutable node set with step accessors."""

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

    @classmethod
    def _adopt(cls, nodes: np.ndarray, ell: float) -> "Grid":
        """Grid that takes over nodes, a fresh array, without a copy or a
        check: for the grid makers below, which have checked what
        __post_init__ checks."""
        nodes.flags.writeable = False
        grid = object.__new__(cls)
        object.__setattr__(grid, "nodes", nodes)
        object.__setattr__(grid, "ell", ell)
        return grid

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


@dataclass(frozen=True)
class GridMapping:
    """Closed-form mapping x(q) for the monitor (u_x)^beta; beta = 0 is uniform."""

    spec: ProblemSpec
    beta: float = 0.0

    def __post_init__(self):
        require("beta", self.beta, 0.0)

    def check_layer_width(self) -> None:
        """Raise ParameterError if the layer width 1/(beta*lam) is below one ulp
        of ell: the mapping then rounds every node but x(0) to ell, so no
        grid it generates has distinct nodes."""
        spec = self.spec
        # width < ulp(ell), written without the division, which can overflow
        if self.beta * spec.lam * math.ulp(spec.ell) > 1.0:
            raise ParameterError("the layer width 1/(beta*lam) is below one ulp of ell, so the "
                                 "mapped nodes collapse onto ell",
                                 lam=spec.lam, ell=spec.ell, beta=self.beta)

    @cached_property
    def _decay(self) -> float:
        """e^{-beta*lam*ell}, formed once per mapping; warns, on first use,
        if it underflows to zero.  Then evaluate(0) is ln(0) = -inf, and
        derivative and second_derivative are +inf and -inf at q = 0, all
        three without a numpy warning, though x(j/N) for j >= 1 is
        unaffected.  The warning stays because GridMapping is public and
        nothing else tells a caller of evaluate(0) why it is -inf;
        analytic_mapped_grid pins x(0) to 0."""
        arg = self.beta * self.spec.lam * self.spec.ell
        e = np.exp(-arg)
        if e == 0.0:
            warnings.warn(
                f"exp(-beta*lam*ell) underflows for beta*lam*ell = {arg}; "
                "evaluate(0) is -inf there, and analytic_mapped_grid pins x(0) to 0",
                RuntimeWarning,
            )
        return float(e)

    def evaluate(self, q):
        """Physical coordinate x(q) for q in [0, 1]."""
        q = np.asarray(q, dtype=float)
        spec = self.spec
        if self.beta == 0.0:
            return q * spec.ell
        e = self._decay
        # ell + ln(q + (1 - q) e) / (beta lam), built in one array
        x = np.subtract(1.0, q, out=np.empty(q.shape))
        x *= e
        x += q
        with np.errstate(divide="ignore"):
            np.log(x, out=x)
        x /= self.beta * spec.lam
        x += spec.ell
        return x if x.ndim else x[()]

    def derivative(self, q):
        """Jacobian dx/dq of the mapping; +inf at q = 0 where
        e^{-beta*lam*ell} underflows (see _decay), as evaluate(0) is -inf."""
        q = np.asarray(q, dtype=float)
        spec = self.spec
        if self.beta == 0.0:
            return np.full_like(q, spec.ell)
        e = self._decay
        with np.errstate(divide="ignore"):
            return (1.0 - e) / (self.beta * spec.lam * (q + (1.0 - q) * e))

    def second_derivative(self, q):
        """d^2x/dq^2 of the mapping; -inf at q = 0 where e^{-beta*lam*ell}
        underflows (see _decay), as evaluate(0) is -inf."""
        q = np.asarray(q, dtype=float)
        spec = self.spec
        if self.beta == 0.0:
            return np.zeros_like(q)
        e = self._decay
        with np.errstate(divide="ignore"):
            return -((1.0 - e) ** 2) / (self.beta * spec.lam * (q + (1.0 - q) * e) ** 2)


def uniform_grid(spec: ProblemSpec, n_cells: int) -> Grid:
    """Equally spaced grid x_j = j*ell/N."""
    require_count("n_cells", n_cells, 2)
    nodes = np.arange(n_cells + 1, dtype=float)
    nodes /= n_cells
    nodes *= spec.ell
    # an ell of a few subnormal steps rounds neighbours together
    if not smallest(nodes[1:] > nodes[:-1]):
        raise ParameterError(f"ell is too small for {n_cells} distinct steps, so uniform nodes "
                             "collide", ell=spec.ell, n_cells=n_cells)
    return Grid._adopt(nodes, spec.ell)


def analytic_mapped_grid(mapping: GridMapping, n_cells: int) -> Grid:
    """Grid x_j = x(j/N) from the closed-form mapping, endpoints pinned."""
    if mapping.beta == 0.0:  # x(q) = q*ell, bit for bit
        return uniform_grid(mapping.spec, n_cells)
    require_count("n_cells", n_cells, 2)
    mapping.check_layer_width()
    q = np.arange(n_cells + 1, dtype=float)
    q /= n_cells
    nodes = mapping.evaluate(q)
    spec = mapping.spec
    # roundoff (or underflow at q=0) in the log/exp composition must not
    # move the boundary nodes
    nodes[0] = 0.0
    nodes[-1] = spec.ell
    # a width of a few ulps of ell passes check_layer_width, yet neighbours near
    # ell may collide; so may all nodes where a layer much wider than ell makes
    # e^{-beta*lam*ell} round to about 1
    if not smallest(nodes[1:] > nodes[:-1]):
        arg = mapping.beta * spec.lam * spec.ell
        cause = (f"beta*lam*ell = {arg!r} is too small for the mapping to resolve "
                 f"{n_cells} cells" if arg < 1.0 else
                 f"the layer width 1/(beta*lam) spans too few ulps of ell for {n_cells} cells")
        raise ParameterError(f"{cause}, so mapped nodes collide", lam=spec.lam, ell=spec.ell,
                             beta=mapping.beta, n_cells=n_cells)
    return Grid._adopt(nodes, spec.ell)
