"""Monitor functions for grid equidistribution.

A monitor assigns a positive weight to each grid interval; the
equidistribution solver places nodes so that weight times interval
length is constant.  Three families are provided: a constant weight,
the analytic power monitor (u_x)^beta, and the solution-adaptive
monitor 1 + alpha*|u_x|^beta built from a discrete solution.

interval_values maps the N+1 nodes of one grid to its N weights.  A
monitor built on a stack of grids, one per row (DiscreteGradientMonitor,
the package's one lookup of a discrete monitor), also maps a stack of
(rows, N+1) nodes to (rows, N) weights, and rows(keep) gives the monitor
of the rows that remain; a monitor whose weights do not depend on the row
returns itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .problem import (ParameterError, ProblemSpec, check_domain, largest, per_row, require,
                      smallest)
from .problem import exact_derivative  # noqa: F401 -- unused; perfbench/tracer.py wraps this name


class MonitorFunction:
    """Base class: a positive weight attached to grid intervals."""

    def interval_values(self, nodes: np.ndarray) -> np.ndarray:
        """Weights for the N intervals of the given node array."""
        raise NotImplementedError

    def rows(self, keep) -> "MonitorFunction":
        """The monitor for the rows keep of the stack it serves."""
        return self


@dataclass(frozen=True)
class ConstantMonitor(MonitorFunction):
    """Uniform weight; equidistributes to the uniform grid."""

    value: float = 1.0

    def __post_init__(self):
        require("monitor value", self.value, 0.0, strict=True)

    def interval_values(self, nodes: np.ndarray) -> np.ndarray:
        return np.full(len(nodes) - 1, self.value)


@dataclass(frozen=True)
class ExactPowerMonitor(MonitorFunction):
    """(u_x)^beta with the exact derivative, sampled at interval midpoints.

    With u_x = lam e^{lam(x - ell)} the power is taken in the exponent,
    (u_x)^beta = e^{beta lam (x - ell) + beta ln lam}: one exp per interval
    and no pow.  Its underflow and overflow limits are those of the exact
    value, so for beta < 1 it stays positive where lam e^{lam(x - ell)}
    itself underflows to 0.
    """

    spec: ProblemSpec
    beta: float
    _rate: float = field(init=False, repr=False, compare=False)  # beta*lam
    _shift: float = field(init=False, repr=False, compare=False)  # beta*ln(lam)

    def __post_init__(self):
        beta = float(require("beta", self.beta, 0.0))
        lam = float(self.spec.lam)
        # Python floats overflow to inf here without a numpy warning
        rate, shift = beta * lam, beta * math.log(lam)
        if not (math.isfinite(rate) and math.isfinite(shift)):
            raise ParameterError(f"beta*lam and beta*ln(lam) must be finite, "
                                 f"got beta={self.beta}, lam={self.spec.lam}",
                                 tail=False, beta=self.beta, lam=self.spec.lam)
        object.__setattr__(self, "_rate", rate)
        object.__setattr__(self, "_shift", shift)

    def interval_values(self, nodes: np.ndarray) -> np.ndarray:
        y = check_domain(self.spec, 0.5 * (nodes[:-1] + nodes[1:]))
        # the midpoints become the exponent in place: no temporary per step
        y -= self.spec.ell
        y *= self._rate
        y += self._shift
        return np.exp(y, out=y)


class DiscreteGradientMonitor(MonitorFunction):
    """1 + alpha*|u_x|^beta with |u_x| taken from a discrete solution.

    The slope on each interval of the solution's own grid is the
    difference quotient |u_{k+1} - u_k| / h_{k+1/2}; as a function of x
    the monitor is piecewise constant, so querying any node set looks up
    the containing interval.  nodes and values are one grid and its
    solution, with alpha and beta numbers, or stacks of them with one grid
    per row, with alpha and beta one per row.
    """

    def __init__(self, alpha, beta, nodes, values):
        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if (values.shape != nodes.shape or nodes.ndim not in (1, 2) or nodes.shape[-1] < 2
                or not len(nodes)):
            raise ValueError(f"nodes and values must be one grid or a stack of grids, of one "
                             f"shape, got {nodes.shape} and {values.shape}")
        if nodes.ndim == 1:
            nodes, values, alpha, beta = nodes[None], values[None], [alpha], [beta]
        rows = len(nodes)
        alphas = [float(require("alpha", a, 0.0)) for a in alpha]
        betas = [float(require("beta", b, 0.0)) for b in beta]
        if len(alphas) != rows or len(betas) != rows:
            raise ValueError(f"alpha and beta must give one value per grid ({rows})")
        steps = nodes[:, 1:] - nodes[:, :-1]
        if not smallest(steps > 0.0):  # a NaN node fails the comparison too
            raise ValueError("nodes must be strictly increasing")
        if not smallest(np.isfinite(values)):
            raise ValueError("values must be finite")
        # one power per run of rows with equal beta, which stays one Python
        # float: numpy takes its sqrt and square paths for a scalar 0.5 and 2,
        # whose results differ from those of pow
        starts = [0] + [i for i in range(1, rows) if betas[i] != betas[i - 1]]
        with np.errstate(all="ignore"):  # overflow is checked once, below
            slopes = abs(values[:, 1:] - values[:, :-1]) / steps
            tables = [1.0 + per_row(alphas[start:stop]) * slopes[start:stop]**betas[start]
                      for start, stop in zip(starts, starts[1:] + [rows])]
        weights = tables[0] if len(tables) == 1 else np.concatenate(tables)
        if not largest(weights) < math.inf:  # NaN, where alpha = 0 meets |u_x|**beta = inf
            row = int(np.isfinite(weights).all(axis=1).argmin())
            raise ParameterError("monitor weights 1 + alpha*|u_x|**beta overflow",
                                 alpha=alphas[row], beta=betas[row])
        self._weights = weights
        # interior breakpoints only: a query left of the first node or right
        # of the last one lands in the end interval
        self._breaks = nodes[:, 1:-1]

    def interval_values(self, nodes: np.ndarray) -> np.ndarray:
        """Weights of one grid's intervals, for a monitor on one grid, or
        of a stack's, each row looked up in the same row of the monitor."""
        mid = 0.5 * (nodes[..., :-1] + nodes[..., 1:])
        rows = len(mid) if mid.ndim == 2 else 1
        if rows != len(self._weights):
            raise ValueError(f"the monitor holds {len(self._weights)} grids, got {rows}")
        if mid.ndim == 1:
            return self._weights[0][self._breaks[0].searchsorted(mid, "right")]
        # one searchsorted a row keeps each lookup exact; adding row offsets to
        # the floats to search them all at once would round them and move lookups
        return np.array([w[b.searchsorted(m, "right")]
                         for w, b, m in zip(self._weights, self._breaks, mid)])

    def rows(self, keep) -> "DiscreteGradientMonitor":
        monitor = object.__new__(DiscreteGradientMonitor)
        monitor._weights, monitor._breaks = self._weights[keep], self._breaks[keep]
        return monitor


@dataclass(frozen=True)
class ScaledMonitor(MonitorFunction):
    """c * omega for c > 0; equidistribution is invariant under this."""

    inner: MonitorFunction
    factor: float

    def __post_init__(self):
        require("scale factor", self.factor, 0.0, strict=True)

    def interval_values(self, nodes: np.ndarray) -> np.ndarray:
        return self.factor * self.inner.interval_values(nodes)

    def rows(self, keep) -> "ScaledMonitor":
        return ScaledMonitor(self.inner.rows(keep), self.factor)
