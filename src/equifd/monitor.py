"""Monitor functions for grid equidistribution.

A monitor assigns a positive weight to each grid interval; the
equidistribution solver places nodes so that weight times interval
length is constant.  Three families are provided: a constant weight,
the analytic power monitor (u_x)^beta, and the solution-adaptive
monitor 1 + alpha*|u_x|^beta built from a discrete solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import ProblemSpec, exact_derivative, require


class MonitorFunction:
    """Base class: a positive weight attached to grid intervals."""

    def interval_values(self, nodes: np.ndarray) -> np.ndarray:
        """Weights for the N intervals of the given node array."""
        raise NotImplementedError

    def scaled(self, factor: float) -> "ScaledMonitor":
        return ScaledMonitor(self, factor)


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
    """(u_x)^beta with the exact derivative, sampled at interval midpoints."""

    spec: ProblemSpec
    beta: float

    def __post_init__(self):
        require("beta", self.beta, 0.0)

    def interval_values(self, nodes: np.ndarray) -> np.ndarray:
        mid = 0.5 * (nodes[:-1] + nodes[1:])
        return exact_derivative(self.spec, mid, 1) ** self.beta


def gradient_weights(alpha, beta: float, nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Interval weights 1 + alpha*|u_x|^beta of nodal values on their grid.

    The slope of each interval is the difference quotient
    |u_{k+1} - u_k| / h_{k+1/2}.  nodes and values may be stacks with one
    grid per row; alpha is then a number or a column of one per row.
    beta stays one Python float: numpy takes its sqrt and square paths
    for a scalar 0.5 and 2, whose results differ from those of pow.
    """
    slopes = abs(values[..., 1:] - values[..., :-1]) / (nodes[..., 1:] - nodes[..., :-1])
    return 1.0 + alpha * slopes**beta


class DiscreteGradientMonitor(MonitorFunction):
    """1 + alpha*|u_x|^beta with |u_x| taken from a discrete solution.

    The slope on each interval of the solution's own grid is the
    difference quotient |u_{k+1} - u_k| / h_{k+1/2}; as a function of x
    the monitor is piecewise constant, so querying any node set looks up
    the containing interval.
    """

    def __init__(self, alpha: float, beta: float, nodes, values):
        self.alpha = float(require("alpha", alpha, 0.0))
        self.beta = float(require("beta", beta, 0.0))
        nodes = np.asarray(nodes, dtype=float)
        self._weights = gradient_weights(self.alpha, self.beta, nodes,
                                         np.asarray(values, dtype=float))
        # interior breakpoints only: a query left of the first node or right
        # of the last one lands in the end interval
        self._breaks = nodes[1:-1]

    @classmethod
    def from_solution(cls, alpha: float, beta: float, solution) -> "DiscreteGradientMonitor":
        return cls(alpha, beta, solution.grid.nodes, solution.values)

    def interval_values(self, nodes: np.ndarray) -> np.ndarray:
        mid = 0.5 * (nodes[:-1] + nodes[1:])
        return self._weights[self._breaks.searchsorted(mid, "right")]


@dataclass(frozen=True)
class ScaledMonitor(MonitorFunction):
    """c * omega for c > 0; equidistribution is invariant under this."""

    inner: MonitorFunction
    factor: float

    def __post_init__(self):
        require("scale factor", self.factor, 0.0, strict=True)

    def interval_values(self, nodes: np.ndarray) -> np.ndarray:
        return self.factor * self.inner.interval_values(nodes)
