"""Monitor functions for grid equidistribution.

A monitor assigns a positive weight to each grid interval; the
equidistribution solver places nodes so that weight times interval
length is constant.  Three families are provided: a unit weight,
the analytic power monitor (u_x)^beta, and the solution-adaptive
monitor 1 + alpha*|u_x|^beta built from a discrete solution.

A monitor serves one grid: interval_values maps its N+1 nodes to its N
weights, and interval_weights checks them.  The one exception is the
adaptive loop's own DiscreteGradientMonitor._trusted, built on one grid
for its lone row or on a stack of grids, one per row: on a stack it maps
(rows, N+1) nodes to (rows, N) weights, and the private _rows(keep)
gives the monitor of the rows that remain, one row looked up as a
one-grid monitor is.  The public DiscreteGradientMonitor is one grid.
A stack is looked up in one searchsorted over complex keys, row + 1j*x:
numpy orders complex numbers lexicographically, so the row never rounds
into x and each lookup is that of the row on its own.  A
DiscreteGradientMonitor checks its table when it is built and hands the
sweeps its weights unchecked.

The equidistribution sweeps ask a monitor for inverse_weights: the
grid's least weight divided by each weight, by default formed from the
checked weights.  ExactPowerMonitor gives them in closed form,
e^{beta lam (m_0 - m_j)} at the midpoints m, and decides when it is
built whether a grid on [0, ell] can take its weights out of the double
range; only where one can do its sweeps check the weights.

Midpoints are 0.5*(a + b), which overflows once a + b passes the largest
double; a monitor whose span reaches past half of it halves each node
first instead.  The choice is made once, when the monitor is built.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .problem import (ParameterError, ProblemSpec, check_domain, largest, per_row, require,
                      smallest)
from .problem import exact_derivative  # noqa: F401 -- unused; perfbench/tracer.py wraps this name

# past this the sum a + b of two nodes can overflow
_HALF_MAX = sys.float_info.max / 2
_RANGE_MESSAGE = "monitor values must be finite and strictly positive"


def _midpoints(nodes: np.ndarray, wide: bool) -> np.ndarray:
    """Interval midpoints of one grid or of each row of a stack; wide for
    nodes past _HALF_MAX, where halving first keeps them finite (it is not
    the default, as it rounds subnormal nodes)."""
    if wide:
        return 0.5 * nodes[..., :-1] + 0.5 * nodes[..., 1:]
    mid = np.add(nodes[..., :-1], nodes[..., 1:])
    mid *= 0.5
    return mid


class MonitorFunction:
    """Base class: a positive weight attached to grid intervals."""

    def interval_values(self, nodes: np.ndarray) -> np.ndarray:
        """Weights for the N intervals of the given node array."""
        raise NotImplementedError

    def interval_weights(self, nodes: np.ndarray) -> np.ndarray:
        """interval_values(nodes) for one grid, once there is one weight
        per interval and each is finite and strictly positive."""
        w = np.asarray(self.interval_values(nodes), dtype=float)
        if w.shape != (nodes.shape[-1] - 1,):
            raise ValueError(f"monitor returned {w.shape}, expected ({nodes.shape[-1] - 1},)")
        # NaN fails both comparisons (smallest and largest propagate it), so it is rejected too
        if not (smallest(w) > 0.0 and largest(w) < math.inf):
            raise self._range_error()
        return w

    def _range_error(self) -> ValueError:
        """The error interval_weights raises for weights that are not
        finite and strictly positive."""
        return ValueError(_RANGE_MESSAGE)

    def inverse_weights(self, nodes: np.ndarray) -> np.ndarray:
        """The least weight divided by each interval's weight, all that a
        sweep needs of the weights: of one grid, or of each row of a stack
        with that row's least weight.  They lie in (0, 1], and a ratio past
        the double range underflows to 0."""
        w = self.interval_weights(nodes)
        if w.ndim == 1:  # one grid: numpy takes a scalar faster than a column
            return smallest(w) / w
        return np.minimum.reduce(w, axis=-1, keepdims=True) / w


@dataclass(frozen=True)
class ConstantMonitor(MonitorFunction):
    """Unit weight on every interval; equidistributes to the uniform grid.
    A ScaledMonitor gives any other constant."""

    def interval_values(self, nodes: np.ndarray) -> np.ndarray:
        return np.ones(len(nodes) - 1)


@dataclass(frozen=True)
class ExactPowerMonitor(MonitorFunction):
    """(u_x)^beta with the exact derivative, sampled at interval midpoints.

    With u_x = lam e^{lam(x - ell)} the power is taken in the exponent,
    (u_x)^beta = e^{beta lam (x - ell) + beta ln lam}: one exp per interval
    and no pow.  Its underflow and overflow limits are those of the exact
    value, so for beta < 1 it stays positive where lam e^{lam(x - ell)}
    itself underflows to 0.  Past the double range the weights underflow
    to 0 or overflow to inf, and interval_weights blames lam, ell and beta.

    The weights grow with the midpoint, so on an ordered grid on [0, ell]
    the least is the first, and the inverse weights are
    e^{beta lam (m_0 - m_j)} in closed form.  Every weight of such a grid
    lies between those at x = 0 and x = ell; where both are finite and
    positive (decided once, when the monitor is built) no sweep can leave
    the double range, and inverse_weights checks nothing.
    """

    spec: ProblemSpec
    beta: float
    _rate: float = field(init=False, repr=False, compare=False)  # beta*lam
    _shift: float = field(init=False, repr=False, compare=False)  # beta*ln(lam)
    _wide: bool = field(init=False, repr=False, compare=False)  # see _midpoints
    _in_range: bool = field(init=False, repr=False, compare=False)  # see inverse_weights

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
        object.__setattr__(self, "_wide", self.spec.ell > _HALF_MAX)
        # the least and greatest weights of any grid on [0, ell] are those at
        # 0 and ell, formed as interval_values forms them
        with np.errstate(over="ignore"):
            low, high = self._power(np.array([0.0, self.spec.ell])).tolist()
        object.__setattr__(self, "_in_range", low > 0.0 and high < math.inf)

    def interval_values(self, nodes: np.ndarray) -> np.ndarray:
        y = check_domain(self.spec, _midpoints(nodes, self._wide))
        with np.errstate(over="ignore"):  # a weight 0 or inf is interval_weights' to reject
            return self._power(y)

    def _power(self, y: np.ndarray) -> np.ndarray:
        """The weights at the midpoints y, formed in y: no temporary per step."""
        y -= self.spec.ell
        y *= self._rate
        y += self._shift
        return np.exp(y, out=y)

    def _range_error(self) -> ParameterError:
        return ParameterError(f"{_RANGE_MESSAGE}: (u_x)**beta leaves the double range",
                              lam=self.spec.lam, ell=self.spec.ell, beta=self.beta)

    def inverse_weights(self, nodes: np.ndarray) -> np.ndarray:
        """e^{beta lam (m_0 - m_j)} at the midpoints m_j of one ordered
        grid, as every sweep iterate is: one exp per interval, with no
        range check and no reduction.  The domain check is that of the
        first and last midpoints, the least and greatest.  Where the
        monitor is not _in_range, or for a stack, the checked form of
        MonitorFunction.inverse_weights."""
        if not self._in_range or nodes.ndim != 1:
            return super().inverse_weights(nodes)
        y = _midpoints(nodes, self._wide)
        first = y.item(0)
        if not (0.0 <= first and y.item(-1) <= self.spec.ell):
            check_domain(self.spec, y)  # raises, blaming x
        y -= first
        y *= -self._rate
        return np.exp(y, out=y)


class DiscreteGradientMonitor(MonitorFunction):
    """1 + alpha*|u_x|^beta with |u_x| taken from a discrete solution.

    The slope on each interval of the solution's own grid is the
    difference quotient |u_{k+1} - u_k| / h_{k+1/2}; as a function of x
    the monitor is piecewise constant, so querying any node set looks up
    the containing interval.  nodes and values are one grid and its
    solution, and alpha and beta numbers.  Every input is checked here,
    and the weights once: finite, and >= 1 by their form.
    """

    def __init__(self, alpha, beta, nodes, values):
        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if values.shape != nodes.shape or nodes.ndim != 1 or len(nodes) < 2:
            raise ValueError(f"nodes and values must be one grid, of one shape, got "
                             f"{nodes.shape} and {values.shape}")
        alpha = float(require("alpha", alpha, 0.0))
        beta = float(require("beta", beta, 0.0))
        if not smallest(nodes[1:] > nodes[:-1]):  # a NaN node fails the comparison too
            raise ValueError("nodes must be strictly increasing")
        if not smallest(np.isfinite(values)):
            raise ValueError("values must be finite")
        self._build([alpha], [beta], nodes, values,
                    max(-nodes.item(0), nodes.item(-1)) > _HALF_MAX)

    @classmethod
    def _trusted(cls, alphas: list, betas: list, nodes: np.ndarray,
                 values: np.ndarray) -> "DiscreteGradientMonitor":
        """The monitor of one grid, or of a stack of grids, on one [0, ell],
        built without __init__'s input checks: the adaptive loop has checked
        its nodes' order and its alphas and betas (Python floats, one per
        row), and its solver gives finite values.  The weights are still
        checked."""
        monitor = object.__new__(cls)
        monitor._build(alphas, betas, nodes, values, nodes.item(-1) > _HALF_MAX)
        return monitor

    def _build(self, alphas, betas, nodes, values, wide):
        """The table of one grid, 1-D nodes and values, or of a stack of
        grids, one per row."""
        one = nodes.ndim == 1
        with np.errstate(all="ignore"):  # overflow is checked once, below
            slopes = abs(values[..., 1:] - values[..., :-1]) / (nodes[..., 1:] - nodes[..., :-1])
            if one:
                weights = 1.0 + alphas[0] * slopes**betas[0]
            else:
                # one power per run of rows with equal beta, which stays one
                # Python float: numpy takes its sqrt and square paths for a
                # scalar 0.5 and 2, whose results differ from those of pow
                rows = len(nodes)
                starts = [0] + [i for i in range(1, rows) if betas[i] != betas[i - 1]]
                tables = [1.0 + per_row(alphas[start:stop]) * slopes[start:stop]**betas[start]
                          for start, stop in zip(starts, starts[1:] + [rows])]
                weights = tables[0] if len(tables) == 1 else np.concatenate(tables)
        if not largest(weights) < math.inf:  # NaN, where alpha = 0 meets |u_x|**beta = inf
            row = 0 if one else int(np.isfinite(weights).all(axis=1).argmin())
            raise ParameterError("monitor weights 1 + alpha*|u_x|**beta overflow",
                                 alpha=alphas[row], beta=betas[row])
        self._weights, self._wide = weights, wide
        # the interior breakpoints, so that a query left of the first node or
        # right of the last one lands in an end interval, then a NaN fence:
        # only a NaN midpoint sorts past it, to an index past the weights
        self._breaks = breaks = np.empty(weights.shape)
        breaks[..., :-1] = nodes[..., 1:-1]
        breaks[..., -1] = math.nan
        self._one = (breaks, weights) if one else None
        if not one:
            # row r's keys are r + 1j*b for its breakpoints b, then the fence
            # r + 0.5: a search for r + 1j*m counts each earlier row's keys and
            # row r's breakpoints <= m, the flat index of m's weight in row r
            self._labels = np.arange(rows, dtype=float)[:, None]
            keys = np.empty(weights.shape, dtype=complex)
            keys.real = self._labels
            keys.real[:, -1] += 0.5
            keys.imag = breaks
            keys.imag[:, -1] = 0.0
            self._keys = keys.reshape(-1)

    def interval_values(self, nodes: np.ndarray) -> np.ndarray:
        """Weights of one grid's intervals, for a monitor on one grid, or
        of a stack's, each row looked up in the same row of a _trusted
        monitor.  A NaN midpoint lies in no interval and raises ValueError."""
        mid = _midpoints(nodes, self._wide)
        rows = len(mid) if mid.ndim == 2 else 1
        held = 1 if self._weights.ndim == 1 else len(self._labels)
        if rows != held:
            raise ValueError(f"the monitor holds {held} grids, got {rows}")
        try:
            if self._one is not None:  # one grid: a real search is the cheaper one
                breaks, weights = self._one
                return weights[breaks.searchsorted(mid, "right")]
            keys = np.empty(mid.shape, dtype=complex)
            keys.real = self._labels
            keys.imag = mid
            return self._weights.take(self._keys.searchsorted(keys, "right"))
        except IndexError:  # numpy sorts NaN past every number, and r + 1j*NaN past every key
            raise ValueError("query nodes give a NaN midpoint, which lies in no interval") from None

    def interval_weights(self, nodes: np.ndarray) -> np.ndarray:
        """The weights as they are: the table was checked when built."""
        return self.interval_values(nodes)

    def _rows(self, keep) -> "DiscreteGradientMonitor":
        """A copy of a _trusted monitor on a stack for the rows keep,
        sharing the table, breakpoints and keys; one row is looked up by a
        real search of its own breakpoints."""
        monitor = object.__new__(DiscreteGradientMonitor)
        monitor.__dict__.update(self.__dict__)
        monitor._labels = labels = self._labels[keep]
        monitor._one = None
        if len(labels) == 1:
            row = int(labels.item())
            monitor._one = (self._breaks[row], self._weights[row])
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
