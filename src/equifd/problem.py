"""Model boundary-value problem and its closed-form solution.

The problem is the reaction-diffusion equation -u'' + lam^2 u = 0 on
[0, ell] with Dirichlet data u(0) = exp(-lam*ell), u(ell) = 1.  Its
solution u(x) = exp(lam*(x - ell)) develops a boundary layer of width
~1/lam at the right endpoint for large lam, which is what makes the
node distribution matter.

Every scalar parameter of the package (lam and ell here, N, the monitor
constants alpha and beta, tolerances, iteration caps, and the command
line's flags for them) is checked by the one rule in require: finite
and above a lower bound, with NaN failing the comparison.  Counts (N,
iteration caps, a derivative's order) go through require_count, which
applies that rule and requires an integer too.  They, and the checks of
parameters in combination, raise ParameterError, whose params name them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

MAX_DERIVATIVE_ORDER = 5
# the least lam whose square lam**2 overflows to inf
LAM_MAX = 2.0**512


class ParameterError(ValueError):
    """A ValueError that blames parameters: params maps each name to its
    value, in the order the message gives them.  With tail, the message
    ends in "(name=value, ...)"; without, it names them itself."""

    def __init__(self, message: str, /, tail: bool = True, **params):
        if tail and params:  # a copy or unpickled error is rebuilt from the full message
            message += f" ({', '.join(f'{k}={v}' for k, v in params.items())})"
        super().__init__(message)
        self.params = params


def require(name: str, value, low: float, strict: bool = False, high: float = math.inf):
    """Return value if low < value < high (strict) or low <= value < high.

    high defaults to inf, so the value must be finite; NaN fails either
    comparison.  Otherwise raises ParameterError blaming name.
    """
    if not (low < value < high if strict else low <= value < high):
        rule = f"{'>' if strict else '>='} {low:g}"
        rule = f"finite and {rule}" if high == math.inf else f"{rule} and < {high:g}"
        raise ParameterError(f"{name} must be {rule}, got {value}", tail=False, **{name: value})
    return value


def require_count(name: str, value, low: int, high: float = math.inf):
    """require for a count: value must also be an integer (an int or a
    numpy integer, not a float such as 20.0 or 20.5)."""
    require(name, value, low, high=high)
    if not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}",
                             tail=False, **{name: value})
    return value


# a.max() and its kin run numpy's Python-level _methods wrappers and set up a
# ufunc.reduce, 1.3-2.1 us each on 20 elements; argmax plus item is 0.5 us
def largest(a: np.ndarray):
    """a.max() as a Python scalar, or a.any() on a bool array.

    The first NaN is returned, so NaN propagates as in a.max().  Of equal
    values the first is returned, so only a zero result's sign can differ:
    [-0.0, 0.0] gives -0.0 where a.max() gives 0.0.  No caller can see it,
    since each compares or reduces abs values.  Empty a raises ValueError.
    """
    return a.item(a.argmax())


def smallest(a: np.ndarray):
    """a.min() as a Python scalar, or a.all() on a bool array; see largest."""
    return a.item(a.argmin())


def row_largest(a: np.ndarray) -> list:
    """largest of each row of a 2-D array, as a list of Python scalars.

    NaN propagates, and the one difference from largest is again only the
    sign of a zero.
    """
    return np.maximum.reduce(a, axis=1).tolist()


def per_row(values: list):
    """values, one per row of a stack, as a column that scales each row,
    or as the number itself for a single row: numpy multiplies by a scalar
    faster than by a broadcast column, with the same result."""
    return values[0] if len(values) == 1 else np.array(values)[:, None]


@dataclass(frozen=True)
class ProblemSpec:
    """Parameters of the layer problem: 0 < lam < LAM_MAX, finite ell > 0
    and finite lam*ell.

    Boundary values are not free: they are pinned to the exact solution,
    left_bc = exp(-lam*ell) and right_bc = 1.
    """

    lam: float
    ell: float
    left_bc: float = field(init=False)
    right_bc: float = field(init=False)

    def __post_init__(self):
        require("lam", self.lam, 0.0, strict=True, high=LAM_MAX)
        require("ell", self.ell, 0.0, strict=True)
        # a product that overflows would make left_bc = exp(-inf) = 0 silently;
        # as Python floats it overflows to inf without a numpy warning
        if (lam_ell := float(self.lam) * float(self.ell)) == math.inf:
            raise ParameterError("lam*ell must be finite and >= 0, got inf", tail=False,
                                 lam=self.lam, ell=self.ell)
        object.__setattr__(self, "left_bc", math.exp(-lam_ell))
        object.__setattr__(self, "right_bc", 1.0)

    @property
    def epsilon(self) -> float:
        """Singular-perturbation parameter 1/lam^2; inf where lam**2
        underflows to 0 (lam below about 1.5e-162)."""
        lam2 = self.lam**2
        return 1.0 / lam2 if lam2 else math.inf


def check_domain(spec: ProblemSpec, x) -> np.ndarray:
    """x as a float array, unless an entry lies outside [0, ell]: then
    ParameterError blaming x, with x's least or greatest entry (or a NaN)."""
    x = np.asarray(x, dtype=float)
    if x.size:
        # smallest and largest return the first NaN, which fails the check
        for end in (smallest(x), largest(x)):
            if not 0.0 <= end <= spec.ell:
                raise ParameterError(f"x must lie in [0, {spec.ell}]", tail=False, x=end)
    return x


def exact_solution(spec: ProblemSpec, x):
    """Exact solution exp(lam*(x - ell)); scalar in, scalar out."""
    xv = check_domain(spec, x)
    out = np.subtract(xv, spec.ell, out=np.empty(xv.shape))  # one array for the result
    out *= spec.lam
    np.exp(out, out=out)
    return float(out) if np.ndim(x) == 0 else out


def exact_derivative(spec: ProblemSpec, x, order: int = 1):
    """Derivative d^k u / dx^k = lam^k * exp(lam*(x - ell)), 1 <= k <= 5."""
    require_count("order", order, 1, high=MAX_DERIVATIVE_ORDER + 1)
    xv = check_domain(spec, x)
    try:
        scale = float(spec.lam) ** order  # a Python float raises here, numpy would warn
    except OverflowError:
        raise ParameterError(f"lam**order overflows: lam={spec.lam}, order={order}",
                             tail=False, lam=spec.lam, order=order) from None
    out = scale * np.exp(spec.lam * (xv - spec.ell))
    return float(out) if np.ndim(x) == 0 else out
