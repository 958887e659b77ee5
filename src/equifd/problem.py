"""Model boundary-value problem and its closed-form solution.

The problem is the reaction-diffusion equation -u'' + lam^2 u = 0 on
[0, ell] with Dirichlet data u(0) = exp(-lam*ell), u(ell) = 1.  Its
solution u(x) = exp(lam*(x - ell)) develops a boundary layer of width
~1/lam at the right endpoint for large lam, which is what makes the
node distribution matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MAX_DERIVATIVE_ORDER = 5


@dataclass(frozen=True)
class ProblemSpec:
    """Parameters of the layer problem: finite lam > 0 and domain length ell > 0.

    Boundary values are not free: they are pinned to the exact solution,
    left_bc = exp(-lam*ell) and right_bc = 1.
    """

    lam: float
    ell: float
    left_bc: float = field(init=False)
    right_bc: float = field(init=False)

    def __post_init__(self):
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"lam must be finite and > 0, got {self.lam}")
        if not (self.ell > 0.0 and math.isfinite(self.ell)):
            raise ValueError(f"ell must be finite and > 0, got {self.ell}")
        object.__setattr__(self, "left_bc", math.exp(-self.lam * self.ell))
        object.__setattr__(self, "right_bc", 1.0)

    @property
    def epsilon(self) -> float:
        """Singular-perturbation parameter 1/lam^2."""
        return 1.0 / self.lam**2


def _check_domain(spec: ProblemSpec, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not ((x >= 0.0) & (x <= spec.ell)).all():  # written so that a NaN x fails too
        raise ValueError(f"x must lie in [0, {spec.ell}]")
    return x


def exact_solution(spec: ProblemSpec, x):
    """Exact solution exp(lam*(x - ell)); scalar in, scalar out."""
    xv = _check_domain(spec, x)
    out = np.exp(spec.lam * (xv - spec.ell))
    return float(out) if np.ndim(x) == 0 else out


def exact_derivative(spec: ProblemSpec, x, order: int = 1):
    """Derivative d^k u / dx^k = lam^k * exp(lam*(x - ell)), 1 <= k <= 5."""
    if not 1 <= order <= MAX_DERIVATIVE_ORDER:
        raise ValueError(f"order must be in [1, {MAX_DERIVATIVE_ORDER}], got {order}")
    xv = _check_domain(spec, x)
    out = spec.lam**order * np.exp(spec.lam * (xv - spec.ell))
    return float(out) if np.ndim(x) == 0 else out
