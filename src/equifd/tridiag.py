"""Tridiagonal systems and the Thomas algorithm.

The finite-difference scheme's linear solves go through solve_tridiagonal
(the frozen-weight grid equations have constant flux and are solved by a
cumulative sum in equidist).  The systems produced here are diagonally
dominant M-matrices, so plain forward elimination without pivoting is
stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_FLOOR = 1e-300


class PivotError(ArithmeticError):
    """Raised when forward elimination meets a vanishing pivot."""

    def __init__(self, index: int, pivot: float):
        self.index = index
        self.pivot = pivot
        super().__init__(f"pivot {pivot!r} below {PIVOT_FLOOR} at elimination index {index}")


@dataclass(frozen=True)
class TridiagonalSystem:
    """Bands and right-hand side of an n-by-n tridiagonal system.

    lower and upper have length n-1, diag and rhs length n.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        for name in ("lower", "diag", "upper", "rhs"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.diag.size
        if n < 1:
            raise ValueError("system must have at least one unknown")
        if self.rhs.size != n or self.lower.size != n - 1 or self.upper.size != n - 1:
            raise ValueError(
                f"inconsistent band lengths: diag {n}, rhs {self.rhs.size}, "
                f"lower {self.lower.size}, upper {self.upper.size}"
            )

    @property
    def n(self) -> int:
        return self.diag.size

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x, used by tests to verify residuals."""
        y = self.diag * x
        y[:-1] += self.upper * x[1:]
        y[1:] += self.lower * x[:-1]
        return y

    def dense(self) -> np.ndarray:
        """Dense matrix copy, for oracle comparisons."""
        a = np.diag(self.diag)
        a += np.diag(self.lower, -1)
        a += np.diag(self.upper, 1)
        return a


def solve_tridiagonal(sys: TridiagonalSystem) -> np.ndarray:
    """Solve the system by the Thomas algorithm; the input is not mutated."""
    n = sys.n
    c = np.empty(n - 1) if n > 1 else np.empty(0)
    d = np.empty(n)
    piv = sys.diag[0]
    if abs(piv) < PIVOT_FLOOR:
        raise PivotError(0, piv)
    if n > 1:
        c[0] = sys.upper[0] / piv
    d[0] = sys.rhs[0] / piv
    for i in range(1, n):
        piv = sys.diag[i] - sys.lower[i - 1] * c[i - 1]
        if abs(piv) < PIVOT_FLOOR:
            raise PivotError(i, piv)
        if i < n - 1:
            c[i] = sys.upper[i] / piv
        d[i] = (sys.rhs[i] - sys.lower[i - 1] * d[i - 1]) / piv
    x = d
    for i in range(n - 2, -1, -1):
        x[i] -= c[i] * x[i + 1]
    return x
