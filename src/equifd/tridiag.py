"""Tridiagonal systems and their direct solve by cyclic reduction.

The finite-difference scheme's solves of solver.CR_CUTOFF or more
unknowns go through solve_in_place; solver.solve_dirichlet eliminates
shorter ones by the Thomas algorithm in the loop that assembles them.
The systems are diagonally dominant M-matrices, so elimination without
pivoting is stable.

solve_in_place owns nothing: the caller hands it four arrays of length n,
the lower band with its first slot unused, the row sums, the upper band
with its last slot unused, and the right-hand side, and it overwrites all
four, leaving the solution in the right-hand side; a fifth array, of at
least (n + 1) // 2 doubles, is its scratch.  The kernel takes row
sums in place of the diagonal: solver.solve_dirichlet knows the scheme's
in closed form and assembles the bands and those row sums straight into
such arrays, so a long solve makes no copy of its bands and sums no row
sums from a rounded diagonal.  solve_tridiagonal(sys), the one place
where a diagonal is turned into row sums, does so in fresh arrays of
that layout, with a fresh buffer, and leaves the system unchanged.

The kernel is odd-even cyclic reduction (Hockney, J. ACM 12, 1965), at
every n.  Each of its log2(n) levels eliminates every other remaining row
with whole-array numpy operations, and a back substitution runs the
levels in reverse.  Each level costs a fixed ~20 us of numpy calls, which
is why solver.solve_dirichlet keeps short systems to its own loop.

Cyclic reduction carries the row sums s = a + b + c of the remaining
rows, updates them as s - k_l s_l - k_r s_r, and forms each pivot as
s - a - c.  For an M-matrix (a, c <= 0 <= s) every one of these updates
adds terms of one sign.  The textbook update b - k_l c_l - k_r a_r
subtracts quantities of size 2/h^2 to leave a diagonal excess of size
lam^2, and the rounding error this cancellation leaves grows with every
level: it moves the max error of the uniform layer problem at N=40960 by
18%.  The device is that of Grassmann, Taksar & Heyman (Oper. Res. 33,
1985) for Markov chains.  The row sums must not come from that
cancellation either, which is why the kernel takes them in place of the
diagonal (see solver).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_FLOOR = 1e-300


class PivotError(ArithmeticError):
    """Raised when elimination meets a pivot below PIVOT_FLOOR in magnitude.

    index is the row of the original system whose pivot vanished.
    Cyclic reduction meets the pivots in another order than the Thomas
    algorithm, so the two may name different rows of one system.
    """

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
            band = np.asarray(getattr(self, name), dtype=float)
            if not np.isfinite(band).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, band)
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
    """Solve the system; the input is not mutated.

    The diagonal is turned into row sums diag + lower + upper, in fresh
    arrays of the layout solve_in_place overwrites.  Raises ValueError
    where a row sum of the finite bands overflows.

    The system must be diagonally dominant.  The kernel recovers every
    pivot, the first level's included, as rowsum - lower - upper, and
    where |lower| + |upper| dwarfs |diag| that difference loses the
    diagonal to cancellation: lower = upper = [1e17] with diag = [1, 1]
    recovers a first pivot of 0 and raises PivotError.
    """
    a = np.concatenate(([0.0], sys.lower))
    c = np.concatenate((sys.upper, [0.0]))
    with np.errstate(over="ignore"):
        s = sys.diag + a
        s += c
    if not np.isfinite(s).all():
        raise ValueError("the row sums diag + lower + upper overflow")
    rhs = sys.rhs.copy()
    solve_in_place(a, s, c, rhs, np.empty((sys.n + 1) // 2))
    return rhs


def solve_in_place(lower: np.ndarray, rowsum: np.ndarray, upper: np.ndarray,
                   rhs: np.ndarray, buf: np.ndarray) -> None:
    """Solve the system with bands lower[1:], upper[:-1] and row sums
    rowsum, by cyclic reduction in place; overwrites all four, and uses
    buf, of at least (n + 1) // 2 doubles, as scratch.

    The four arrays have length n; lower[0] and upper[-1] are not part of
    the system and are set to 0.  On return rhs holds the solution and the
    others hold what elimination left in them.

    Row i reads a[i] x[i-1] + b[i] x[i] + c[i] x[i+1] = d[i], and is given
    by a = lower, c = upper and its row sum s[i] = a[i] + b[i] + c[i]; its
    pivot is s - a - c at every level, the first included.  At stride st
    the rows left are st-1, 2st-1, ... (n // st of them).  The first,
    third, ... of these are eliminated: each is divided by minus its
    pivot, which leaves -a/b, -c/b, -s/b and -d/b in its own slots for the
    back substitution, and is added into its neighbours, which are the
    rows left at stride 2st.  The right side x = rhs becomes the solution,
    so besides the four arrays the only storage is buf, which the caller
    provides and may reuse.
    (Negated slots need no negation of the kept rows' a and c, and
    np.negative is avoided: in numpy 2.4.6 it writes wrong values into an
    output view with a stride of 8 elements.)
    """
    a, s, c, x = lower, rowsum, upper, rhs
    a[0] = c[-1] = 0.0
    n = s.size
    st = 1
    while 2 * st <= n:
        e = slice(st - 1, None, 2 * st)
        k = slice(2 * st - 1, None, 2 * st)
        ae, ce, se, xe = a[e], c[e], s[e], x[e]
        ak, ck, sk, xk = a[k], c[k], s[k], x[k]
        nk, r = ak.size, ae.size - 1  # rows kept; of them, rows with a right neighbour
        nb = buf[: ae.size]  # minus the pivots: a - s + c, all terms <= 0 for an M-matrix
        np.subtract(ae, se, out=nb)
        nb += ce
        if nb.max() > -PIVOT_FLOOR:  # not all pivots positive: find any small one
            small = np.abs(nb) < PIVOT_FLOOR
            if small.any():
                i = int(small.argmax())
                raise PivotError(2 * st * i + st - 1, -float(nb[i]))
        for band in (ae, ce, se, xe):
            band /= nb
        t = buf[:nk]
        for kept, elim in ((sk, se), (xk, xe)):
            np.multiply(ak, elim[:nk], out=t)
            kept += t
            np.multiply(ck[:r], elim[1:], out=t[:r])
            kept[:r] += t[:r]
        ak *= ae[:nk]
        ck[:r] *= ce[1:]
        st *= 2
    i = st - 1  # the one row left: its a and c are 0, its pivot is its row sum
    piv = s[i]
    if abs(piv) < PIVOT_FLOOR:
        raise PivotError(i, float(piv))
    x[i] /= piv
    while st > 1:
        st //= 2
        e = slice(st - 1, None, 2 * st)
        ae, ce, xe, xk = a[e], c[e], x[e], x[2 * st - 1 :: 2 * st]
        # x = d/b - (a/b) x_left - (c/b) x_right, from slots holding -a/b, -c/b,
        # -d/b; the first of these rows has no left neighbour
        t = buf[: xe.size - 1]
        np.multiply(ae[1:], xk[: t.size], out=t)
        np.subtract(t, xe[1:], out=xe[1:])
        xe[0] = -xe[0]
        t = buf[: xk.size]
        np.multiply(ce[: t.size], xk, out=t)
        xe[: t.size] += t
