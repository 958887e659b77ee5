"""The direct solve of tridiagonal systems by cyclic reduction.

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
sums from a rounded diagonal.  solve_tridiagonal, which takes the
bands and right-hand side of any diagonally dominant system, is the one
place where a diagonal is turned into row sums: it does so in fresh
arrays of that layout, with a fresh buffer, and leaves its inputs
unchanged.

The kernel is odd-even cyclic reduction (Hockney, J. ACM 12, 1965), at
every n.  Each of its log2(n) levels eliminates every other remaining row,
and a back substitution runs the levels in reverse.  Where a level's rows
live depends on the level:

* Levels 0 and 1 work in place.  The rows left at stride st are the
  slots st-1, 2st-1, ... of the four arrays, so level 0 reads views with
  a stride of 2 doubles and level 1 views with a stride of 4.
* From level 2 on, a level writes the rows it keeps contiguously.  Their
  row sums go into buf, after the scratch of the level's (m+1)//2
  pivots; their lower band, upper band and right-hand side go, one block
  after another, into the row-sum array, which nothing reads once level 2
  has formed its row sums.  Level 2 still reads rows 8 doubles apart, but
  each deeper level runs on stride-2 views of contiguous arrays, as level
  0 does, where in place its views would be 16 or more doubles apart.
  Moving the reduced rows together is the standard fix for this (Zhang,
  Cohen & Owens, PPoPP 2010).  The blocks take less than 3n/4 doubles.
  The back substitution of such a level copies the solution of the rows
  it kept back into its own rows, so that the solution ends in the
  right-hand side.

The levels run until one row is left.  Its a and c are 0, so its pivot
is its row sum, and its solution is x / s.  Each level, with its step
of the back substitution, costs a fixed ~15 to 20 us of numpy calls
(2-vCPU Xeon, numpy 2.4.6), so a solve of 32 rows takes ~90 us and one
of 1024 ~185 us.  That fixed cost is why solver.solve_dirichlet keeps
short systems to its own loop.  A PivotError names the row of the original
system whose pivot vanished, at whatever level and wherever its row
then lives.

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

import numpy as np

from .problem import largest

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

    def __reduce__(self):
        # a copy or unpickled error is rebuilt from index and pivot; args
        # holds the message they make
        return type(self), (self.index, self.pivot), self.__dict__


def solve_tridiagonal(lower, diag, upper, rhs) -> np.ndarray:
    """Solve the n-by-n system with diagonal diag, sub- and superdiagonals
    lower and upper (length n-1) and right-hand side rhs (length n); the
    inputs are not mutated.

    Raises ValueError where a band is not finite, where n < 1, where the
    lengths do not fit, where a row sum of the finite bands overflows,
    and where the solution is not finite: elimination on a system that
    is not dominant enough can overflow, and no NaN is returned.  The
    diagonal is turned into row sums diag + lower + upper, in fresh
    arrays of the layout solve_in_place overwrites.

    The system must be diagonally dominant.  The kernel recovers every
    pivot, the first level's included, as rowsum - lower - upper, and
    where |lower| + |upper| dwarfs |diag| that difference loses the
    diagonal to cancellation: lower = upper = [1e17] with diag = [1, 1]
    recovers a first pivot of 0 and raises PivotError.
    """
    bands = lower, diag, upper, rhs = [np.asarray(band, dtype=float)
                                       for band in (lower, diag, upper, rhs)]
    for name, band in zip(("lower", "diag", "upper", "rhs"), bands):
        if not np.isfinite(band).all():
            raise ValueError(f"{name} must be finite")
    n = diag.size
    if n < 1:
        raise ValueError("system must have at least one unknown")
    if rhs.size != n or lower.size != n - 1 or upper.size != n - 1:
        raise ValueError(
            f"inconsistent band lengths: diag {n}, rhs {rhs.size}, "
            f"lower {lower.size}, upper {upper.size}"
        )
    a = np.concatenate(([0.0], lower))
    c = np.concatenate((upper, [0.0]))
    with np.errstate(over="ignore"):
        s = diag + a
        s += c
    if not np.isfinite(s).all():
        raise ValueError("the row sums diag + lower + upper overflow")
    x = rhs.copy()
    with np.errstate(all="ignore"):  # checked below
        solve_in_place(a, s, c, x, np.empty((n + 1) // 2))
    if not np.isfinite(x).all():
        raise ValueError("the solution is not finite: elimination overflowed, so the system "
                         "is not diagonally dominant enough")
    return x


def solve_in_place(lower: np.ndarray, rowsum: np.ndarray, upper: np.ndarray,
                   rhs: np.ndarray, buf: np.ndarray) -> None:
    """Solve the system with bands lower[1:], upper[:-1] and row sums
    rowsum, by cyclic reduction; overwrites all four, and uses buf, of at
    least (n + 1) // 2 doubles, as scratch.

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
    rows left at stride 2st.  Where those rows live is set out in the
    module docstring.  The right side x = rhs becomes the solution, so
    besides the four arrays the only storage is buf, which the caller
    provides and may reuse.
    (Negated slots need no negation of the kept rows' a and c, and
    np.negative is avoided: in numpy 2.4.6 it writes wrong values into an
    output view with a stride of 8 elements.)
    """
    a, s, c, x = lower, rowsum, upper, rhs
    a[0] = c[-1] = 0.0
    n = s.size
    level = 0
    blocks = []  # where the a, c and x of each level from 3 on start in rowsum
    while s.size > 1:
        if level < 2:
            kept = a[1::2], s[1::2], c[1::2], x[1::2]
        else:
            at = blocks[-1] + 3 * s.size if blocks else 0
            blocks.append(at)
            m = s.size // 2
            a2, c2, x2 = _block(rowsum, at, m)
            kept = a2, buf[s.size - m : s.size], c2, x2
        _eliminate(a, s, c, x, kept, buf, 1 << level)
        a, s, c, x = kept
        level += 1
    if abs(s[0]) < PIVOT_FLOOR:  # the one row left: its pivot is its row sum
        raise PivotError((1 << level) - 1, float(s[0]))
    x /= s
    while level:
        level -= 1
        xk = x  # the solution of the rows this level kept
        if level < 3:  # the level's rows are still in the four arrays
            st = 1 << level
            a, c, x = lower[st - 1 :: st], upper[st - 1 :: st], rhs[st - 1 :: st]
        else:
            a, c, x = _block(rowsum, blocks[level - 3], n >> level)
        _substitute(a, c, x, xk, buf)
        if level >= 2:  # the rows it kept were solved in a block
            x[1::2] = xk


def _block(rowsum, at, m):
    """The a, c and x of m compacted rows, one block after another from at
    in rowsum: three slices cost a third of unpacking a reshape."""
    return rowsum[at : at + m], rowsum[at + m : at + 2 * m], rowsum[at + 2 * m : at + 3 * m]


def _eliminate(a, s, c, x, kept, buf, st):
    """One level of the reduction, at stride st: divides the eliminated
    rows of a, s, c and x in place and leaves the kept rows' new a, s, c
    and x in the four arrays kept, which may be the kept rows' own slots.
    Its views go with its frame: a long solve allocates little beyond its
    nodal vector (tests/test_solver.py bounds the peak)."""
    ae, ce, se, xe = a[::2], c[::2], s[::2], x[::2]
    ak, ck, sk, xk = a[1::2], c[1::2], s[1::2], x[1::2]
    a2, s2, c2, x2 = kept
    ne, nk = ae.size, ak.size
    r = ne - 1  # kept rows with a right neighbour
    nb = buf[:ne]  # minus the pivots: a - s + c, all terms <= 0 for an M-matrix
    np.subtract(ae, se, out=nb)
    nb += ce
    _check_pivots(nb, st)
    for band in (ae, ce, se, xe):
        band /= nb
    t, tr, cr = buf[:nk], buf[:r], ck[:r]
    for old, elim, new in ((sk, se, s2), (xk, xe, x2)):
        np.multiply(ak, elim[:nk], out=t)
        np.add(old, t, out=new)
        np.multiply(cr, elim[1:], out=tr)
        new = new[:r]
        np.add(new, tr, out=new)
    np.multiply(ak, ae[:nk], out=a2)
    np.multiply(cr, ce[1:], out=c2[:r])
    if nk > r:
        c2[r] = ck[r]


def _substitute(a, c, x, xk, buf):
    """One level of the back substitution: solves the eliminated rows of
    a, c and x, given the solution xk of the rows the level kept."""
    ae, ce, xe = a[::2], c[::2], x[::2]
    ne, nk = xe.size, xk.size
    # x = d/b - (a/b) x_left - (c/b) x_right, from slots holding -a/b, -c/b,
    # -d/b; the first of these rows has no left neighbour
    t, right = buf[: ne - 1], xe[1:]
    np.multiply(ae[1:], xk[: ne - 1], out=t)
    np.subtract(t, right, out=right)
    xe[0] = -xe[0]
    t, left = buf[:nk], xe[:nk]
    np.multiply(ce[:nk], xk, out=t)
    np.add(left, t, out=left)


def _check_pivots(nb: np.ndarray, st: int) -> None:
    """Raise PivotError for the first of a level's pivots, minus nb, below
    PIVOT_FLOOR in magnitude, also where another is NaN; st is the level's
    stride."""
    if not largest(nb) <= -PIVOT_FLOOR:  # a pivot not positive, or a NaN: find any small one
        small = np.abs(nb) < PIVOT_FLOOR
        if small.any():
            i = int(small.argmax())
            raise PivotError(2 * st * i + st - 1, -float(nb[i]))
