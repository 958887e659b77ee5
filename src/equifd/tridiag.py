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
* Once at most _TAIL rows remain, the reduction and its back substitution
  finish over Python floats, with the numpy levels' IEEE operations in
  their order.  A solution they leave not finite draws a RuntimeWarning,
  as numpy's operations would.

Each numpy level costs a fixed ~15 to 25 us of numpy calls, and the tail
of 32 rows ~50 us in all, where the five numpy levels it stands for took
~85 us (2-vCPU Xeon, numpy 2.4.6).  That fixed cost is why
solver.solve_dirichlet keeps short systems to its own loop.  A
PivotError names the row of the original system whose pivot vanished,
at whatever level and wherever its row then lives.

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

import math
import warnings

import numpy as np

PIVOT_FLOOR = 1e-300

# rows from which solve_in_place finishes over Python floats
_TAIL = 32


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


def solve_tridiagonal(lower, diag, upper, rhs) -> np.ndarray:
    """Solve the n-by-n system with diagonal diag, sub- and superdiagonals
    lower and upper (length n-1) and right-hand side rhs (length n); the
    inputs are not mutated.

    Raises ValueError where a band is not finite, where n < 1, where the
    lengths do not fit, and where a row sum of the finite bands overflows.
    The diagonal is turned into row sums diag + lower + upper, in fresh
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
    solve_in_place(a, s, c, x, np.empty((n + 1) // 2))
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
    while s.size > _TAIL:
        if level < 2:
            kept = a[1::2], s[1::2], c[1::2], x[1::2]
        else:
            at = blocks[-1] + 3 * s.size if blocks else 0
            blocks.append(at)
            m = s.size // 2
            a2, c2, x2 = rowsum[at : at + 3 * m].reshape(3, m)
            kept = a2, buf[s.size - m : s.size], c2, x2
        _eliminate(a, s, c, x, kept, buf, 1 << level)
        a, s, c, x = kept
        level += 1
    x[:] = _solve_tail(a, s, c, x, 1 << level)
    while level:
        level -= 1
        xk = x  # the solution of the rows this level kept
        if level < 3:  # the level's rows are still in the four arrays
            st = 1 << level
            a, c, x = lower[st - 1 :: st], upper[st - 1 :: st], rhs[st - 1 :: st]
        else:
            at, m = blocks[level - 3], n >> level
            a, c, x = rowsum[at : at + 3 * m].reshape(3, m)
        _substitute(a, c, x, xk, buf)
        if level >= 2:  # the rows it kept were solved in a block
            x[1::2] = xk


def _eliminate(a, s, c, x, kept, buf, st):
    """One level of the reduction, at stride st: divides the eliminated
    rows of a, s, c and x in place and leaves the kept rows' new a, s, c
    and x in the four arrays kept, which may be the kept rows' own slots.
    Its views go with its frame, so that none is held while the tail's
    Python floats are: a long solve allocates little beyond its nodal
    vector (tests/test_solver.py bounds the peak)."""
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
    PIVOT_FLOOR in magnitude, unless one is NaN; st is the level's stride."""
    if nb.max() > -PIVOT_FLOOR:  # not all pivots positive (nor NaN): find any small one
        small = np.abs(nb) < PIVOT_FLOOR
        if small.any():
            i = int(small.argmax())
            raise PivotError(2 * st * i + st - 1, -float(nb[i]))


def _solve_tail(a: np.ndarray, s: np.ndarray, c: np.ndarray, x: np.ndarray,
                st: int) -> list:
    """The solution of the rows left at stride st, as a list: the rest of
    solve_in_place's reduction and its back substitution, over lists of
    Python floats, with the IEEE operations of its numpy levels in their
    order.  Each level builds its kept rows afresh, so the rows it drops
    are freed as it goes; its eliminated rows are kept for the back
    substitution."""
    a, s, c, x = a.tolist(), s.tolist(), c.tolist(), x.tolist()
    done = []
    while len(s) > 1:
        ae, ce, se, xe = a[::2], c[::2], s[::2], x[::2]
        nb = [p - q + r for p, q, r in zip(ae, se, ce)]
        if max(nb) > -PIVOT_FLOOR:  # Python's max, unlike numpy's, may pass over a NaN
            _check_pivots(np.array(nb), st)
        try:
            ae, ce, se, xe = zip(*[(p / b, q / b, u / b, v / b)
                                   for p, q, u, v, b in zip(ae, ce, se, xe, nb)])
        except ZeroDivisionError:  # a NaN pivot kept a zero one from the check
            ae, ce, se, xe = (np.divide(band, nb).tolist() for band in (ae, ce, se, xe))
        ak, ck = a[1::2], c[1::2]
        last = len(ak) == len(ae)  # the last kept row has no right neighbour
        kept = []
        for band, elim in ((s, se), (x, xe)):
            band = band[1::2]
            new = [q + p * u + r * v for q, p, u, r, v in zip(band, ak, elim, ck, elim[1:])]
            if last:
                new.append(band[-1] + ak[-1] * elim[-1])
            kept.append(new)
        s, x = kept
        a = [p * u for p, u in zip(ak, ae)]
        c = [r * v for r, v in zip(ck, ce[1:])]
        if last:
            c.append(ck[-1])
        done.append((ae, ce, xe))
        st *= 2
    if abs(s[0]) < PIVOT_FLOOR:  # the one row left: its pivot is its row sum
        raise PivotError(st - 1, s[0])
    x = [x[0] / s[0]]
    for ae, ce, xe in reversed(done):
        xs = [-xe[0] + ce[0] * x[0]]
        xs += [p * u - q + r * v for p, q, r, u, v in zip(ae[1:], xe[1:], ce[1:], x, x[1:])]
        if len(xe) > len(x):
            xs.append(ae[-1] * x[-1] - xe[-1])
        y = xs + x
        y[::2] = xs
        y[1::2] = x
        x = y
    if not all(map(math.isfinite, x)):  # numpy warns of this; Python floats do not
        warnings.warn("overflow or invalid value in the reduction's last rows", RuntimeWarning)
    return x
