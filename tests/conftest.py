"""Shared fixtures: the reference problem and random valid grids."""

import sys

import numpy as np
import pytest

from equifd import Grid, PivotError, ProblemSpec
from equifd.tridiag import PIVOT_FLOOR


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the per-criterion acceptance outcomes after the test summary."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def spec10():
    return ProblemSpec(lam=10.0, ell=1.0)


def random_grid(rng, n_cells, ell=1.0, min_frac=0.05):
    """Strictly increasing random grid with a floor on relative step size."""
    steps = min_frac + rng.random(n_cells)
    nodes = np.concatenate([[0.0], np.cumsum(steps)])
    nodes *= ell / nodes[-1]
    nodes[0], nodes[-1] = 0.0, ell
    return Grid(nodes, ell)


@pytest.fixture(scope="session")
def table2_cells():
    """Full 45-cell adaptive sweep, computed once per session."""
    from equifd.experiments import run_table2

    return run_table2()


def dense(lower, diag, upper):
    """Dense matrix of the tridiagonal bands, for oracle comparisons."""
    return np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)


def matvec(lower, diag, upper, x):
    """A @ x for the tridiagonal bands, to verify residuals."""
    y = diag * x
    y[:-1] += upper * x[1:]
    y[1:] += lower * x[:-1]
    return y


def scheme_bands(nodes, lam, left, right):
    """Bands and right-hand side of the centred scheme on nodes, from its
    formula and not from the library's assembly.  Row j of the interior
    unknowns reads

        -2/(x[j+1] - x[j-1]) * [(u[j+1] - u[j])/(x[j+1] - x[j])
                                - (u[j] - u[j-1])/(x[j] - x[j-1])] + lam^2 u[j] = 0,

    with u[0] = left and u[-1] = right moved to the right-hand side."""
    x = np.asarray(nodes, dtype=float)
    span = x[2:] - x[:-2]  # twice the control volume h_j
    w_left = 2.0 / (span * (x[1:-1] - x[:-2]))
    w_right = 2.0 / (span * (x[2:] - x[1:-1]))
    rhs = np.zeros(x.size - 2)
    rhs[0] += w_left[0] * left
    rhs[-1] += w_right[-1] * right
    return -w_left[1:], w_left + w_right + lam**2, -w_right[:-1], rhs


def scheme_matrix(nodes, lam, left, right):
    """The scheme_bands system as a dense matrix and its right-hand side."""
    lower, diag, upper, rhs = scheme_bands(nodes, lam, left, right)
    return dense(lower, diag, upper), rhs


def reference_thomas(lower, diag, upper, rhs):
    """The Thomas loop over numpy arrays that solve_tridiagonal ran before
    it had cyclic reduction, kept unchanged as the reference for the
    solver's fused loop.  Takes solve_tridiagonal's bands."""
    n = diag.size
    c = np.empty(n - 1) if n > 1 else np.empty(0)
    d = np.empty(n)
    piv = diag[0]
    if abs(piv) < PIVOT_FLOOR:
        raise PivotError(0, piv)
    if n > 1:
        c[0] = upper[0] / piv
    d[0] = rhs[0] / piv
    for i in range(1, n):
        piv = diag[i] - lower[i - 1] * c[i - 1]
        if abs(piv) < PIVOT_FLOOR:
            raise PivotError(i, piv)
        if i < n - 1:
            c[i] = upper[i] / piv
        d[i] = (rhs[i] - lower[i - 1] * d[i - 1]) / piv
    x = d
    for i in range(n - 2, -1, -1):
        x[i] -= c[i] * x[i + 1]
    return x


def reference_row_sum_reduction(lower, rowsum, upper, rhs):
    """Cyclic reduction as it ran on copies of a system's bands, with the
    row sums in an array of their own, kept as the reference for the
    in-place kernel.  Takes the kernel's layout, the bands of length n with
    lower[0] and upper[-1] unused, and leaves its arguments unchanged.
    Every level, the first included, forms its pivots from the row sums."""
    n = rowsum.size
    a, s, c, x = lower.copy(), rowsum.copy(), upper.copy(), rhs.copy()
    a[0] = c[-1] = 0.0
    buf = np.empty((n + 1) // 2)
    st = 1
    while 2 * st <= n:
        e = slice(st - 1, None, 2 * st)
        k = slice(2 * st - 1, None, 2 * st)
        ae, ce, se, xe = a[e], c[e], s[e], x[e]
        ak, ck, sk, xk = a[k], c[k], s[k], x[k]
        nk, r = ak.size, ae.size - 1
        nb = buf[: ae.size]
        np.subtract(ae, se, out=nb)
        nb += ce
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
    i = st - 1
    x[i] /= s[i]
    while st > 1:
        st //= 2
        e = slice(st - 1, None, 2 * st)
        ae, ce, xe, xk = a[e], c[e], x[e], x[2 * st - 1 :: 2 * st]
        t = buf[: xe.size - 1]
        np.multiply(ae[1:], xk[: t.size], out=t)
        np.subtract(t, xe[1:], out=xe[1:])
        xe[0] = -xe[0]
        t = buf[: xk.size]
        np.multiply(ce[: t.size], xk, out=t)
        xe[: t.size] += t
    return x
