import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from equifd import (
    Grid,
    GridMapping,
    PivotError,
    ProblemSpec,
    analytic_mapped_grid,
    max_error,
    solve_bvp,
    solve_dirichlet,
    solve_tridiagonal,
    uniform_grid,
)
from equifd.io import read_csv
from equifd import solver
from equifd.solver import CR_CUTOFF, STACK_ROWS, _solve_columns, _solve_short, solve_stack
from conftest import (dense, matvec, random_grid, reference_row_sum_reduction,
                      reference_thomas, scheme_bands, scheme_matrix)


def test_pure_laplacian_row_pattern(spec10):
    """With lam = 0 on four equal cells the rows are 16 * [-1, 2, -1], and
    the solution is the affine interpolant of the Dirichlet data."""
    g = uniform_grid(spec10, 4)
    a, rhs = scheme_matrix(g.nodes, 0.0, 1.0, 2.0)
    assert np.array_equal(a, dense([-16.0, -16.0], [32.0, 32.0, 32.0], [-16.0, -16.0]))
    assert np.array_equal(rhs, [16.0, 0.0, 32.0])
    assert solve_dirichlet(g, 0.0, 1.0, 2.0) == pytest.approx([1.0, 1.25, 1.5, 1.75, 2.0],
                                                              rel=1e-15)


def test_uniform_reduction_matches_classic_stencil(spec10):
    """On equal steps the scheme is the standard three-point formula: the
    oracle's matrix is that stencil, and solve_bvp solves it."""
    g = uniform_grid(spec10, 4)
    dx = 0.25
    a, rhs = scheme_matrix(g.nodes, spec10.lam, spec10.left_bc, spec10.right_bc)
    classic = dense(-np.ones(2) / dx**2, 2.0 / dx**2 + spec10.lam**2 * np.ones(3),
                    -np.ones(2) / dx**2)
    assert np.array_equal(a, classic)
    # boundary elimination into the right-hand side
    assert np.array_equal(rhs, [spec10.left_bc / dx**2, 0.0, spec10.right_bc / dx**2])
    u = solve_bvp(g, spec10).values
    assert np.max(np.abs(u[1:-1] - np.linalg.solve(classic, rhs))) <= 1e-15


def test_three_node_hand_coefficients():
    """One unknown at x = 1/4 of [0, 1]: control volume 1/2, couplings
    1/(0.5*0.25) = 8 to the left and 1/(0.5*0.75) = 8/3 to the right."""
    nodes = np.array([0.0, 0.25, 1.0])
    left, right = 0.5, 2.0
    diag = 8.0 + 8.0 / 3.0 + 1.0
    a, rhs = scheme_matrix(nodes, 1.0, left, right)
    assert a.shape == (1, 1)
    assert a[0, 0] == pytest.approx(diag, rel=1e-15)
    assert rhs[0] == pytest.approx(8.0 * left + 8.0 / 3.0 * right, rel=1e-15)
    u = solve_dirichlet(Grid(nodes, 1.0), 1.0, left, right)
    assert u[1] == pytest.approx((8.0 * left + 8.0 / 3.0 * right) / diag, rel=1e-15)
    assert (u[0], u[2]) == (left, right)


def test_strict_diagonal_dominance(spec10):
    """The scheme's matrix on a random grid is an M-matrix with strictly
    dominant rows, so solve_tridiagonal and solve_bvp, which eliminate it
    without pivoting, agree with a dense LU solve."""
    rng = np.random.default_rng(5)
    g = random_grid(rng, 17)
    lower, diag, upper, rhs = scheme_bands(g.nodes, spec10.lam, spec10.left_bc, spec10.right_bc)
    row_off = np.zeros(diag.size)
    row_off[1:] += np.abs(lower)
    row_off[:-1] += np.abs(upper)
    assert np.all(np.abs(diag) > row_off)
    assert np.all(diag > 0)
    assert np.all(lower < 0) and np.all(upper < 0)
    x_dense = np.linalg.solve(dense(lower, diag, upper), rhs)
    assert np.max(np.abs(solve_tridiagonal(lower, diag, upper, rhs) - x_dense)) <= 1e-12
    assert np.max(np.abs(solve_bvp(g, spec10).values[1:-1] - x_dense)) <= 1e-12


def test_boundary_values_imposed_exactly(spec10):
    sol = solve_bvp(uniform_grid(spec10, 10), spec10)
    assert sol.values[0] == spec10.left_bc
    assert sol.values[-1] == spec10.right_bc


def test_paper_errors_on_reference_grids(spec10):
    uni = solve_bvp(uniform_grid(spec10, 20), spec10)
    assert max_error(uni) == pytest.approx(0.375e-2, rel=0.02)

    quarter = solve_bvp(analytic_mapped_grid(GridMapping(spec10, 0.25), 20), spec10)
    assert max_error(quarter) == pytest.approx(0.883e-6, rel=0.05)

    square = solve_bvp(analytic_mapped_grid(GridMapping(spec10, 2.0), 20), spec10)
    assert max_error(square) == pytest.approx(0.137, rel=0.10)


def test_discrete_maximum_principle(spec10):
    rng = np.random.default_rng(42)
    for _ in range(50):
        g = random_grid(rng, int(rng.integers(3, 40)))
        sol = solve_bvp(g, spec10)
        assert np.all(sol.values >= spec10.left_bc - 1e-12)
        assert np.all(sol.values <= spec10.right_bc + 1e-12)


def test_affine_exactness_lam_zero():
    rng = np.random.default_rng(8)
    for i in range(11):
        # the last grid's unknowns go to cyclic reduction
        g = random_grid(rng, int(rng.integers(3, 25)) if i < 10 else CR_CUTOFF + 40)
        a, b = rng.uniform(-3, 3, size=2)
        u = solve_dirichlet(g, 0.0, a, b)
        interpolant = a + (b - a) * g.nodes / g.ell
        # rounding grows with the number of unknowns: 1e-12 up to 24 cells
        assert np.max(np.abs(u - interpolant)) <= 1e-12 * max(1.0, g.n_cells / 24)


def test_error_decreases_under_refinement(spec10):
    errors = [max_error(solve_bvp(uniform_grid(spec10, n), spec10))
              for n in (10, 20, 40, 80, 160, 320, 640)]
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))


def test_solution_csv_roundtrip(tmp_path, spec10):
    sol = solve_bvp(uniform_grid(spec10, 8), spec10)
    path = tmp_path / "solution.csv"
    sol.write_csv(path)
    data = read_csv(path)
    assert list(data) == ["x", "u", "u_exact", "abs_error"]
    assert np.array_equal(data["x"], sol.grid.nodes)
    assert np.array_equal(data["u"], sol.values)
    assert np.max(data["abs_error"]) == pytest.approx(max_error(sol), rel=1e-15)


def test_values_shape_validated(spec10):
    from equifd import DiscreteSolution

    g = uniform_grid(spec10, 4)
    with pytest.raises(ValueError):
        DiscreteSolution(g, np.zeros(3), spec10)


def reference_solve_dirichlet(grid, lam, left_value, right_value):
    """The assembly that solve_dirichlet ran before it assembled into the
    solver's own arrays, kept as its reference: below the cutoff, the
    system with its diagonal and the frozen Thomas loop; from it on, the
    bands with the scheme's row sums in closed form and the frozen cyclic
    reduction."""
    h = grid.steps
    hj = 0.5 * (h[:-1] + h[1:])
    lower = -1.0 / (hj * h[:-1])
    upper = -1.0 / (hj * h[1:])
    rhs = np.zeros(grid.n_cells - 1)
    rhs[0] -= lower[0] * left_value
    rhs[-1] -= upper[-1] * right_value
    if rhs.size < CR_CUTOFF:
        diag = -(lower + upper) + lam**2
        rhs = reference_thomas(lower[1:], diag, upper[:-1], rhs)
    else:
        rowsum = np.full(rhs.size, lam**2)
        rowsum[0] -= lower[0]
        rowsum[-1] -= upper[-1]
        rhs = reference_row_sum_reduction(lower, rowsum, upper, rhs)
    return np.concatenate(([left_value], rhs, [right_value]))


def test_solve_dirichlet_matches_reference_bit_for_bit(spec10):
    """Both paths, on either side of the cutoff and of powers of two.

    n cells make n - 1 unknowns.  Among them are table2's N = 20; 111 to
    113 and 300 unknowns, where the fused loop runs although _assemble
    plus Thomas would be faster; and CR_CUTOFF - 1, its last size.

    At lam = 10 solve_dirichlet also agrees within 1e-12 with the test's
    own scheme oracle, solved by solve_tridiagonal on the oracle's bands
    at every n, and by dense LU up to CR_CUTOFF + 1 unknowns (a dense
    solve of 2047 unknowns takes a quarter second) on the random and
    beta = 1/4 grids.  On the beta = 2 grids, whose steps shrink by orders
    of magnitude towards ell, LAPACK's partial pivoting leaves the
    diagonal and misses a 40-digit solve of the oracle by up to 2.6e-11
    at these n, where solve_tridiagonal misses it by at most 1.6e-14.
    At lam = 0 the row sums solve_tridiagonal forms from the diagonal
    keep eps*4/h^2 where the exact ones are 0, and the system is too
    ill-conditioned for an absolute bound (dense LU misses the affine
    solution by up to 2.6e-10 on the beta = 2 grids): there
    solve_dirichlet meets the exact affine solution within 1e-12, and
    solve_tridiagonal the residual bound of tridiag's tests."""
    rng = np.random.default_rng(2048)
    for n in (2, 3, 19, 20, 112, 113, 114, 301,
              CR_CUTOFF, CR_CUTOFF + 1, CR_CUTOFF + 2, 1024, 1025, 2048):
        grids = [random_grid(rng, n)] + [analytic_mapped_grid(GridMapping(spec10, beta), n)
                                         for beta in (0.25, 2.0)]
        for k, g in enumerate(grids):
            for lam in (0.0, 10.0):
                left, right = rng.uniform(-3, 3, size=2)
                u = solve_dirichlet(g, lam, left, right)
                assert np.array_equal(u, reference_solve_dirichlet(g, lam, left, right)), (n, lam)
                lower, diag, upper, rhs = scheme_bands(g.nodes, lam, left, right)
                x = solve_tridiagonal(lower, diag, upper, rhs)
                if lam:
                    assert np.max(np.abs(x - u[1:-1])) <= 1e-12, n
                    if n <= CR_CUTOFF + 2 and k < 2:  # not the beta = 2 grid
                        x_dense = np.linalg.solve(dense(lower, diag, upper), rhs)
                        assert np.max(np.abs(x_dense - u[1:-1])) <= 1e-12, n
                else:
                    affine = left + (right - left) * g.nodes / g.ell
                    assert np.max(np.abs(u - affine)) <= 1e-12, n
                    norm_a = np.max(diag - np.append(0.0, lower) - np.append(upper, 0.0))
                    bound = 1e-12 * (norm_a * np.max(np.abs(x)) + np.max(np.abs(rhs)))
                    assert np.max(np.abs(matvec(lower, diag, upper, x) - rhs)) <= bound, n


# cell counts: short and mid-sized systems, both solved by the fused loop,
# and unknowns from CR_CUTOFF on
REGIMES = (4, 122, CR_CUTOFF + 10)


def test_dirichlet_data_must_be_finite():
    for n in REGIMES:
        g = uniform_grid(ProblemSpec(1.0, 1.0), n)
        for name, args in (("lam", (np.nan, 0.0, 1.0)), ("lam", (np.inf, 0.0, 1.0)),
                           ("lam", (1e200, 0.0, 1.0)), ("lam", (-2.0**512, 0.0, 1.0)),
                           ("left_value", (1.0, -np.inf, 1.0)),
                           ("right_value", (1.0, 0.0, np.nan))):
            with pytest.raises(ValueError, match=name):
                solve_dirichlet(g, *args)
        # finite data whose eliminated boundary term overflows
        for args in ((1.0, 1e308, 1.0), (1.0, 0.0, -1e308)):
            with pytest.raises(ValueError, match="overflow"):
                solve_dirichlet(g, *args)


def test_boundary_terms_overflow_names_the_dirichlet_values():
    """One unknown takes both eliminated boundary terms: two finite terms
    whose sum overflows are rejected with a ValueError naming the values,
    not a numpy overflow warning.  So is a single term that overflows from
    large data on steps of 0.5, on both solve paths."""
    g = Grid([0.0, 1.0, 2.0], 2.0)
    with pytest.raises(ValueError, match=r"left_value=-1e\+308, right_value=-1e\+308"):
        solve_dirichlet(g, -5.0, -1e308, -1e308)
    # each term alone is finite and so is their sum: solved as before
    u = solve_dirichlet(g, -5.0, -1e307, -1e307)
    assert np.all(np.isfinite(u)) and u[1] == -2e307 / 27.0
    for n_cells in (4, 122):
        quarter = Grid(np.linspace(0.0, n_cells / 2, n_cells + 1), n_cells / 2)
        for args, named in (((1.0, 1e308, 1.0), r"left_value=1e\+308"),
                            ((1.0, 0.0, -1e308), r"right_value=-1e\+308")):
            with pytest.raises(ValueError, match=named):
                solve_dirichlet(quarter, *args)


def test_steps_too_small_for_the_coefficients(spec10):
    """Steps of 1e-200 make 1/h^2 overflow, on both paths.  Their
    product underflows to 0, which in Python floats is a division by zero;
    steps of 1e-160 leave a subnormal product whose reciprocal overflows;
    steps of 1e-154 leave finite bands whose diagonal overflows."""
    assert 1e-200 * 1e-200 == 0.0 and 1e-160 * 1e-160 > 0.0
    tiny = [0.0, 1e-200, 2e-200, 3e-200, 4e-200]
    for nodes in ([0.0, 1e-200, 2e-200, 0.5, 1.0], [0.0, 1e-160, 2e-160, 0.5, 1.0],
                  *(tiny + list(np.linspace(0.0, 1.0, n)[1:]) for n in (122, 1001))):
        g = Grid(nodes, 1.0)
        with pytest.raises(ValueError, match="too small"):
            solve_bvp(g, spec10)
    # uniform steps of 1e-154 leave both bands finite, about -1e308, while the
    # diagonal -(lower + upper) + lam**2 overflows; on steps of 1.5e-154 the
    # bands, about -4.4e307, overflow it only with lam**2 = 1.44e308: a check
    # on the bands alone would let both through
    for lam, step in ((10.0, 1e-154), (1.2e154, 1.5e-154)):
        for n in (20, 700):
            spec = ProblemSpec(lam, n * step)
            g = uniform_grid(spec, n)
            h = g.steps
            hj = 0.5 * (h[:-1] + h[1:])
            assert np.all(np.isfinite(1.0 / (hj * h[:-1]))) and np.all(np.isfinite(1.0 / (hj * h[1:])))
            with pytest.raises(ValueError, match=r"too small: the scheme's coefficients overflow"):
                solve_bvp(g, spec)
    # ell = 1e-320: distinct uniform nodes, whose error names ell and n_cells
    spec = ProblemSpec(10.0, 1e-320)
    g = uniform_grid(spec, 20)
    with pytest.raises(ValueError, match=r"overflow \(ell=1e-320, n_cells=20\)"):
        solve_bvp(g, spec)


def test_scheme_row_underflow_is_rejected():
    """Steps of 1e300/N make 1/h^2 underflow and lam = 1e-310 makes lam**2
    underflow: the diagonal is 0.  Each path names the parameters instead
    of meeting a zero pivot in elimination.  With lam = 1e-152 the diagonal
    is lam**2 = 1e-304, not 0 but below tridiag.PIVOT_FLOOR."""
    for spec in (ProblemSpec(lam=1e-310, ell=1e300), ProblemSpec(lam=1e-152, ell=1e300)):
        for n in (20, *REGIMES):
            g = uniform_grid(spec, n)
            for call in (lambda: solve_bvp(g, spec), lambda: solve_dirichlet(g, 0.0, 1.0, 2.0)):
                with pytest.raises(ValueError, match=rf"ell=1e\+300, n_cells={n}\)"):
                    call()


def test_declined_short_system_is_eliminated_by_cyclic_reduction():
    """Steps of 1e145, 1e140 and 1e160 with lam = 0: both diagonals pass
    tridiag.PIVOT_FLOOR (2e-285 and 2e-300), but the second pivot,
    2e-300 less the first row's share, falls below it.  The fused loop
    declines the system, the assembly accepts it, and cyclic reduction
    meets the small pivot at row 1."""
    x = [0.0, 1e145, 1e145 + 1e140, 1e145 + 1e140 + 1e160]
    with pytest.raises(PivotError) as err:
        solve_dirichlet(Grid(x, x[-1]), 0.0, 1.0, 2.0)
    assert err.value.index == 1
    assert 0.0 < err.value.pivot < 1e-300


def test_long_ladder_keeps_its_orders(spec10):
    """The closed-form row sums leave the long solves none of the error
    eps*4/h^2 that row sums summed from a rounded diagonal carry: beta =
    1/4 stays at the roundoff floor of 1e-14 from N=2560 to 81920 (summed
    row sums gave 5.3e-13 to 5.1e-11), and the uniform grid keeps its
    second-order constant N^2 err from N=40960 to 81920 (they gave 7.88
    against 1.533)."""
    quarter = GridMapping(spec10, 0.25)
    for n in (2560, 5120, 10240, 20480, 40960, 81920):
        assert max_error(solve_bvp(analytic_mapped_grid(quarter, n), spec10)) <= 1e-14, n
    c = [n * n * max_error(solve_bvp(uniform_grid(spec10, n), spec10)) for n in (40960, 81920)]
    assert abs(c[1] / c[0] - 1.0) <= 0.005


def test_long_solve_working_set(spec10):
    """A thread's first long solve allocates its workspace, 3.5n doubles,
    and the nodal vector; a copy of the bands would pass 6n.  A later one
    at the same n, or at a smaller n, allocates only the nodal vector."""
    n = 8192
    peaks = []

    def run():  # in a fresh thread, whose workspace starts empty
        for n_cells in (n, n, n // 2):
            grid = uniform_grid(spec10, n_cells)
            tracemalloc.start()
            try:
                solve_bvp(grid, spec10)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and len(peaks) == 3
    assert peaks[0] <= 6 * 8 * n
    # n_cells + 1 nodes, plus slack for small Python objects, well below
    # the kernel's buffer of n/2 doubles
    for n_cells, peak in zip((n, n // 2), peaks[1:]):
        assert peak <= 8 * (n_cells + 1) + 8192, n_cells


def test_long_solves_in_two_threads_match_one_after_the_other(spec10):
    """Each thread has its own workspace: long solves at different n in
    two threads at once equal the same solves run in turn, bit for bit."""
    mapping = GridMapping(spec10, 0.25)
    grids = [[uniform_grid(spec10, 3000), analytic_mapped_grid(mapping, 5000)],
             [analytic_mapped_grid(mapping, 4000), uniform_grid(spec10, 7000)]]
    expected = [[solve_bvp(g, spec10).values for g in row] for row in grids]
    results = [[], []]
    start = threading.Barrier(2, timeout=60)

    def run(i):
        start.wait()
        for _ in range(20):
            results[i].extend(solve_bvp(g, spec10).values for g in grids[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for row, want in zip(results, expected):
        assert len(row) == 20 * len(want)
        for k, values in enumerate(row):
            assert np.array_equal(values, want[k % len(want)])


# --- the stacked solve ----------------------------------------------------------


def _stack(rng, spec, rows, n_cells):
    """rows random grids of n_cells cells on [0, spec.ell], graded as the
    adaptive loop grades them, towards the layer at ell."""
    return np.array([random_grid(rng, n_cells, spec.ell).nodes**0.5 * spec.ell**0.5
                     for _ in range(rows)])


def _rows(nodes, spec):
    """_solve_short on each row as a list, as one array."""
    lam2 = float(spec.lam**2)
    return np.array([_solve_short(x, lam2, spec.left_bc, spec.right_bc) for x in nodes.tolist()])


@pytest.mark.parametrize("n_cells", [2, 3, 20, 100])
@pytest.mark.parametrize("rows", [1, 2, STACK_ROWS - 1, STACK_ROWS, 45])
def test_stacked_solve_is_the_row_loop_bit_for_bit(spec10, monkeypatch, rows, n_cells):
    """solve_stack gives _solve_short's values on every row, bit for bit,
    below STACK_ROWS row by row and from it column by column across the
    rows; _solve_columns gives them on any stack.  No numpy warning."""
    calls = []
    monkeypatch.setattr(solver, "_solve_columns",
                        lambda *args: calls.append(len(args[0])) or _solve_columns(*args))
    nodes = _stack(np.random.default_rng(rows * n_cells), spec10, rows, n_cells)
    expected = _rows(nodes, spec10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solve_stack(nodes, spec10)
        direct = _solve_columns(nodes, float(spec10.lam**2), spec10.left_bc, spec10.right_bc)
    assert got.tobytes() == expected.tobytes() and direct.tobytes() == expected.tobytes()
    assert calls == ([rows] if rows >= STACK_ROWS else [])


@pytest.mark.parametrize("rows", [STACK_ROWS - 1, STACK_ROWS, 45])
def test_a_row_that_fails_a_check_sends_the_stack_to_solve_dirichlet(spec10, rows):
    """One row of the stack starts with two steps of 1e-200, whose product
    underflows to 0: _solve_short and _solve_columns both return None, and
    solve_stack raises what solve_dirichlet raises on that row, with no
    numpy warning.  A stack of the other rows solves as before."""
    nodes = _stack(np.random.default_rng(7), spec10, rows, 20)
    bad = rows // 2
    nodes[bad, 1:3] = 1e-200, 2e-200
    lam2 = float(spec10.lam**2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _solve_short(nodes[bad].tolist(), lam2, spec10.left_bc, spec10.right_bc) is None
        assert _solve_columns(nodes, lam2, spec10.left_bc, spec10.right_bc) is None
        with pytest.raises(ValueError) as alone:
            solve_dirichlet(Grid(nodes[bad], spec10.ell), spec10.lam, spec10.left_bc,
                            spec10.right_bc)
        with pytest.raises(ValueError) as stacked:
            solve_stack(nodes, spec10)
    assert str(stacked.value) == str(alone.value) == (
        "grid steps too small: the scheme's coefficients overflow (ell=1.0, n_cells=20)")
    good = np.delete(nodes, bad, axis=0)
    assert solve_stack(good, spec10).tobytes() == _rows(good, spec10).tobytes()


def test_a_pivot_below_the_floor_fails_the_stacked_check():
    """Huge steps at a lam whose square underflows leave Thomas pivots that
    fall below PIVOT_FLOOR: the stacked solve returns None where the row
    loop does, and solve_stack raises what solve_dirichlet raises."""
    spec = ProblemSpec(1e-200, 2.2e151)
    x = uniform_grid(spec, 20).nodes
    nodes = np.repeat(x[None], STACK_ROWS, axis=0)
    lam2 = float(spec.lam**2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _solve_short(x.tolist(), lam2, spec.left_bc, spec.right_bc) is None
        assert _solve_columns(nodes, lam2, spec.left_bc, spec.right_bc) is None
        with pytest.raises(PivotError) as alone:
            solve_dirichlet(Grid(x, spec.ell), spec.lam, spec.left_bc, spec.right_bc)
        with pytest.raises(PivotError) as stacked:
            solve_stack(nodes, spec)
    assert str(stacked.value) == str(alone.value)


def test_a_boundary_term_that_overflows_fails_the_stacked_check(spec10):
    """A right value of 1e308 overflows its eliminated boundary term, so
    the last forward d is not finite while every pivot is: the stacked
    solve returns None where the row loop does, and solve_dirichlet
    refuses the data."""
    x = uniform_grid(spec10, 20).nodes
    nodes = np.repeat(x[None], STACK_ROWS, axis=0)
    lam2 = float(spec10.lam**2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _solve_short(x.tolist(), lam2, spec10.left_bc, 1e308) is None
        assert _solve_columns(nodes, lam2, spec10.left_bc, 1e308) is None
        with pytest.raises(ValueError, match="^Dirichlet data too large for the grid steps"):
            solve_dirichlet(Grid(x, spec10.ell), spec10.lam, spec10.left_bc, 1e308)
