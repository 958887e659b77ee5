import tracemalloc

import numpy as np
import pytest

from equifd import (
    Grid,
    GridMapping,
    ProblemSpec,
    TridiagonalSystem,
    analytic_mapped_grid,
    assemble_dirichlet,
    assemble_scheme,
    max_error,
    solve_bvp,
    solve_dirichlet,
    solve_tridiagonal,
    uniform_grid,
)
from equifd.io import read_csv
from equifd.solver import FUSED_CUTOFF
from equifd.tridiag import CR_CUTOFF
from conftest import random_grid


def test_pure_laplacian_row_pattern(spec10):
    g = uniform_grid(spec10, 4)
    sys = assemble_dirichlet(g, 0.0, 1.0, 2.0)
    assert np.array_equal(sys.diag, [32.0, 32.0, 32.0])
    assert np.array_equal(sys.lower, [-16.0, -16.0])
    assert np.array_equal(sys.upper, [-16.0, -16.0])


def test_uniform_reduction_matches_classic_stencil(spec10):
    """On equal steps the scheme is the standard three-point formula."""
    g = uniform_grid(spec10, 4)
    dx = 0.25
    sys = assemble_scheme(g, spec10)
    assert np.array_equal(sys.diag, 2.0 / dx**2 + spec10.lam**2 * np.ones(3))
    assert np.array_equal(sys.lower, -np.ones(2) / dx**2)
    assert np.array_equal(sys.upper, -np.ones(2) / dx**2)
    # boundary elimination into the right-hand side
    assert sys.rhs[0] == spec10.left_bc / dx**2
    assert sys.rhs[-1] == spec10.right_bc / dx**2


def test_three_node_hand_coefficients():
    spec = ProblemSpec(lam=1.0, ell=1.0)
    g = Grid(np.array([0.0, 0.25, 1.0]), 1.0)
    sys = assemble_scheme(g, spec)
    assert sys.n == 1
    assert sys.diag[0] == pytest.approx(1 / (0.5 * 0.75) + 1 / (0.5 * 0.25) + 1.0, rel=1e-15)


def test_strict_diagonal_dominance(spec10):
    rng = np.random.default_rng(5)
    g = random_grid(rng, 17)
    sys = assemble_scheme(g, spec10)
    row_off = np.zeros(sys.n)
    row_off[1:] += np.abs(sys.lower)
    row_off[:-1] += np.abs(sys.upper)
    assert np.all(np.abs(sys.diag) > row_off)
    assert np.all(sys.diag > 0)
    assert np.all(sys.lower < 0) and np.all(sys.upper < 0)


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
    """The assembly and solve that solve_dirichlet ran before it assembled
    into the solver's own arrays, kept unchanged as its reference."""
    h = grid.steps
    hj = 0.5 * (h[:-1] + h[1:])
    lower = -1.0 / (hj * h[:-1])
    upper = -1.0 / (hj * h[1:])
    diag = -(lower + upper) + lam**2
    rhs = np.zeros(grid.n_cells - 1)
    rhs[0] -= lower[0] * left_value
    rhs[-1] -= upper[-1] * right_value
    sys = TridiagonalSystem(lower=lower[1:], diag=diag, upper=upper[:-1], rhs=rhs)
    return np.concatenate(([left_value], solve_tridiagonal(sys), [right_value]))


def test_solve_dirichlet_matches_reference_bit_for_bit(spec10):
    """All three paths, on either side of both cutoffs and of powers of two.

    n cells make n - 1 unknowns: table2's N = 20 and the fused loop's cut
    with its neighbours are among them."""
    rng = np.random.default_rng(2048)
    for n in (2, 3, 19, 20, FUSED_CUTOFF, FUSED_CUTOFF + 1, FUSED_CUTOFF + 2,
              CR_CUTOFF, CR_CUTOFF + 1, CR_CUTOFF + 2, 1024, 1025, 2048):
        grids = [random_grid(rng, n)] + [analytic_mapped_grid(GridMapping(spec10, beta), n)
                                         for beta in (0.25, 2.0)]
        for g in grids:
            for lam in (0.0, 10.0):
                left, right = rng.uniform(-3, 3, size=2)
                u = solve_dirichlet(g, lam, left, right)
                assert np.array_equal(u, reference_solve_dirichlet(g, lam, left, right)), (n, lam)
                sys = assemble_dirichlet(g, lam, left, right)
                assert np.array_equal(solve_tridiagonal(sys), u[1:-1]), (n, lam)


# cell counts whose unknowns fall below FUSED_CUTOFF, between the cutoffs,
# and from CR_CUTOFF on
REGIMES = (4, FUSED_CUTOFF + 10, CR_CUTOFF + 10)


def test_dirichlet_data_must_be_finite():
    for n in REGIMES:
        g = uniform_grid(ProblemSpec(1.0, 1.0), n)
        for name, args in (("lam", (np.nan, 0.0, 1.0)), ("lam", (np.inf, 0.0, 1.0)),
                           ("lam", (1e200, 0.0, 1.0)), ("lam", (-2.0**512, 0.0, 1.0)),
                           ("left_value", (1.0, -np.inf, 1.0)),
                           ("right_value", (1.0, 0.0, np.nan))):
            for call in (solve_dirichlet, assemble_dirichlet):
                with pytest.raises(ValueError, match=name):
                    call(g, *args)
        # finite data whose eliminated boundary term overflows
        for args in ((1.0, 1e308, 1.0), (1.0, 0.0, -1e308)):
            for call in (solve_dirichlet, assemble_dirichlet):
                with pytest.raises(ValueError, match="overflow"):
                    call(g, *args)


def test_boundary_terms_overflow_names_the_dirichlet_values():
    """One unknown takes both eliminated boundary terms: two finite terms
    whose sum overflows are rejected with a ValueError naming the values,
    not a numpy overflow warning.  So is a single term that overflows from
    large data on steps of 0.5, on both solve paths."""
    g = Grid([0.0, 1.0, 2.0], 2.0)
    for call in (solve_dirichlet, assemble_dirichlet):
        with pytest.raises(ValueError, match=r"left_value=-1e\+308, right_value=-1e\+308"):
            call(g, -5.0, -1e308, -1e308)
    # each term alone is finite and so is their sum: solved as before
    u = solve_dirichlet(g, -5.0, -1e307, -1e307)
    assert np.all(np.isfinite(u)) and u[1] == -2e307 / 27.0
    for n_cells in (4, FUSED_CUTOFF + 10):
        quarter = Grid(np.linspace(0.0, n_cells / 2, n_cells + 1), n_cells / 2)
        for args, named in (((1.0, 1e308, 1.0), r"left_value=1e\+308"),
                            ((1.0, 0.0, -1e308), r"right_value=-1e\+308")):
            for call in (solve_dirichlet, assemble_dirichlet):
                with pytest.raises(ValueError, match=named):
                    call(quarter, *args)


def test_steps_too_small_for_the_coefficients(spec10):
    """Steps of 1e-200 make 1/h^2 overflow, on all three paths.  Their
    product underflows to 0, which in Python floats is a division by zero;
    steps of 1e-160 leave a subnormal product whose reciprocal overflows."""
    assert 1e-200 * 1e-200 == 0.0 and 1e-160 * 1e-160 > 0.0
    tiny = [0.0, 1e-200, 2e-200, 3e-200, 4e-200]
    for nodes in ([0.0, 1e-200, 2e-200, 0.5, 1.0], [0.0, 1e-160, 2e-160, 0.5, 1.0],
                  *(tiny + list(np.linspace(0.0, 1.0, n)[1:]) for n in (FUSED_CUTOFF + 10, 1001))):
        g = Grid(nodes, 1.0)
        for call in (lambda: solve_bvp(g, spec10), lambda: assemble_scheme(g, spec10)):
            with pytest.raises(ValueError, match="too small"):
                call()


def test_scheme_row_underflow_is_rejected():
    """Steps of 1e300/N make 1/h^2 underflow and lam = 1e-310 makes lam**2
    underflow: the diagonal is 0.  Each path names the parameters instead
    of meeting a zero pivot in elimination.  With lam = 1e-152 the diagonal
    is lam**2 = 1e-304, not 0 but below tridiag.PIVOT_FLOOR."""
    for spec in (ProblemSpec(lam=1e-310, ell=1e300), ProblemSpec(lam=1e-152, ell=1e300)):
        for n in (20, *REGIMES):
            g = uniform_grid(spec, n)
            for call in (lambda: solve_bvp(g, spec), lambda: assemble_scheme(g, spec),
                         lambda: solve_dirichlet(g, 0.0, 1.0, 2.0)):
                with pytest.raises(ValueError, match=rf"ell=1e\+300, n_cells={n}\)"):
                    call()


def test_long_solve_working_set(spec10):
    """A long solve holds three bands, the nodal vector and the reduction's
    buffer of n/2, 4.5n doubles; a copy of the bands would pass 6n."""
    n = 8192
    grid = uniform_grid(spec10, n)
    tracemalloc.start()
    try:
        solve_bvp(grid, spec10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * n
