import numpy as np
import pytest

from equifd import (
    DiscreteSolution,
    ProblemSpec,
    PivotError,
    max_error,
    solve_bvp,
    solve_tridiagonal,
    uniform_grid,
)
from equifd.solver import CR_CUTOFF
from conftest import dense, matvec, reference_row_sum_reduction, reference_thomas, scheme_bands

# sizes around the solver's cutoff and around powers of two (the
# reduction's levels change shape there)
CR_SIZES = (CR_CUTOFF - 1, CR_CUTOFF, 511, 512, 513, 1023, 1024, 1025, 2047)


def random_dominant_system(rng, n):
    """Strictly diagonally dominant system with random bands: lower, diag,
    upper and rhs."""
    lower = rng.uniform(-1.0, 1.0, size=max(n - 1, 0))
    upper = rng.uniform(-1.0, 1.0, size=max(n - 1, 0))
    diag = np.ones(n)
    diag[1:] += np.abs(lower)
    diag[:-1] += np.abs(upper)
    diag += rng.uniform(0.1, 2.0, size=n)
    diag *= rng.choice([-1.0, 1.0], size=n)
    rhs = rng.uniform(-5.0, 5.0, size=n)
    return lower, diag, upper, rhs


def reference_cyclic_reduction(lower, diag, upper, rhs):
    """The reference kernel on the row sums diag + lower + upper, summed as
    solve_tridiagonal sums them."""
    a = np.concatenate(([0.0], lower))
    c = np.concatenate((upper, [0.0]))
    s = a + diag
    s += c
    return reference_row_sum_reduction(a, s, c, rhs)


def test_identity_system():
    assert np.array_equal(solve_tridiagonal([0, 0], [1, 1, 1], [0, 0], [3, 5, 7]), [3.0, 5.0, 7.0])


def test_symmetric_two_by_two():
    assert np.allclose(solve_tridiagonal([1], [2, 2], [1], [3, 3]), [1.0, 1.0], rtol=1e-15)


def test_single_unknown():
    assert solve_tridiagonal([], [4.0], [], [2.0]) == pytest.approx([0.5])


def test_matches_dense_oracle_8x8():
    rng = np.random.default_rng(7)
    lower, diag, upper, rhs = random_dominant_system(rng, 8)
    x = solve_tridiagonal(lower, diag, upper, rhs)
    x_dense = np.linalg.solve(dense(lower, diag, upper), rhs)
    assert np.max(np.abs(x - x_dense)) <= 1e-12


def test_dense_oracle_sweep():
    """100+ random dominant systems of sizes 1..32 against LAPACK."""
    rng = np.random.default_rng(2024)
    count = 0
    for n in range(1, 33):
        for _ in range(4):
            lower, diag, upper, rhs = random_dominant_system(rng, n)
            x = solve_tridiagonal(lower, diag, upper, rhs)
            x_dense = np.linalg.solve(dense(lower, diag, upper), rhs)
            assert np.max(np.abs(x - x_dense)) <= 1e-11
            count += 1
    assert count >= 100


def test_residual_bound():
    rng = np.random.default_rng(11)
    for n in [1, 2, 5, 17, 32, *CR_SIZES]:
        lower, diag, upper, rhs = random_dominant_system(rng, n)
        norm_a = np.max(np.abs(dense(lower, diag, upper)).sum(axis=1))
        x = solve_tridiagonal(lower, diag, upper, rhs)
        resid = np.max(np.abs(matvec(lower, diag, upper, x) - rhs))
        bound = 1e-12 * (norm_a * np.max(np.abs(x)) + np.max(np.abs(rhs)))
        assert resid <= bound, n


def test_solve_does_not_mutate_input():
    long = random_dominant_system(np.random.default_rng(5), 2 * CR_CUTOFF + 1)
    short = tuple(np.array(band) for band in ([1.0], [3.0, 3.0], [1.0], [1.0, 2.0]))
    for bands in (short, long):
        before = [band.copy() for band in bands]
        solve_tridiagonal(*bands)
        for band, copy in zip(bands, before):
            assert np.array_equal(band, copy)


def test_zero_pivot_at_start():
    with pytest.raises(PivotError) as err:
        solve_tridiagonal([0.0], [0.0, 1.0], [0.0], [1.0, 1.0])
    assert err.value.index == 0


def test_zero_pivot_during_elimination():
    # second pivot is 0.5 - 0.5*1.0 = 0
    with pytest.raises(PivotError) as err:
        solve_tridiagonal([0.5], [1.0, 0.5], [1.0], [1.0, 1.0])
    assert err.value.index == 1


def test_row_sums_that_overflow_are_rejected():
    """Finite bands whose row sums diag + lower + upper overflow are
    rejected by name, not solved into NaN (the dense solve gives 4e-309
    for each entry)."""
    with pytest.raises(ValueError, match=r"row sums diag \+ lower \+ upper overflow"):
        solve_tridiagonal([1e308], [1.5e308, 1.5e308], [1e308], [1, 1])


def test_row_sums_lose_a_dwarfed_diagonal():
    """The kernel recovers each pivot as rowsum - lower - upper, so a
    system far from diagonally dominant can lose its diagonal to
    cancellation: here 1 + 1e17 - 1e17 leaves a first pivot of 0, where
    the dense solve gives [1e-17, 1e-17]."""
    with pytest.raises(PivotError) as err:
        solve_tridiagonal([1e17], [1.0, 1.0], [1e17], [1.0, 1.0])
    assert (err.value.index, err.value.pivot) == (0, 0.0)


def test_band_length_validation():
    with pytest.raises(ValueError, match="inconsistent band lengths: diag 2, rhs 2, lower 2"):
        solve_tridiagonal([1.0, 2.0], [1.0, 1.0], [1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="at least one unknown"):
        solve_tridiagonal([], [], [], [])
    bands = dict(lower=[1.0], diag=[1.0, 1.0], upper=[1.0], rhs=[1.0, 1.0])
    for name in bands:
        for bad in (np.nan, np.inf, -np.inf):
            values = list(bands[name])
            values[-1] = bad
            with pytest.raises(ValueError, match=name):
                solve_tridiagonal(**{**bands, name: values})


def test_short_systems_match_reference_bit_for_bit():
    """Below the solver's cutoff too, the in-place reduction does the
    arithmetic of the copying one in the same order: equal results."""
    rng = np.random.default_rng(99)
    for n in range(1, CR_CUTOFF):
        bands = random_dominant_system(rng, n)
        assert np.array_equal(solve_tridiagonal(*bands), reference_cyclic_reduction(*bands)), n


def test_long_systems_match_reference_bit_for_bit():
    """From the cutoff on, and around powers of two: equal results."""
    rng = np.random.default_rng(98)
    spec = ProblemSpec(lam=10.0, ell=1.0)
    systems = [random_dominant_system(rng, n) for n in CR_SIZES + (1, 2, 3)]
    systems.append(scheme_bands(uniform_grid(spec, 4096).nodes, spec.lam, spec.left_bc,
                                spec.right_bc))
    for bands in systems:
        x = solve_tridiagonal(*bands)
        assert np.array_equal(x, reference_cyclic_reduction(*bands)), x.size


def test_cyclic_reduction_matches_dense_oracle():
    rng = np.random.default_rng(4096)
    for n in CR_SIZES:
        lower, diag, upper, rhs = random_dominant_system(rng, n)
        x_dense = np.linalg.solve(dense(lower, diag, upper), rhs)
        assert np.max(np.abs(solve_tridiagonal(lower, diag, upper, rhs) - x_dense)) <= 1e-12, n


def _identity_system(n):
    return np.zeros(n - 1), np.ones(n), np.zeros(n - 1), np.ones(n)


def test_cyclic_reduction_zero_pivot_first_level():
    # rows 0, 2, 4, ... are eliminated first; row 6 has no pivot
    lower, diag, upper, rhs = _identity_system(CR_CUTOFF + 3)
    diag[6] = 0.0
    with pytest.raises(PivotError) as err:
        solve_tridiagonal(lower, diag, upper, rhs)
    assert err.value.index == 6


def test_cyclic_reduction_zero_pivot_deeper_level():
    # rows 8-10 couple as [1 1 0; 0.5 1 0.5; 0 1 1]; eliminating rows 8 and
    # 10 leaves row 9 (reduced row 2 at stride 2) with pivot 1 - 0.5 - 0.5 = 0
    lower, diag, upper, rhs = _identity_system(CR_CUTOFF + 3)
    upper[8], lower[8], upper[9], lower[9] = 1.0, 0.5, 0.5, 1.0
    with pytest.raises(PivotError) as err:
        solve_tridiagonal(lower, diag, upper, rhs)
    assert err.value.index == 9
    assert err.value.pivot == 0.0


def test_weakly_dominant_scheme_matches_reference():
    """The uniform-grid scheme at N=40960: diagonal ~2N^2 over a row sum of
    lam^2.  Cyclic reduction without row sums moves this error by 18%."""
    spec = ProblemSpec(lam=10.0, ell=1.0)
    grid = uniform_grid(spec, 40960)
    interior = reference_thomas(*scheme_bands(grid.nodes, spec.lam, spec.left_bc, spec.right_bc))
    values = np.concatenate([[spec.left_bc], interior, [spec.right_bc]])
    reference = max_error(DiscreteSolution(grid, values, spec))
    assert max_error(solve_bvp(grid, spec)) == pytest.approx(reference, rel=0.01)
