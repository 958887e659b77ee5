import numpy as np
import pytest

from equifd import (
    DiscreteSolution,
    ProblemSpec,
    PivotError,
    TridiagonalSystem,
    assemble_scheme,
    max_error,
    solve_bvp,
    solve_tridiagonal,
    uniform_grid,
)
from equifd.solver import CR_CUTOFF
from conftest import reference_row_sum_reduction, reference_thomas

# sizes around the solver's cutoff and around powers of two (the
# reduction's levels change shape there)
CR_SIZES = (CR_CUTOFF - 1, CR_CUTOFF, 511, 512, 513, 1023, 1024, 1025, 2047)


def random_dominant_system(rng, n):
    """Strictly diagonally dominant system with random bands."""
    lower = rng.uniform(-1.0, 1.0, size=max(n - 1, 0))
    upper = rng.uniform(-1.0, 1.0, size=max(n - 1, 0))
    diag = np.ones(n)
    diag[1:] += np.abs(lower)
    diag[:-1] += np.abs(upper)
    diag += rng.uniform(0.1, 2.0, size=n)
    diag *= rng.choice([-1.0, 1.0], size=n)
    rhs = rng.uniform(-5.0, 5.0, size=n)
    return TridiagonalSystem(lower=lower, diag=diag, upper=upper, rhs=rhs)


def reference_cyclic_reduction(sys):
    """The reference kernel on the row sums diag + lower + upper, summed as
    solve_tridiagonal sums them."""
    a = np.concatenate(([0.0], sys.lower))
    c = np.concatenate((sys.upper, [0.0]))
    s = a + sys.diag
    s += c
    return reference_row_sum_reduction(a, s, c, sys.rhs)


def test_identity_system():
    sys = TridiagonalSystem(lower=[0, 0], diag=[1, 1, 1], upper=[0, 0], rhs=[3, 5, 7])
    assert np.array_equal(solve_tridiagonal(sys), [3.0, 5.0, 7.0])


def test_symmetric_two_by_two():
    sys = TridiagonalSystem(lower=[1], diag=[2, 2], upper=[1], rhs=[3, 3])
    assert np.allclose(solve_tridiagonal(sys), [1.0, 1.0], rtol=1e-15)


def test_single_unknown():
    sys = TridiagonalSystem(lower=[], diag=[4.0], upper=[], rhs=[2.0])
    assert solve_tridiagonal(sys) == pytest.approx([0.5])


def test_matches_dense_oracle_8x8():
    rng = np.random.default_rng(7)
    sys = random_dominant_system(rng, 8)
    x = solve_tridiagonal(sys)
    x_dense = np.linalg.solve(sys.dense(), sys.rhs)
    assert np.max(np.abs(x - x_dense)) <= 1e-12


def test_dense_oracle_sweep():
    """100+ random dominant systems of sizes 1..32 against LAPACK."""
    rng = np.random.default_rng(2024)
    count = 0
    for n in range(1, 33):
        for _ in range(4):
            sys = random_dominant_system(rng, n)
            x = solve_tridiagonal(sys)
            x_dense = np.linalg.solve(sys.dense(), sys.rhs)
            assert np.max(np.abs(x - x_dense)) <= 1e-11
            count += 1
    assert count >= 100


def test_residual_bound():
    rng = np.random.default_rng(11)
    for n in [1, 2, 5, 17, 32, *CR_SIZES]:
        sys = random_dominant_system(rng, n)
        norm_a = np.max(np.abs(sys.dense()).sum(axis=1))
        x = solve_tridiagonal(sys)
        resid = np.max(np.abs(sys.matvec(x) - sys.rhs))
        bound = 1e-12 * (norm_a * np.max(np.abs(x)) + np.max(np.abs(sys.rhs)))
        assert resid <= bound, n


def test_solve_does_not_mutate_input():
    long = random_dominant_system(np.random.default_rng(5), 2 * CR_CUTOFF + 1)
    for sys in (TridiagonalSystem(lower=[1.0], diag=[3.0, 3.0], upper=[1.0], rhs=[1.0, 2.0]),
                long):
        before = (sys.lower.copy(), sys.diag.copy(), sys.upper.copy(), sys.rhs.copy())
        solve_tridiagonal(sys)
        assert np.array_equal(sys.lower, before[0])
        assert np.array_equal(sys.diag, before[1])
        assert np.array_equal(sys.upper, before[2])
        assert np.array_equal(sys.rhs, before[3])


def test_zero_pivot_at_start():
    sys = TridiagonalSystem(lower=[0.0], diag=[0.0, 1.0], upper=[0.0], rhs=[1.0, 1.0])
    with pytest.raises(PivotError) as err:
        solve_tridiagonal(sys)
    assert err.value.index == 0


def test_zero_pivot_during_elimination():
    # second pivot is 0.5 - 0.5*1.0 = 0
    sys = TridiagonalSystem(lower=[0.5], diag=[1.0, 0.5], upper=[1.0], rhs=[1.0, 1.0])
    with pytest.raises(PivotError) as err:
        solve_tridiagonal(sys)
    assert err.value.index == 1


def test_row_sums_that_overflow_are_rejected():
    """Finite bands whose row sums diag + lower + upper overflow are
    rejected by name, not solved into NaN (the dense solve gives 4e-309
    for each entry)."""
    sys = TridiagonalSystem(lower=[1e308], diag=[1.5e308, 1.5e308], upper=[1e308], rhs=[1, 1])
    with pytest.raises(ValueError, match=r"row sums diag \+ lower \+ upper overflow"):
        solve_tridiagonal(sys)


def test_row_sums_lose_a_dwarfed_diagonal():
    """The kernel recovers each pivot as rowsum - lower - upper, so a
    system far from diagonally dominant can lose its diagonal to
    cancellation: here 1 + 1e17 - 1e17 leaves a first pivot of 0, where
    the dense solve gives [1e-17, 1e-17]."""
    sys = TridiagonalSystem(lower=[1e17], diag=[1.0, 1.0], upper=[1e17], rhs=[1.0, 1.0])
    with pytest.raises(PivotError) as err:
        solve_tridiagonal(sys)
    assert (err.value.index, err.value.pivot) == (0, 0.0)


def test_band_length_validation():
    with pytest.raises(ValueError):
        TridiagonalSystem(lower=[1.0, 2.0], diag=[1.0, 1.0], upper=[1.0], rhs=[1.0, 1.0])
    with pytest.raises(ValueError):
        TridiagonalSystem(lower=[], diag=[], upper=[], rhs=[])
    bands = dict(lower=[1.0], diag=[1.0, 1.0], upper=[1.0], rhs=[1.0, 1.0])
    for name in bands:
        for bad in (np.nan, np.inf, -np.inf):
            values = list(bands[name])
            values[-1] = bad
            with pytest.raises(ValueError, match=name):
                TridiagonalSystem(**{**bands, name: values})


def test_short_systems_match_reference_bit_for_bit():
    """Below the solver's cutoff too, the in-place reduction does the
    arithmetic of the copying one in the same order: equal results."""
    rng = np.random.default_rng(99)
    for n in range(1, CR_CUTOFF):
        sys = random_dominant_system(rng, n)
        assert np.array_equal(solve_tridiagonal(sys), reference_cyclic_reduction(sys)), n


def test_long_systems_match_reference_bit_for_bit():
    """From the cutoff on, and around powers of two: equal results."""
    rng = np.random.default_rng(98)
    spec = ProblemSpec(lam=10.0, ell=1.0)
    systems = [random_dominant_system(rng, n) for n in CR_SIZES + (1, 2, 3)]
    systems.append(assemble_scheme(uniform_grid(spec, 4096), spec))
    for sys in systems:
        assert np.array_equal(solve_tridiagonal(sys), reference_cyclic_reduction(sys)), sys.n


def test_cyclic_reduction_matches_dense_oracle():
    rng = np.random.default_rng(4096)
    for n in CR_SIZES:
        sys = random_dominant_system(rng, n)
        x_dense = np.linalg.solve(sys.dense(), sys.rhs)
        assert np.max(np.abs(solve_tridiagonal(sys) - x_dense)) <= 1e-12, n


def _identity_system(n):
    return np.zeros(n - 1), np.ones(n), np.zeros(n - 1), np.ones(n)


def test_cyclic_reduction_zero_pivot_first_level():
    # rows 0, 2, 4, ... are eliminated first; row 6 has no pivot
    lower, diag, upper, rhs = _identity_system(CR_CUTOFF + 3)
    diag[6] = 0.0
    with pytest.raises(PivotError) as err:
        solve_tridiagonal(TridiagonalSystem(lower, diag, upper, rhs))
    assert err.value.index == 6


def test_cyclic_reduction_zero_pivot_deeper_level():
    # rows 8-10 couple as [1 1 0; 0.5 1 0.5; 0 1 1]; eliminating rows 8 and
    # 10 leaves row 9 (reduced row 2 at stride 2) with pivot 1 - 0.5 - 0.5 = 0
    lower, diag, upper, rhs = _identity_system(CR_CUTOFF + 3)
    upper[8], lower[8], upper[9], lower[9] = 1.0, 0.5, 0.5, 1.0
    with pytest.raises(PivotError) as err:
        solve_tridiagonal(TridiagonalSystem(lower, diag, upper, rhs))
    assert err.value.index == 9
    assert err.value.pivot == 0.0


def test_weakly_dominant_scheme_matches_reference():
    """The uniform-grid scheme at N=40960: diagonal ~2N^2 over a row sum of
    lam^2.  Cyclic reduction without row sums moves this error by 18%."""
    spec = ProblemSpec(lam=10.0, ell=1.0)
    grid = uniform_grid(spec, 40960)
    interior = reference_thomas(assemble_scheme(grid, spec))
    values = np.concatenate([[spec.left_bc], interior, [spec.right_bc]])
    reference = max_error(DiscreteSolution(grid, values, spec))
    assert max_error(solve_bvp(grid, spec)) == pytest.approx(reference, rel=0.01)
