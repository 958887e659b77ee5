import copy
import pickle

import numpy as np
import pytest

from equifd import (
    DiscreteSolution,
    GridMapping,
    ProblemSpec,
    PivotError,
    analytic_mapped_grid,
    max_error,
    solve_bvp,
    solve_tridiagonal,
    uniform_grid,
)
from equifd.experiments import TABLE1_BETAS
from equifd.solver import CR_CUTOFF
from equifd.tridiag import solve_in_place
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


def _same(x, y) -> bool:
    """Equal values and equal signs, signed zeros included."""
    return np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


def test_every_n_to_1100_matches_reference_bit_for_bit():
    """At every n to 1,100 the kernel does the arithmetic of the copying
    reduction in the same order: equal results, signed zeros included.
    These n take from no level (n = 1) to ten (n >= 1024) before the one
    row left: levels 0 and 1 in place, the rest on compacted rows.  A
    zero right side, with signed zeros, gives a solution of signed
    zeros."""
    rng = np.random.default_rng(99)
    for n in range(1, 1101):
        lower, diag, upper, rhs = random_dominant_system(rng, n)
        zeros = np.copysign(np.zeros(n), rng.uniform(-1.0, 1.0, n))
        for b in (rhs, zeros):
            assert _same(solve_tridiagonal(lower, diag, upper, b),
                         reference_cyclic_reduction(lower, diag, upper, b)), n


def test_long_systems_match_reference_bit_for_bit():
    """From the cutoff on, around powers of two, and on the scheme of the
    four table1 grids at every rung of the 14-rung ladder (n = 9 to
    81,919): equal results, signed zeros included."""
    rng = np.random.default_rng(98)
    spec = ProblemSpec(lam=10.0, ell=1.0)
    systems = [random_dominant_system(rng, n) for n in CR_SIZES + (1, 2, 3)]
    for beta in TABLE1_BETAS:
        mapping = GridMapping(spec, beta)
        for k in range(14):
            nodes = analytic_mapped_grid(mapping, 10 * 2**k).nodes
            systems.append(scheme_bands(nodes, spec.lam, spec.left_bc, spec.right_bc))
    for bands in systems:
        x = solve_tridiagonal(*bands)
        assert _same(x, reference_cyclic_reduction(*bands)), x.size


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


def test_cyclic_reduction_zero_pivot_compacted_level():
    # decoupled rows keep their pivots; row 23 = 8*3 - 1 is eliminated at
    # level 3 (stride 8), the first level that runs on compacted rows
    lower, diag, upper, rhs = _identity_system(CR_CUTOFF + 3)
    diag[23] = 0.0
    with pytest.raises(PivotError) as err:
        solve_tridiagonal(lower, diag, upper, rhs)
    assert err.value.index == 23
    assert err.value.pivot == 0.0


def test_cyclic_reduction_zero_pivot_in_deepest_levels():
    # n = 579 runs nine levels; row 191 = 64*3 - 1 is eliminated at level 6
    # (stride 64), where 9 rows are left, and row 511, the one row left
    # after level 8, is solved last
    for row in (191, 511):
        lower, diag, upper, rhs = _identity_system(CR_CUTOFF + 3)
        diag[row] = 0.0
        with pytest.raises(PivotError) as err:
            solve_tridiagonal(lower, diag, upper, rhs)
        assert err.value.index == row
        assert err.value.pivot == 0.0


def test_a_solution_that_is_not_finite_is_a_value_error():
    """Systems that are not diagonally dominant enough overflow in the
    last rows, where the reference returns inf or NaN: solve_tridiagonal
    raises ValueError instead.  A zero pivot that shares its level with
    a NaN pivot (the second system, n = 11, from a random search over
    badly scaled systems) is still found and raises PivotError."""
    overflow = [1e300], [1e-10, 1.0], [1.0], [1.0, 1.0]
    nan_hides_zero = (
        [4e219, -5e210, -3e212, 2e219, 2e212, 1e216, 2e213, -2e217, -2e212, -5e213],
        [5e202, -5e207, -9e206, -7e205, 2e200, -2e205, -4e208, -3e204, -8e201, 5e205, 2e207],
        [3e-39, -4e-47, 2e-47, 5e-42, 2e-38, -2e-43, -4e-47, 5e-44, -2e-41, 8e-42],
        [-3e-248, 3e-248, 3e-248, 4e-248, -3e-248, 2e-248, -3e-248, 3e-248, 3e-248,
         -3e-248, -3e-248],
    )
    with np.errstate(all="ignore"):
        assert not np.isfinite(reference_cyclic_reduction(*map(np.array, overflow))).any()
    with pytest.raises(ValueError, match="^the solution is not finite"):
        solve_tridiagonal(*overflow)
    with pytest.raises(PivotError) as err:
        solve_tridiagonal(*nan_hides_zero)
    assert err.value.index == 9 and err.value.pivot == 0.0


@pytest.mark.parametrize("n", [4, 64])
def test_a_first_nan_pivot_hides_no_zero_pivot(n):
    """Row 0's pivot is NaN and row 2's is 0, both eliminated at level 0,
    at n = 4 and at n = 64.  The largest of the level's negated pivots is
    then the first NaN, which fails the check, so the zero pivot is still
    found, where numpy would have divided by it with a warning."""
    rowsum = np.ones(n)
    rowsum[0], rowsum[2] = np.nan, 0.0
    bands = np.zeros(n), rowsum, np.zeros(n), np.ones(n)
    with pytest.raises(PivotError) as err:
        solve_in_place(*bands, np.empty((n + 1) // 2))
    assert err.value.index == 2 and err.value.pivot == 0.0


def test_weakly_dominant_scheme_matches_reference():
    """The uniform-grid scheme at N=40960: diagonal ~2N^2 over a row sum of
    lam^2.  Cyclic reduction without row sums moves this error by 18%."""
    spec = ProblemSpec(lam=10.0, ell=1.0)
    grid = uniform_grid(spec, 40960)
    interior = reference_thomas(*scheme_bands(grid.nodes, spec.lam, spec.left_bc, spec.right_bc))
    values = np.concatenate([[spec.left_bc], interior, [spec.right_bc]])
    reference = max_error(DiscreteSolution(grid, values, spec))
    assert max_error(solve_bvp(grid, spec)) == pytest.approx(reference, rel=0.01)


@pytest.mark.parametrize("round_trip", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy,
                                        copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_pivot_error_survives_copy_and_pickle(round_trip):
    error = PivotError(7, 1e-310)
    got = round_trip(error)
    assert type(got) is PivotError and str(got) == str(error)
    assert (got.index, got.pivot) == (7, 1e-310)
