import math

import mpmath
import numpy as np
import pytest

from equifd import (AdaptiveConfig, ExactPowerMonitor, ProblemSpec, equidistribute,
                    exact_derivative, exact_solution, uniform_grid)
from equifd.problem import largest, smallest

mpmath.mp.dps = 50


def hp_exp(x):
    """High-precision exponential reference."""
    return float(mpmath.exp(x))


def test_right_boundary_is_one(spec10):
    assert exact_solution(spec10, 1.0) == 1.0


def test_left_boundary_value(spec10):
    assert exact_solution(spec10, 0.0) == pytest.approx(hp_exp(-10), rel=1e-15)


def test_midpoint_value_lam1():
    spec = ProblemSpec(lam=1.0, ell=1.0)
    assert exact_solution(spec, 0.5) == pytest.approx(hp_exp(-0.5), rel=1e-15)


def test_boundary_consistency_with_stored_bcs(spec10):
    assert exact_solution(spec10, 0.0) == spec10.left_bc
    assert exact_solution(spec10, spec10.ell) == spec10.right_bc


def test_fourth_derivative_at_right_end(spec10):
    assert exact_derivative(spec10, 1.0, order=4) == 10.0**4


def test_first_derivative_at_right_end(spec10):
    assert exact_derivative(spec10, 1.0, order=1) == 10.0


def test_third_derivative_midpoint(spec10):
    expected = float(10**3 * mpmath.exp(-5))
    assert exact_derivative(spec10, 0.5, order=3) == pytest.approx(expected, rel=1e-15)


def test_solution_satisfies_ode(spec10):
    x = np.linspace(0.0, 1.0, 37)
    resid = exact_derivative(spec10, x, 2) - spec10.lam**2 * exact_solution(spec10, x)
    scale = exact_derivative(spec10, x, 2)
    assert np.all(np.abs(resid) <= 1e-12 * np.abs(scale))


def test_derivative_ratio_is_lam(spec10):
    x = np.linspace(0.0, 1.0, 11)
    for k in range(1, 5):
        ratio = exact_derivative(spec10, x, k + 1) / exact_derivative(spec10, x, k)
        assert np.allclose(ratio, spec10.lam, rtol=1e-12)


def test_solution_monotone_and_bounded(spec10):
    x = np.linspace(0.0, 1.0, 101)
    u = exact_solution(spec10, x)
    assert np.all(np.diff(u) > 0)
    assert np.all((u > 0) & (u <= 1.0))


def test_epsilon_accessor(spec10):
    assert spec10.epsilon == 0.01
    assert ProblemSpec(1e-200, 1.0).epsilon == math.inf  # lam**2 underflows to 0


SPECIALS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324]


def _agrees(got, want, zero_sign: bool):
    """Same value, NaN for NaN; the sign of a zero must match if zero_sign."""
    if math.isnan(want):
        return math.isnan(got)
    if got != want:
        return False
    return not zero_sign or math.copysign(1.0, got) == math.copysign(1.0, want)


@pytest.mark.parametrize("size", [1, 2, 20, 5120])
def test_largest_smallest_match_ndarray_methods(size):
    """NaN propagates and only a zero's sign may differ, and only for
    arrays that hold both zeros, which abs() never gives."""
    base = np.random.default_rng(size).standard_normal(size)
    arrays = [base, np.zeros(size), -np.zeros(size), np.where(np.arange(size) % 2, 0.0, -0.0)]
    for special in SPECIALS:
        for pos in {0, size // 2, size - 1}:
            a = base.copy()
            a[pos] = special
            arrays.append(a)
    for a in arrays:
        mixed_zeros = bool(np.signbit(a[a == 0.0]).any() and not np.signbit(a[a == 0.0]).all())
        for helper, method in ((largest, "max"), (smallest, "min")):
            assert type(helper(a)) is float
            assert _agrees(helper(a), getattr(a, method)(), zero_sign=not mixed_zeros)
            assert _agrees(helper(abs(a)), getattr(abs(a), method)(), zero_sign=True)
        for mask in (a > 0.0, a >= 0.0, a == a, a != a):
            assert largest(mask) is bool(mask.any())
            assert smallest(mask) is bool(mask.all())


def test_largest_smallest_zero_d_and_mixed_zeros():
    for value in (*SPECIALS, 2.5):
        a = np.array(value)
        assert _agrees(largest(a), a.max(), zero_sign=True)
        assert _agrees(smallest(a), a.min(), zero_sign=True)
    for mask in (np.array(True), np.array(False), np.bool_(True), np.bool_(False)):
        assert largest(mask) is bool(mask.any())
        assert smallest(mask) is bool(mask.all())
    a = np.array([-0.0, 0.0])
    assert math.copysign(1.0, a.max()) == 1.0 and math.copysign(1.0, largest(a)) == -1.0


def test_empty_input_keeps_its_behaviour(spec10):
    out = exact_solution(spec10, np.array([]))
    assert isinstance(out, np.ndarray) and out.shape == (0,)
    with pytest.raises(ValueError):
        largest(np.array([]))


@pytest.mark.parametrize("x", [-0.1, -1e-300, 1.0 + 1e-9, 1.1, math.nan])
def test_domain_errors(spec10, x):
    message = r"^x must lie in \[0, 1\.0\]$"
    with pytest.raises(ValueError, match=message):
        exact_solution(spec10, x)
    with pytest.raises(ValueError, match=message):
        exact_derivative(spec10, x, 1)
    with pytest.raises(ValueError, match=message):
        ExactPowerMonitor(spec10, 0.25).interval_values(np.array([0.0, 2.0 * x, 0.0]))


@pytest.mark.parametrize("order", [0, 6, -1])
def test_derivative_order_bounds(spec10, order):
    with pytest.raises(ValueError):
        exact_derivative(spec10, 0.5, order)


@pytest.mark.parametrize("value", [1.5, 2.0, np.float64(3.0)])
def test_counts_must_be_integers(spec10, value):
    """A count that is no integer is rejected by name, whatever the value;
    a fractional one used to be taken, with silent or endless results."""
    calls = [
        ("n_cells", lambda v: uniform_grid(spec10, 10 * v)),
        ("n_cells", lambda v: equidistribute(ExactPowerMonitor(spec10, 0.25), spec10, 10 * v,
                                             initial=uniform_grid(spec10, int(10 * v)))),
        ("max_iter", lambda v: equidistribute(ExactPowerMonitor(spec10, 0.25), spec10, 20,
                                              tol=1e-300, max_iter=v)),
        ("max_outer", lambda v: AdaptiveConfig(2.0, 2.0, max_outer=v)),
        ("inner_max_iter", lambda v: AdaptiveConfig(2.0, 2.0, inner_max_iter=v)),
        ("order", lambda v: exact_derivative(spec10, 0.5, v)),
    ]
    for name, call in calls:
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call(value)
    # numpy integers are integers
    assert exact_derivative(spec10, 1.0, np.int64(2)) == 100.0
    assert uniform_grid(spec10, np.int32(4)).n_cells == 4


@pytest.mark.parametrize("lam,ell", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
                                     (math.inf, 1.0), (1.0, math.inf),
                                     (1e200, 1.0), (2.0**512, 1.0)])
def test_invalid_spec(lam, ell):
    with pytest.raises(ValueError):
        ProblemSpec(lam=lam, ell=ell)


def test_lam_times_ell_must_be_finite():
    """Each factor is in range, but the product overflows; left_bc would
    have become exp(-inf) = 0 without a word."""
    for lam, ell in ((1e15, 1e300), (2.0**511, 1e200), (np.float64(1e15), np.float64(1e300))):
        with pytest.raises(ValueError, match=r"lam\*ell must be finite"):
            ProblemSpec(lam=lam, ell=ell)
    # a product that underflows is fine: exp(-0) = 1
    assert ProblemSpec(lam=1e-310, ell=1e-300).left_bc == 1.0


def test_stored_bcs_match_formulas():
    spec = ProblemSpec(lam=3.0, ell=2.0)
    assert spec.left_bc == math.exp(-6.0)
    assert spec.right_bc == 1.0
