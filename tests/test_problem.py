import math

import mpmath
import numpy as np
import pytest

from equifd import ExactPowerMonitor, ProblemSpec, exact_derivative, exact_solution

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


@pytest.mark.parametrize("x", [-0.1, 1.1, math.nan])
def test_domain_errors(spec10, x):
    with pytest.raises(ValueError):
        exact_solution(spec10, x)
    with pytest.raises(ValueError):
        exact_derivative(spec10, x, 1)
    with pytest.raises(ValueError):
        ExactPowerMonitor(spec10, 0.25).interval_values(np.array([0.0, x, 1.0]))


@pytest.mark.parametrize("order", [0, 6, -1])
def test_derivative_order_bounds(spec10, order):
    with pytest.raises(ValueError):
        exact_derivative(spec10, 0.5, order)


@pytest.mark.parametrize("lam,ell", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
                                     (math.inf, 1.0), (1.0, math.inf)])
def test_invalid_spec(lam, ell):
    with pytest.raises(ValueError):
        ProblemSpec(lam=lam, ell=ell)


def test_stored_bcs_match_formulas():
    spec = ProblemSpec(lam=3.0, ell=2.0)
    assert spec.left_bc == math.exp(-6.0)
    assert spec.right_bc == 1.0
