import numpy as np
import pytest

from equifd import (
    ConstantMonitor,
    DiscreteGradientMonitor,
    ExactPowerMonitor,
    exact_derivative,
    solve_bvp,
    uniform_grid,
)


def test_constant_values(spec10):
    g = uniform_grid(spec10, 5)
    assert np.array_equal(ConstantMonitor().interval_values(g.nodes), np.ones(5))


def test_constant_must_be_positive():
    with pytest.raises(ValueError):
        ConstantMonitor(0.0)


def test_exact_power_midpoint_sampling(spec10):
    g = uniform_grid(spec10, 4)
    vals = ExactPowerMonitor(spec10, 0.25).interval_values(g.nodes)
    expected = exact_derivative(spec10, g.midpoints, 1) ** 0.25
    assert np.array_equal(vals, expected)


def test_exact_power_beta_zero_is_constant(spec10):
    g = uniform_grid(spec10, 6)
    assert np.allclose(ExactPowerMonitor(spec10, 0.0).interval_values(g.nodes), 1.0)


def test_discrete_gradient_on_own_grid(spec10):
    sol = solve_bvp(uniform_grid(spec10, 10), spec10)
    mon = DiscreteGradientMonitor.from_solution(2.0, 0.5, sol)
    slopes = np.abs(np.diff(sol.values)) / np.diff(sol.grid.nodes)
    assert np.array_equal(mon.interval_values(sol.grid.nodes), 1.0 + 2.0 * slopes**0.5)


def test_discrete_gradient_lookup_off_grid():
    nodes = np.array([0.0, 0.5, 1.0])
    values = np.array([0.0, 1.0, 1.5])  # slopes 2.0 and 1.0
    mon = DiscreteGradientMonitor(1.0, 1.0, nodes, values)
    # query midpoints 0.1 and 0.8 fall in the first and second solution interval
    assert np.array_equal(mon.interval_values(np.array([0.0, 0.2])), [3.0])
    assert np.array_equal(mon.interval_values(np.array([0.6, 1.0])), [2.0])


def test_discrete_gradient_lookup_matches_clipped_search():
    """The interior-breakpoint search picks the interval the clipped
    full-node search picked, for queries inside and outside [0, ell]."""
    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 40):
        nodes = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2.0, n - 1)), [2.0]])
        mon = DiscreteGradientMonitor(1.0, 1.0, nodes, rng.standard_normal(n + 1))
        query = np.sort(np.concatenate([rng.uniform(-1.0, 3.0, 200), nodes]))
        mid = 0.5 * (query[:-1] + query[1:])
        k = np.clip(np.searchsorted(nodes, mid, side="right") - 1, 0, n - 1)
        assert np.array_equal(mon.interval_values(query), mon._weights[k])


def test_discrete_gradient_positive(spec10):
    sol = solve_bvp(uniform_grid(spec10, 20), spec10)
    mon = DiscreteGradientMonitor.from_solution(1e4, 2.0, sol)
    vals = mon.interval_values(sol.grid.nodes)
    assert np.all(vals >= 1.0)
    assert np.all(np.isfinite(vals))


def test_scaled_monitor(spec10):
    g = uniform_grid(spec10, 5)
    base = ExactPowerMonitor(spec10, 0.25)
    assert np.array_equal(base.scaled(3.5).interval_values(g.nodes),
                          3.5 * base.interval_values(g.nodes))
    with pytest.raises(ValueError):
        base.scaled(0.0)


def test_parameter_validation(spec10):
    with pytest.raises(ValueError):
        ExactPowerMonitor(spec10, -1.0)
    with pytest.raises(ValueError):
        DiscreteGradientMonitor(-1.0, 1.0, [0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        DiscreteGradientMonitor(1.0, -1.0, [0.0, 1.0], [0.0, 1.0])
