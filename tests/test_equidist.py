import numpy as np
import pytest

from equifd import (
    ConstantMonitor,
    DiscreteGradientMonitor,
    EquidistributionError,
    ExactPowerMonitor,
    GridMapping,
    MonitorFunction,
    analytic_mapped_grid,
    equidist_defect,
    equidistribute,
    solve_bvp,
    uniform_grid,
)
from equifd.equidist import DAMPING_FLOOR, _interval_weights, _sweep
from conftest import random_grid


def test_constant_monitor_yields_uniform(spec10):
    rng = np.random.default_rng(3)
    initial = random_grid(rng, 20)
    # 1e-310 is subnormal: its reciprocal overflows, so the sweep must not form 1/w
    for value in (1.0, 1e-310):
        monitor = ConstantMonitor(value)
        res = equidistribute(monitor, spec10, 20, initial=initial)
        assert np.allclose(res.grid.nodes, uniform_grid(spec10, 20).nodes, atol=1e-13)
        assert equidist_defect(res.grid, monitor) <= 1e-12


def test_sweep_solves_dense_linearized_system():
    """One sweep solves the frozen-weight tridiagonal system to rounding.

    Checked by the componentwise backward error against the dense system:
    with weights over twelve decades that system is too ill-conditioned
    for np.linalg.solve to serve as a forward reference at N=1000.
    """
    rng = np.random.default_rng(7)
    for n in (2, 3, 20, 1000):
        w = 10.0 ** rng.uniform(-6.0, 6.0, n)
        nodes = random_grid(rng, n, ell=2.5).nodes
        dense = np.diag(w[:-1] + w[1:]) - np.diag(w[1:-1], 1) - np.diag(w[1:-1], -1)
        rhs = np.zeros(n - 1)
        rhs[0] += w[0] * nodes[0]
        rhs[-1] += w[-1] * nodes[-1]
        got = _sweep(nodes, w)
        assert got[0] == nodes[0] and got[-1] == nodes[-1]
        x = got[1:-1]
        scale = np.abs(dense) @ np.abs(x) + np.abs(rhs)
        assert np.all(np.abs(dense @ x - rhs) <= 1e-12 * scale)


def test_large_n_converges_past_roundoff_floor(spec10):
    """At N=1e4 the sweeps reach tol=1e-12 about as fast as at N=640."""
    monitor = ExactPowerMonitor(spec10, 0.5)
    small = equidistribute(monitor, spec10, 640, tol=1e-12, max_iter=300)
    large = equidistribute(monitor, spec10, 10_000, tol=1e-12, max_iter=300)
    assert large.iterations <= small.iterations + 2


def test_power_beta_zero_single_iteration(spec10):
    res = equidistribute(ExactPowerMonitor(spec10, 0.0), spec10, 12)
    assert res.iterations == 1
    assert np.allclose(res.grid.nodes, uniform_grid(spec10, 12).nodes, atol=1e-13)


def test_power_quarter_matches_analytic_grid(spec10):
    """The discrete grid converges to the closed-form one at O(h^2)."""
    analytic20 = analytic_mapped_grid(GridMapping(spec10, 0.25), 20)
    res20 = equidistribute(ExactPowerMonitor(spec10, 0.25), spec10, 20, tol=1e-12)
    gap20 = np.max(np.abs(res20.grid.nodes - analytic20.nodes))
    assert res20.final_update <= 1e-8
    assert gap20 <= 2e-3  # measured midpoint-rule discretization gap at N=20

    analytic40 = analytic_mapped_grid(GridMapping(spec10, 0.25), 40)
    res40 = equidistribute(ExactPowerMonitor(spec10, 0.25), spec10, 40, tol=1e-12)
    gap40 = np.max(np.abs(res40.grid.nodes - analytic40.nodes))
    assert 0.15 <= gap40 / gap20 <= 0.4  # second-order decay under halving


def test_converged_defect_small(spec10):
    monitor = ExactPowerMonitor(spec10, 0.25)
    res = equidistribute(monitor, spec10, 20, tol=1e-12)
    assert equidist_defect(res.grid, monitor) <= 10 * 1e-12


def test_fixed_point_consistency(spec10):
    """One more call from the converged grid must not move any node."""
    res = equidistribute(ExactPowerMonitor(spec10, 0.5), spec10, 25, tol=1e-12)
    again = equidistribute(ExactPowerMonitor(spec10, 0.5), spec10, 25,
                           initial=res.grid, tol=1e-12)
    assert again.iterations == 1
    assert np.max(np.abs(again.grid.nodes - res.grid.nodes)) <= 1e-12


def test_scaling_invariance(spec10):
    tol = 1e-12
    base = ExactPowerMonitor(spec10, 0.25)
    res1 = equidistribute(base, spec10, 20, tol=tol)
    res2 = equidistribute(base.scaled(37.0), spec10, 20, tol=tol)
    assert np.max(np.abs(res1.grid.nodes - res2.grid.nodes)) <= 10 * tol


def test_uniform_defect_for_constant_monitor(spec10):
    g = uniform_grid(spec10, 16)
    assert equidist_defect(g, ConstantMonitor()) <= 1e-14


def test_uniform_defect_for_power_monitor_is_large(spec10):
    g = uniform_grid(spec10, 20)
    assert equidist_defect(g, ExactPowerMonitor(spec10, 0.25)) > 0.1


def test_monotone_iterates_with_rough_monitor(spec10):
    """Piecewise-constant weights keep every iterate strictly increasing."""

    class RoughMonitor(MonitorFunction):
        def interval_values(self, nodes):
            mid = 0.5 * (nodes[:-1] + nodes[1:])
            return np.where(mid > 0.7, 100.0, 1.0)

    res = equidistribute(RoughMonitor(), spec10, 30, tol=1e-12)
    assert np.all(np.diff(res.grid.nodes) > 0)


def test_nonconvergence_raises_with_best_iterate(spec10):
    with pytest.raises(EquidistributionError) as err:
        equidistribute(ExactPowerMonitor(spec10, 0.25), spec10, 20, max_iter=1)
    assert err.value.final_update > 0
    assert err.value.grid.n_cells == 20
    assert err.value.iterations == 1
    assert "no convergence after 1 sweeps" in str(err.value)


def test_cycle_at_damping_floor_stops_with_capped_result(spec10):
    """A rough monitor cycles exactly at the damping floor; the early stop
    returns bit for bit the best iterate of a run to the full sweep cap."""
    sol = solve_bvp(uniform_grid(spec10, 20), spec10)
    monitor = DiscreteGradientMonitor.from_solution(10.0, 1.0, sol)

    # oracle: the sweep loop without cycle detection, run to the cap
    x = uniform_grid(spec10, 20).nodes.copy()
    relax, prev_update, best = 1.0, None, (np.inf, x)
    for _ in range(10000):
        target = _sweep(x, _interval_weights(monitor, x))
        update = float(np.max(np.abs(target - x)))
        if update < best[0]:
            best = (update, x)
        assert update >= 1e-12
        if prev_update is not None and update > prev_update:
            relax = max(0.5 * relax, DAMPING_FLOOR)
        prev_update = update
        x = x + relax * (target - x)

    with pytest.raises(EquidistributionError) as err:
        equidistribute(monitor, spec10, 20, tol=1e-12, max_iter=10000)
    assert err.value.iterations <= 300
    assert np.array_equal(err.value.grid.nodes, best[1])
    assert err.value.final_update == best[0]
    assert "period" in str(err.value)


def test_bad_monitor_rejected(spec10):
    class NegativeMonitor(MonitorFunction):
        def interval_values(self, nodes):
            return -np.ones(len(nodes) - 1)

    class NanMonitor(MonitorFunction):
        def interval_values(self, nodes):
            v = np.ones(len(nodes) - 1)
            v[0] = np.nan
            return v

    for monitor in (NegativeMonitor(), NanMonitor()):
        with pytest.raises(ValueError):
            equidistribute(monitor, spec10, 10)


def test_initial_grid_validation(spec10):
    wrong_n = uniform_grid(spec10, 8)
    with pytest.raises(ValueError):
        equidistribute(ConstantMonitor(), spec10, 10, initial=wrong_n)
    # an infinite tol would end the first sweep as converged
    for tol in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            equidistribute(ConstantMonitor(), spec10, 10, tol=tol)
    with pytest.raises(ValueError):
        equidistribute(ConstantMonitor(), spec10, 10, max_iter=0)
