import copy
import pickle

import numpy as np
import pytest

from equifd import (
    ConstantMonitor,
    DiscreteGradientMonitor,
    EquidistributionError,
    ExactPowerMonitor,
    Grid,
    GridMapping,
    MonitorFunction,
    MonotonicityError,
    ProblemSpec,
    ScaledMonitor,
    analytic_mapped_grid,
    equidist_defect,
    equidistribute,
    max_error,
    solve_bvp,
    uniform_grid,
)
from equifd import equidist
from equifd.equidist import DAMPING_FLOOR, _sweep
from equifd.problem import ParameterError, smallest
from conftest import random_grid


class FixedMonitor(MonitorFunction):
    """The given weights, whatever the nodes."""

    def __init__(self, weights):
        self.weights = weights

    def interval_values(self, nodes):
        return self.weights


def test_constant_monitor_yields_uniform(spec10):
    rng = np.random.default_rng(3)
    initial = random_grid(rng, 20)
    # 1e-310 is subnormal: its reciprocal overflows, so the sweep must not form 1/w
    for monitor in (ConstantMonitor(), ScaledMonitor(ConstantMonitor(), 1e-310)):
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
        got = _sweep(nodes, smallest(w) / w)
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


@pytest.mark.parametrize("lam,beta,gap,error,closed_error", [
    (20.0, 0.5, 0.11383, 1.7456e-4, 1.4928e-5),
    (100.0, 0.25, 0.21119, 0.71623, 5.3900e-10),
])
def test_midpoint_sampling_converges_to_a_spurious_grid(lam, beta, gap, error, closed_error):
    """A known defect, pinned as it is: once beta*lam is large for N, the
    wide cells away from the layer see the monitor at their midpoints
    only, and the sweeps converge silently (defect ~1e-12 to 1e-9) to a
    grid far from the closed-form one, with a much larger error.  At
    lam = 10, beta = 1/2 the gap at N = 200 is the O(h^2) 1.1e-3.  A fix
    of the sampling makes this test fail and replaces it."""
    spec = ProblemSpec(lam, 1.0)
    monitor = ExactPowerMonitor(spec, beta)
    res = equidistribute(monitor, spec, 200)
    closed = analytic_mapped_grid(GridMapping(spec, beta), 200)
    assert equidist_defect(res.grid, monitor) < 1e-9
    assert np.max(np.abs(res.grid.nodes - closed.nodes)) == pytest.approx(gap, rel=1e-4)
    assert max_error(solve_bvp(res.grid, spec)) == pytest.approx(error, rel=1e-4)
    assert max_error(solve_bvp(closed, spec)) == pytest.approx(closed_error, rel=1e-4)


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
    res2 = equidistribute(ScaledMonitor(base, 37.0), spec10, 20, tol=tol)
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
    monitor = DiscreteGradientMonitor(10.0, 1.0, sol.grid.nodes, sol.values)

    # oracle: the sweep loop without cycle detection, run to the cap
    x = uniform_grid(spec10, 20).nodes.copy()
    relax, prev_update, best = 1.0, None, (np.inf, x)
    for _ in range(10000):
        w = monitor.interval_weights(x)
        target = _sweep(x, smallest(w) / w)
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
    # Brent's schedule saves the iterates of sweeps 1, 2, 4, ..., 256, so this
    # 13-cycle is first seen repeating the one of sweep 256
    assert str(err.value).startswith("the iterate of sweep 269 repeats that of sweep 256 at "
                                     "the damping floor (period 13; ")


def test_bad_monitor_rejected(spec10):
    weights = [-np.ones(10)]
    for index, value in ((0, np.nan), (4, np.nan), (3, 0.0), (-1, np.inf)):
        weights.append(np.ones(10))
        weights[-1][index] = value
    for w in weights:
        with pytest.raises(ValueError, match="finite and strictly positive"):
            equidistribute(FixedMonitor(w), spec10, 10)


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


def test_weight_ratio_past_double_range_collapses_nodes(spec10):
    """Finite positive weights 1e-300 and 1e300: w.min() / w underflows to 0,
    nodes coincide and the first sweep ends in MonotonicityError."""

    w = np.full(10, 1e300)
    w[0] = 1e-300
    with pytest.raises(MonotonicityError, match="after sweep 1"):
        equidistribute(FixedMonitor(w), spec10, 10)


# The sweep and its three checks as written before the ndarray-method forms,
# frozen as the reference for equidist.py and Grid.


def _reference_sweep(nodes, w):
    cum = np.cumsum(w.min() / w)
    new = nodes[0] + (nodes[-1] - nodes[0]) / cum[-1] * np.concatenate([[0.0], cum])
    new[-1] = nodes[-1]
    return new


def _reference_bad_weights(w):
    return not np.all(np.isfinite(w)) or np.any(w <= 0.0)


def _reference_unordered(x):
    return np.any(np.diff(x) <= 0.0)


def _reference_grid_rejects(nodes, ell):
    # the endpoint checks are unchanged; the strict-increase check is the reference
    return nodes[0] != 0.0 or nodes[-1] != ell or not np.all(np.diff(nodes) > 0.0)


def _raised(fn, *args):
    """Type of the exception fn(*args) raises, None if it returns."""
    try:
        fn(*args)
    except Exception as err:
        return type(err)
    return None


def test_sweep_matches_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    for n in (2, 20, 640, 5120):
        w = 10.0 ** rng.uniform(-6.0, 6.0, n)
        nodes = random_grid(rng, n, ell=2.5).nodes
        assert np.array_equal(_sweep(nodes, smallest(w) / w), _reference_sweep(nodes, w))


@pytest.mark.parametrize("special", [0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan])
def test_checks_reject_exactly_as_reference(spec10, monkeypatch, special):
    """Weight, ordering and Grid checks reject exactly when the reference does,
    with one special value at the first, second, middle, last but one or last
    position.  The ordering checks differ only where two neighbours are the
    same infinity (now rejected); sweep iterates are finite, so that never arises."""

    n = 8
    x0 = uniform_grid(spec10, n).nodes
    for pos in (0, 1, n // 2, -2, -1):
        w = np.linspace(1.0, 2.0, n)
        w[pos] = special
        expected = ValueError if _reference_bad_weights(w) else None
        assert _raised(FixedMonitor(w).interval_weights, x0) is expected

        nodes = x0.copy()
        nodes[pos] = special
        expected = ValueError if _reference_grid_rejects(nodes, 1.0) else None
        assert _raised(Grid, nodes, 1.0) is expected

        # one undamped sweep to a chosen target, then the ordering check
        target = x0**2
        target[pos] = special
        monkeypatch.setattr(equidist, "_sweep", lambda nodes, w: target)
        x1 = x0 + 1.0 * (target - x0)
        expected = MonotonicityError if _reference_unordered(x1) else EquidistributionError
        assert _raised(equidistribute, ConstantMonitor(), spec10, n, None, 1e-12, 1) is expected


def test_gradient_weights_are_checked_when_built_not_per_sweep(spec10, monkeypatch):
    """The sweeps take a DiscreteGradientMonitor's weights as they are (it
    checked its table when built).  An ExactPowerMonitor decides when built
    whether a grid on [0, ell] can take its weights out of the double range:
    where none can, its sweeps check nothing, and where one can, every
    sweep checks them as every sweep did before, so the run raises at the
    same sweep (here sweep 2 of N = 10)."""
    calls = []
    check = MonitorFunction.interval_weights
    monkeypatch.setattr(MonitorFunction, "interval_weights",
                        lambda monitor, nodes: calls.append(monitor) or check(monitor, nodes))
    sol = solve_bvp(uniform_grid(spec10, 20), spec10)
    res = equidistribute(DiscreteGradientMonitor(2.0, 0.25, sol.grid.nodes, sol.values), spec10, 20)
    assert res.iterations > 1 and calls == []
    for spec, beta in ((spec10, 0.25), (spec10, 4.0), (ProblemSpec(3e38, 5e-39), 8.0)):
        monitor = ExactPowerMonitor(spec, beta)
        res = equidistribute(monitor, spec, 10, tol=1e-12 * spec.ell)
        assert monitor._in_range and res.iterations > 1 and calls == []
    # beta*ln(lam) = 711.1 passes ln(max) = 709.8; the first sweep's weights stay finite
    spec = ProblemSpec(4e38, 1e-38)
    monitor = ExactPowerMonitor(spec, 8.0)
    assert not monitor._in_range
    with pytest.raises(ParameterError, match="leaves the double range") as err:
        equidistribute(monitor, spec, 10, tol=1e-12 * spec.ell)
    assert err.value.params == {"lam": 4e38, "ell": 1e-38, "beta": 8.0}
    assert calls == [monitor] * 2


def test_span_past_half_the_double_range():
    """Past ell = max/2 the midpoints halve each node first, so they stay
    finite (0.5*(a + b) overflowed, with a RuntimeWarning, and failed the
    domain check): ell = 1.5e308 equidistributes as ell = 1.5 does at the
    same lam*ell."""
    wide, unit = ProblemSpec(1e-308, 1.5e308), ProblemSpec(1.0, 1.5)
    got = equidistribute(ExactPowerMonitor(wide, 0.25), wide, 20)
    ref = equidistribute(ExactPowerMonitor(unit, 0.25), unit, 20)
    assert np.max(np.abs(got.grid.nodes / 1e308 - ref.grid.nodes)) < 1e-12


def test_a_tie_on_the_best_update_keeps_the_earlier_iterate(spec10):
    """Of two distinct iterates with the same update, a stall returns the
    earlier one: the best iterate is replaced only by a strictly smaller
    update.  Here the middle node goes 0.5 -> 0.75 -> 0.5, two steps of
    exactly 0.25, and the sweep cap stops the loop after the second."""

    class Seesaw(MonitorFunction):
        def interval_values(self, nodes):
            return np.array([1.0, 3.0]) if nodes[1] == 0.5 else np.ones(2)

    with pytest.raises(EquidistributionError) as err:
        equidistribute(Seesaw(), spec10, 2, max_iter=2)
    assert err.value.grid.nodes.tolist() == [0.0, 0.5, 1.0]
    assert (err.value.iterations, err.value.final_update) == (2, 0.25)


def test_the_collapse_of_the_first_sweep_stays_a_monotonicity_error():
    """equidistribute raises MonotonicityError for any monitor, also where
    the CLI's equidistributed mode blames lam, ell, beta and N for it: at
    lam = 160, beta = 1/4 the first sweep from the uniform grid collides
    the nodes next to ell."""
    spec = ProblemSpec(160.0, 1.0)
    for n_cells in (20, 200):
        with pytest.raises(MonotonicityError, match="^neighbouring nodes collided after sweep 1$"):
            equidistribute(ExactPowerMonitor(spec, 0.25), spec, n_cells)


ROUND_TRIPS = [lambda e: pickle.loads(pickle.dumps(e)), copy.copy, copy.deepcopy]


@pytest.mark.parametrize("round_trip", ROUND_TRIPS, ids=["pickle", "copy", "deepcopy"])
def test_errors_survive_copy_and_pickle(spec10, round_trip):
    """An EquidistributionError is rebuilt with its message, best grid,
    update and sweeps, and a MonotonicityError with the row it names."""
    grid = uniform_grid(spec10, 4)
    stalled = EquidistributionError("no convergence after 3 sweeps", grid=grid,
                                    final_update=0.5, iterations=3)
    got = round_trip(stalled)
    assert type(got) is EquidistributionError and str(got) == str(stalled)
    assert np.array_equal(got.grid.nodes, grid.nodes) and got.grid.ell == grid.ell
    assert (got.final_update, got.iterations) == (0.5, 3)

    collided = equidist._collision(4, 2)
    got = round_trip(collided)
    assert type(got) is MonotonicityError and str(got) == str(collided) and got.row == 2
