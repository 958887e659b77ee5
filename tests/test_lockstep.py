"""The lockstep loop against the one-config loop it replaced, bit for bit.

adapt.adaptive_solve_many runs many configs' solve-remesh loops on one
stack of grids, and equidist.sweep_rows runs their equidistributions in
one stacked sweep loop.  The reference below is the loop that ran one
config at a time before, with its sweep loop, sweep and monitor, kept
unchanged.  Every batch here must give each config exactly the reference
result: nodes, values, every history row, stalls and flags.
"""

import random

import numpy as np
import pytest

from equifd import (AdaptiveConfig, AdaptiveResult, ConstantMonitor, EquidistributionError,
                    ExactPowerMonitor, Grid, MonitorFunction, ProblemSpec, adaptive_solve,
                    adaptive_solve_many, equidistribute, max_error, solve_bvp, uniform_grid)
from equifd.adapt import _lookup
from equifd.equidist import DAMPING_FLOOR, EquidistResult
from equifd.experiments import TABLE2_ALPHAS, TABLE2_BETAS
from equifd.problem import largest, smallest
from equifd.solver import FUSED_CUTOFF

# --- the reference: one config at a time ------------------------------------


class _ReferenceGradientMonitor(MonitorFunction):
    def __init__(self, alpha, beta, nodes, values):
        self.alpha = float(alpha)
        self.beta = float(beta)
        slopes = abs(values[1:] - values[:-1]) / (nodes[1:] - nodes[:-1])
        self._weights = 1.0 + self.alpha * slopes**self.beta
        self._breaks = nodes[1:-1]

    def interval_values(self, nodes):
        return _reference_lookup(self._weights, self._breaks, nodes)


def _reference_lookup(weights, breaks, nodes):
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    return weights[breaks.searchsorted(mid, "right")]


def _reference_interval_weights(monitor, nodes):
    w = np.asarray(monitor.interval_values(nodes), dtype=float)
    if w.shape != (len(nodes) - 1,):
        raise ValueError(f"monitor returned {w.shape}, expected ({len(nodes) - 1},)")
    if not (smallest(w) > 0.0 and largest(w) < np.inf):
        raise ValueError("monitor values must be finite and strictly positive")
    return w


def _reference_sweep(nodes, w):
    new = np.empty(len(nodes))
    new[0] = 0.0
    (smallest(w) / w).cumsum(out=new[1:])
    new *= (nodes[-1] - nodes[0]) / new[-1]
    new += nodes[0]
    new[-1] = nodes[-1]
    return new


def reference_equidistribute(monitor, spec, n_cells, initial=None, tol=1e-12, max_iter=10000):
    if initial is None:
        initial = uniform_grid(spec, n_cells)
    x = initial.nodes
    relax = 1.0
    prev_update = None
    best = (np.inf, x)
    saved = None
    for it in range(1, max_iter + 1):
        w = _reference_interval_weights(monitor, x)
        step = _reference_sweep(x, w) - x
        update = largest(abs(step))
        if update < best[0]:
            best = (update, x)
        if update < tol:
            return EquidistResult(Grid(x, spec.ell), it, update)
        if relax == DAMPING_FLOOR:
            if saved is not None and update == saved[1] and np.array_equal(x, saved[2]):
                message = (f"the iterate of sweep {it - 1} repeats that of sweep {saved[0]} at the "
                           f"damping floor (period {it - 1 - saved[0]}; best update {best[0]:.3e})")
                break
            if (it - 1) & (it - 2) == 0:
                saved = (it - 1, update, x)
        if prev_update is not None and update > prev_update:
            relax = max(0.5 * relax, DAMPING_FLOOR)
        prev_update = update
        x = x + (step if relax == 1.0 else relax * step)
        if largest(x[1:] <= x[:-1]):
            raise RuntimeError(f"node ordering lost after sweep {it}")
    else:
        message = f"no convergence after {it} sweeps (best update {best[0]:.3e})"
    raise EquidistributionError(message, grid=Grid(best[1], spec.ell),
                                final_update=best[0], iterations=it)


def reference_adaptive_solve(spec, n_cells, config):
    grid = uniform_grid(spec, n_cells)
    prev_values = None
    prev_change = None
    relax = 1.0
    history = []
    stalls = 0
    converged = False
    for n in range(1, config.max_outer + 1):
        solution = solve_bvp(grid, spec)
        error = max_error(solution)
        change = np.nan
        if prev_values is not None:
            change = largest(abs(solution.values - prev_values))
            if change < config.eps:
                history.append((n, error, change, 0.0, 0, 0, relax))
                converged = True
                break
            if prev_change is not None and change > prev_change:
                relax = max(0.5 * relax, DAMPING_FLOOR)
            prev_change = change

        monitor = _ReferenceGradientMonitor(config.alpha, config.beta, solution.grid.nodes,
                                            solution.values)
        try:
            inner = reference_equidistribute(monitor, spec, n_cells, initial=grid,
                                             tol=config.inner_tol, max_iter=config.inner_max_iter)
            target, sweeps, stalled = inner.grid, inner.iterations, 0
        except EquidistributionError as err:
            target, sweeps, stalled = err.grid, err.iterations, 1
        stalls += stalled
        new_nodes = grid.nodes + relax * (target.nodes - grid.nodes)
        grid_change = largest(abs(new_nodes - grid.nodes))
        history.append((n, error, change, grid_change, sweeps, stalled, relax))
        if grid_change < config.inner_tol:
            converged = True
            break
        prev_values = solution.values
        grid = Grid(new_nodes, spec.ell)
    return AdaptiveResult(solution, n, error, converged, history, stalls)


# --- comparison -------------------------------------------------------------


def _bits(value):
    """A float by its bit pattern (so NaN equals NaN and -0.0 is not 0.0),
    anything else by its type and value."""
    if isinstance(value, float):
        return value.hex()
    return type(value).__name__, value


def assert_same_result(got: AdaptiveResult, ref: AdaptiveResult):
    assert got.solution.grid.nodes.tobytes() == ref.solution.grid.nodes.tobytes()
    assert got.solution.values.tobytes() == ref.solution.values.tobytes()
    assert [[_bits(v) for v in row] for row in got.history] == \
        [[_bits(v) for v in row] for row in ref.history]
    assert _bits(got.error_norm) == _bits(ref.error_norm)
    assert (got.outer_iterations, got.converged, got.inner_stalls) == \
        (ref.outer_iterations, ref.converged, ref.inner_stalls)


def assert_batch_matches(spec, n_cells, configs, reference=None):
    results = adaptive_solve_many(spec, n_cells, configs)
    assert len(results) == len(configs)
    for cfg, got in zip(configs, results):
        ref = reference_adaptive_solve(spec, n_cells, cfg) if reference is None else reference[cfg]
        assert_same_result(got, ref)
    return results


@pytest.fixture(scope="module")
def table2_reference(spec10):
    configs = [AdaptiveConfig(alpha, beta, max_outer=5000)
               for alpha in TABLE2_ALPHAS for beta in TABLE2_BETAS]
    return {cfg: reference_adaptive_solve(spec10, 20, cfg) for cfg in configs}


# --- the cases --------------------------------------------------------------


def test_lookup_is_exact_at_one_ulp():
    """Each row looks its midpoints up in its own breakpoints, exactly as
    the one-row monitor does, also where a breakpoint lies one ulp from a
    midpoint or on it.  (Shifting each row by an offset to search all rows
    at once would round such pairs together.)"""
    rng = np.random.default_rng(5)
    x = np.sort(rng.random((4, 21)), axis=1)
    x[:, 0], x[:, -1] = 0.0, 1.0
    mid = 0.5 * (x[:, :-1] + x[:, 1:])
    breaks = np.sort(rng.random((4, 19)), axis=1)
    for row in range(4):
        for j, shift in ((3, -np.inf), (9, np.inf), (15, None)):
            breaks[row, j] = mid[row, j] if shift is None else np.nextafter(mid[row, j], shift)
        breaks[row].sort()
    table = rng.random((4, 20)) + 0.5
    expected = [_reference_lookup(w, b, xr) for w, b, xr in zip(table, breaks, x)]
    assert np.array_equal(_lookup(x, breaks, table), expected)
    for row in range(4):
        assert np.array_equal(_lookup(x[row:row + 1], breaks[row:row + 1], table[row:row + 1]),
                              [expected[row]])




def test_table2_cells_in_shuffled_order(spec10, table2_reference):
    configs = list(table2_reference)
    random.Random(20151).shuffle(configs)
    assert_batch_matches(spec10, 20, configs, table2_reference)


def test_stalling_cells_alone(spec10, table2_reference):
    """beta=1 at alpha >= 10 is where the inner sweeps stall at their
    damping floor; the batch holds just those cells."""
    configs = [cfg for cfg in table2_reference if cfg.beta == 1.0 and cfg.alpha >= 10.0]
    results = assert_batch_matches(spec10, 20, configs, table2_reference)
    assert sum(res.inner_stalls for res in results) >= 1


def test_large_lambda_capped_by_max_outer():
    spec = ProblemSpec(1e3, 1.0)
    configs = [AdaptiveConfig(1e4, 0.25, max_outer=60), AdaptiveConfig(1e4, 0.25, max_outer=25)]
    results = assert_batch_matches(spec, 40, configs)
    assert [(res.converged, res.outer_iterations) for res in results] == [(False, 60), (False, 25)]


def test_mixed_tolerances_and_caps(spec10):
    """Rows leave at different outer steps and inner sweeps, for every
    reason: eps, a stationary grid, max_outer and inner_max_iter.  Equal
    configs in one batch give equal results."""
    configs = [
        AdaptiveConfig(2.0, 0.25, eps=1e-6),
        AdaptiveConfig(1.0, 0.5, max_outer=5),
        AdaptiveConfig(10.0, 1.0, inner_tol=1e-9),
        AdaptiveConfig(0.5, 2.0, inner_max_iter=7, max_outer=40),
        AdaptiveConfig(2.0, 2.0, max_outer=30, inner_tol=1e-10),
        AdaptiveConfig(0.0, 1.0),
        AdaptiveConfig(2.0, 0.25, eps=1e-6),
        AdaptiveConfig(100.0, 0.125, eps=1e-8, inner_max_iter=3),
    ]
    results = assert_batch_matches(spec10, 20, configs)
    assert results[0].history == results[6].history
    assert results[1].outer_iterations == 5 and not results[1].converged
    assert any(row[5] for row in results[3].history)  # inner_max_iter stalls


def test_past_the_fused_cutoff(spec10):
    """N=200 solves on the numpy path."""
    assert 200 - 1 >= FUSED_CUTOFF
    configs = [AdaptiveConfig(1.0, 0.5, max_outer=20), AdaptiveConfig(10.0, 0.25, max_outer=12)]
    assert_batch_matches(spec10, 200, configs)


def test_one_config_is_the_batch_of_one(spec10):
    cfg = AdaptiveConfig(2.0, 0.25)
    assert_same_result(adaptive_solve(spec10, 20, cfg), reference_adaptive_solve(spec10, 20, cfg))
    assert adaptive_solve_many(spec10, 20, []) == []


@pytest.mark.parametrize("beta, n_cells", [(0.25, 20), (0.5, 640), (2.0, 100)])
def test_equidistribute_is_the_one_row_sweep_loop(spec10, beta, n_cells):
    monitor = ExactPowerMonitor(spec10, beta)
    got = equidistribute(monitor, spec10, n_cells, tol=1e-12)
    ref = reference_equidistribute(monitor, spec10, n_cells, tol=1e-12)
    assert got.grid.nodes.tobytes() == ref.grid.nodes.tobytes()
    assert (got.iterations, _bits(got.final_update)) == (ref.iterations, _bits(ref.final_update))


def test_equidistribute_stalls_as_the_reference(spec10):
    sol = solve_bvp(uniform_grid(spec10, 20), spec10)
    monitor = _ReferenceGradientMonitor(10.0, 1.0, sol.grid.nodes, sol.values)
    for max_iter in (5, 10000):  # the sweep cap, then the cycle at the damping floor
        with pytest.raises(EquidistributionError) as got:
            equidistribute(monitor, spec10, 20, max_iter=max_iter)
        with pytest.raises(EquidistributionError) as ref:
            reference_equidistribute(monitor, spec10, 20, max_iter=max_iter)
        assert str(got.value) == str(ref.value)
        assert got.value.grid.nodes.tobytes() == ref.value.grid.nodes.tobytes()
        assert (got.value.iterations, got.value.final_update) == \
            (ref.value.iterations, ref.value.final_update)
    equidistribute(ConstantMonitor(), spec10, 20)  # the trivial monitor still converges
