"""The lockstep loop against the one-config loop it replaced, bit for bit.

adapt.adaptive_solve_many runs many configs' solve-remesh loops on one
stack of grids, and equidist._sweep_rows runs their equidistributions in
one stacked sweep loop.  The reference below is the loop that ran one
config at a time before, with its sweep loop, sweep and monitor, kept
unchanged.  Every batch here must give each config exactly the reference
result: nodes, values, every history row, stalls and flags.
"""

import math
import random

import numpy as np
import pytest

from equifd import (AdaptiveConfig, AdaptiveResult, ConstantMonitor, DiscreteGradientMonitor,
                    EquidistributionError, ExactPowerMonitor, Grid, MonitorFunction, ProblemSpec,
                    adapt, adaptive_solve, adaptive_solve_many, equidistribute, max_error,
                    solve_bvp, uniform_grid)
from equifd.equidist import DAMPING_FLOOR, EquidistResult, _sweep_row, _sweep_rows
from equifd.experiments import TABLE2_ALPHAS, TABLE2_BETAS
from equifd.problem import largest, smallest
from equifd.solver import CR_CUTOFF

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
    """The adaptive loop's monitor on a stack (DiscreteGradientMonitor._trusted)
    looks each row's midpoints up in that row's breakpoints, exactly as
    the one-grid reference does, also where a breakpoint lies one ulp
    from a midpoint or on it, and so does the monitor of _rows(keep).
    (Shifting each row by an offset to search all rows at once would
    round such pairs together; the complex keys row + 1j*x are compared
    lexicographically, with no rounding.)"""
    rng = np.random.default_rng(5)
    x = np.sort(rng.random((4, 21)), axis=1)
    x[:, 0], x[:, -1] = 0.0, 1.0
    mid = 0.5 * (x[:, :-1] + x[:, 1:])
    breaks = np.sort(rng.random((4, 19)), axis=1)
    for row in range(4):
        for j, shift in ((3, -np.inf), (9, np.inf), (15, None)):
            breaks[row, j] = mid[row, j] if shift is None else np.nextafter(mid[row, j], shift)
        breaks[row].sort()
    nodes = np.hstack([np.zeros((4, 1)), breaks, np.ones((4, 1))])
    values = rng.random((4, 21))
    alphas, betas = [1.0, 2.0, 0.5, 3.0], [1.0, 1.0, 0.25, 2.0]
    expected = [_ReferenceGradientMonitor(a, b, n, v).interval_values(xr)
                for a, b, n, v, xr in zip(alphas, betas, nodes, values, x)]
    monitor = DiscreteGradientMonitor._trusted(alphas, betas, nodes, values)
    assert np.array_equal(monitor.interval_values(x), expected)
    for row in range(4):
        assert np.array_equal(monitor._rows([row]).interval_values(x[row]), expected[row])
    for keep in ([0, 2, 3], [3, 1]):
        assert np.array_equal(monitor._rows(keep).interval_values(x[keep]),
                              [expected[row] for row in keep])
    assert np.array_equal(monitor._rows([0, 2, 3])._rows([0, 2]).interval_values(x[[0, 3]]),
                          [expected[0], expected[3]])


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
    for max_outer, params in ((60, [(1e4, 0.25), (1e4, 0.5)]), (25, [(1e4, 0.25), (1e2, 0.25)])):
        configs = [AdaptiveConfig(alpha, beta, max_outer=max_outer) for alpha, beta in params]
        results = assert_batch_matches(spec, 40, configs)
        assert [(res.converged, res.outer_iterations) for res in results] == \
            [(False, max_outer)] * 2


def _exit(config, result):
    """Why the loop of config stopped: eps, a stationary grid or max_outer."""
    if not result.converged:
        assert result.outer_iterations == config.max_outer
        return "max_outer"
    return "eps" if result.history[-1][4] == 0 else "stationary"


def test_mixed_tolerances_and_caps(spec10):
    """Each batch shares its stops, and its rows leave at different outer
    steps and inner sweeps, for every reason: eps, a stationary grid,
    max_outer, and inner stalls at inner_max_iter and at a cycle.  Equal
    configs in one batch give equal results."""
    batches = [
        (dict(eps=1e-6), [(2.0, 0.25), (10.0, 1.0), (0.0, 1.0), (2.0, 0.25), (100.0, 0.125)]),
        (dict(max_outer=5), [(1.0, 0.5), (0.0, 1.0)]),
        (dict(inner_max_iter=7, max_outer=40), [(0.5, 2.0), (2.0, 0.25)]),
        (dict(max_outer=30, inner_tol=1e-10), [(2.0, 2.0), (1.0, 0.5), (2.0, 0.25)]),
        (dict(eps=1e-8, inner_max_iter=3), [(100.0, 0.125), (10.0, 1.0)]),
    ]
    exits, stalls = [], []
    for stops, params in batches:
        configs = [AdaptiveConfig(alpha, beta, **stops) for alpha, beta in params]
        results = assert_batch_matches(spec10, 20, configs)
        if len(configs) == 5:
            assert results[0].history == results[3].history
        exits.append([_exit(cfg, res) for cfg, res in zip(configs, results)])
        # each inner stall: at inner_max_iter, or at a cycle below it
        stalls.append(sorted({"cap" if row[4] == cfg.inner_max_iter else "cycle"
                              for cfg, res in zip(configs, results)
                              for row in res.history if row[5]}))
    assert exits == [["eps", "eps", "stationary", "eps", "eps"], ["max_outer", "stationary"],
                     ["max_outer", "eps"], ["max_outer", "stationary", "eps"],
                     ["eps", "stationary"]]
    assert stalls == [["cycle"], [], ["cap"], [], ["cap"]]


def test_a_batch_shares_its_stops(spec10):
    """Rows differ only in alpha and beta: a batch whose configs differ in
    any of the four stopping values is refused before any solve."""
    base = AdaptiveConfig(2.0, 0.25)
    for stop in (dict(eps=1e-6), dict(max_outer=5), dict(inner_tol=1e-9),
                 dict(inner_max_iter=7)):
        with pytest.raises(ValueError, match="^the configs of one batch must share eps, "
                                             "max_outer, inner_tol and inner_max_iter$"):
            adaptive_solve_many(spec10, 20, [base, AdaptiveConfig(1.0, 0.5, **stop)])
    assert_batch_matches(spec10, 20, [base, AdaptiveConfig(1.0, 0.5, max_outer=np.int64(1000))])


def test_past_the_fused_cutoff(spec10):
    """N=600 solves on the numpy path, by cyclic reduction."""
    assert 600 - 1 >= CR_CUTOFF
    configs = [AdaptiveConfig(1.0, 0.5, max_outer=20), AdaptiveConfig(10.0, 0.25, max_outer=20)]
    assert_batch_matches(spec10, 600, configs)


def test_one_config_is_the_batch_of_one(spec10):
    cfg = AdaptiveConfig(2.0, 0.25)
    assert_same_result(adaptive_solve(spec10, 20, cfg), reference_adaptive_solve(spec10, 20, cfg))
    assert adaptive_solve_many(spec10, 20, []) == []


class _Generic(MonitorFunction):
    """inner's interval_values behind the base class's checked weights and
    their inverse smallest(w)/w: the sweeps' arithmetic for any monitor."""

    def __init__(self, inner):
        self.inner = inner

    def interval_values(self, nodes):
        return self.inner.interval_values(nodes)


@pytest.mark.parametrize("beta, n_cells", [(0.25, 20), (0.5, 640), (2.0, 100)])
def test_equidistribute_is_the_one_row_sweep_loop(spec10, beta, n_cells):
    monitor = ExactPowerMonitor(spec10, beta)
    got = equidistribute(_Generic(monitor), spec10, n_cells, tol=1e-12)
    ref = reference_equidistribute(monitor, spec10, n_cells, tol=1e-12)
    assert got.grid.nodes.tobytes() == ref.grid.nodes.tobytes()
    assert (got.iterations, _bits(got.final_update)) == (ref.iterations, _bits(ref.final_update))


@pytest.mark.parametrize("beta, n_cells", [(0.25, 20), (0.5, 640), (2.0, 100)])
def test_the_closed_form_inverse_weights_sweep_as_the_reference(spec10, beta, n_cells):
    """ExactPowerMonitor's inverse weights e^{beta lam (m_0 - m_j)} equal
    smallest(w)/w in exact arithmetic, and round differently: the run takes
    the reference's sweeps, its final update is of the same decade, and
    its nodes lie within two ulps of 1 of the reference's."""
    monitor = ExactPowerMonitor(spec10, beta)
    # the plain sweeps, which equidistribute mixes for this monitor
    nodes, sweeps, update, _ = _sweep_row(monitor, uniform_grid(spec10, n_cells).nodes, 1e-12,
                                          10000)
    ref = reference_equidistribute(monitor, spec10, n_cells, tol=1e-12)
    assert sweeps == ref.iterations
    assert math.floor(math.log10(update)) == math.floor(math.log10(ref.final_update))
    assert np.max(np.abs(nodes - ref.grid.nodes)) <= 4.5e-16


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


# --- a lone row sweeps as its 1-D grid -----------------------------------------


class _Recording(MonitorFunction):
    """inner's weights, taken as they are; each query's shape goes to shapes."""

    def __init__(self, inner, shapes):
        self.inner, self.shapes = inner, shapes

    def interval_values(self, nodes):
        self.shapes.append(nodes.shape)
        return self.inner.interval_weights(nodes)

    def interval_weights(self, nodes):
        return self.interval_values(nodes)

    def _rows(self, keep):
        return _Recording(self.inner._rows(keep), self.shapes)


def _reference_row(monitor, spec, n_cells, tol, max_iter):
    """reference_equidistribute from the uniform grid, as one _sweep_rows result."""
    try:
        res = reference_equidistribute(monitor, spec, n_cells, tol=tol, max_iter=max_iter)
    except EquidistributionError as err:
        return err.grid.nodes, err.iterations, err.final_update, str(err)
    return res.grid.nodes, res.iterations, res.final_update, None


def test_equidistribute_asks_its_monitor_for_one_grid(spec10):
    shapes = []
    res = equidistribute(_Recording(ExactPowerMonitor(spec10, 0.5), shapes), spec10, 40)
    assert res.iterations > 1 and shapes == [(41,)] * res.iterations


def test_rows_that_stop_leave_a_lone_row_swept_as_one_grid(spec10):
    """Three rows stop at different sweeps: two converge, and the last,
    alone by then, stops at the sweep cap (max_iter 100) or at its cycle
    at the damping floor (max_iter 10000).  The monitor is asked for the
    stack while two or more rows remain and for the 1-D grid of the last
    one, and every row's result is the reference's bit for bit."""
    n_cells, tol = 20, 1e-12
    sol = solve_bvp(uniform_grid(spec10, n_cells), spec10)
    alphas, betas = [2.0, 10.0, 0.5], [0.25, 1.0, 2.0]
    x = np.repeat(sol.grid.nodes[None], 3, axis=0)
    monitor = DiscreteGradientMonitor._trusted(alphas, betas, x,
                                               np.repeat(sol.values[None], 3, axis=0))
    for max_iter in (100, 10000):
        shapes = []
        got = _sweep_rows(_Recording(monitor, shapes), x, tol, max_iter)
        sweeps = [row[1] for row in got]
        assert sweeps[0] < sweeps[2] < sweeps[1] <= max_iter
        assert [row[3] is None for row in got] == [True, False, True]
        left = [sum(count >= it for count in sweeps) for it in range(1, max(sweeps) + 1)]
        assert shapes == [(k, n_cells + 1) if k > 1 else (n_cells + 1,) for k in left]
        for alpha, beta, row in zip(alphas, betas, got):
            ref = _reference_row(_ReferenceGradientMonitor(alpha, beta, sol.grid.nodes,
                                                           sol.values),
                                 spec10, n_cells, tol, max_iter)
            assert row[0].tobytes() == ref[0].tobytes()
            assert (row[1], _bits(row[2]), row[3]) == (ref[1], _bits(ref[2]), ref[3])


def test_a_capped_lone_row_asks_for_no_rows(spec10):
    """equidistribute's one row stops at its sweep cap without asking its
    monitor for the rows that remain: none do."""

    class NoRows(ExactPowerMonitor):
        def _rows(self, keep):
            raise AssertionError(f"_rows({keep}) asked of a one-grid monitor")

    with pytest.raises(EquidistributionError, match="no convergence after 3 sweeps"):
        equidistribute(NoRows(spec10, 0.5), spec10, 40, max_iter=3)


# --- a lone config runs in its own loop -----------------------------------------


class _LoneLoop:
    """Wraps adapt._adapt_row and adapt.solve_stack: records the step at
    which each row enters the lone loop, and each solve as (rows, in the
    lone loop)."""

    def __init__(self, monkeypatch):
        self.entries, self.solves, self._depth = [], [], 0
        lone, solve = adapt._adapt_row, adapt.solve_stack

        def enter(spec, run, x, values, n, stops):
            self.entries.append(n)
            self._depth += 1
            try:
                return lone(spec, run, x, values, n, stops)
            finally:
                self._depth -= 1

        def solved(x, spec):
            self.solves.append((len(x), self._depth > 0))
            return solve(x, spec)

        monkeypatch.setattr(adapt, "_adapt_row", enter)
        monkeypatch.setattr(adapt, "solve_stack", solved)


@pytest.mark.parametrize("params, n_cells, stops, exit_", [
    ((2.0, 0.25), 20, {}, "eps"),
    ((0.0, 1.0), 20, {}, "stationary"),
    ((10.0, 1.0), 20, {}, "eps"),               # its first equidistribution stalls
    ((2.0, 2.0), 20, {"max_outer": 300}, "max_outer"),
    ((1.0, 0.5), 600, {"max_outer": 20}, "eps"),  # past CR_CUTOFF
])
def test_a_lone_config_exits_as_the_reference(spec10, monkeypatch, params, n_cells, stops,
                                                exit_):
    """adaptive_solve solves step 1 as a stack of one and enters the lone
    loop at that step's remesh; every later solve is of its one grid in
    the lone loop.  It gives the frozen one-config loop's result bit for
    bit at each exit: eps, a stationary grid, max_outer, after an inner
    stall at step 1 and on grids past CR_CUTOFF."""
    cfg = AdaptiveConfig(*params, **stops)
    loop = _LoneLoop(monkeypatch)
    got = adaptive_solve(spec10, n_cells, cfg)
    assert_same_result(got, reference_adaptive_solve(spec10, n_cells, cfg))
    assert _exit(cfg, got) == exit_
    assert loop.entries == [1]
    assert loop.solves == [(1, False)] + [(1, True)] * (got.outer_iterations - 1)
    if params == (10.0, 1.0):
        assert got.history[0][5] == 1 and got.inner_stalls == 1
    if n_cells == 600:
        assert n_cells - 1 >= CR_CUTOFF


def test_a_lone_solve_falls_back_to_solve_dirichlet_as_the_reference():
    """At ell = 1e-321 the steps' products underflow: the fused loop returns
    None, and solve_dirichlet raises, in the stack of one as in the
    reference."""
    spec, cfg = ProblemSpec(10.0, 1e-321), AdaptiveConfig(2.0, 0.25)
    with pytest.raises(ValueError) as got:
        adaptive_solve(spec, 20, cfg)
    with pytest.raises(ValueError) as ref:
        reference_adaptive_solve(spec, 20, cfg)
    assert type(got.value) is type(ref.value) and str(got.value) == str(ref.value)
    assert str(got.value).startswith("grid steps too small")


@pytest.mark.parametrize("params, stops, handover", [
    ([(2.0, 0.25), (2.0, 2.0)], {}, (13, 13)),  # the other leaves on eps
    # the other's grid is stationary at step 1: step 2 solves a stack of one
    ([(0.0, 1.0), (2.0, 0.25)], {}, (1, 2)),
    # one leaves on a stationary grid at step 1, one on eps at step 16
    ([(10.0, 1.0), (1.0, 0.5), (0.0, 1.0)], {"max_outer": 40}, (16, 16)),
])
def test_the_last_row_is_handed_to_the_lone_loop(spec10, monkeypatch, params, stops, handover):
    """Once one row is left after a step's solve and eps check, the lone
    loop takes it over with its record at that step's remesh and runs every
    later step.  handover is (left, step): the others left at step left,
    on eps, in that step, or on a stationary grid, at its end, so that the
    last row takes one more stacked solve and is handed over at step
    left + 1.  Each result is the reference's."""
    configs = [AdaptiveConfig(alpha, beta, **stops) for alpha, beta in params]
    loop = _LoneLoop(monkeypatch)
    results = assert_batch_matches(spec10, 20, configs)
    left, handover = handover
    assert loop.entries == [handover]
    *others, last = sorted(res.outer_iterations for res in results)
    assert others[-1] == left
    assert [inside for _, inside in loop.solves] == [False] * handover + [True] * (last - handover)
    rows = [count for count, _ in loop.solves]
    assert all(count > 1 for count in rows[:left]) and rows[left:] == [1] * (last - left)


def test_table2_lone_steps_run_in_the_lone_loop(spec10, monkeypatch, table2_reference):
    """447 of table2's 653 outer steps carry one row, the tail of the (2, 2)
    cell: every one of them runs in the lone loop, and every step of the
    stack carries two rows or more."""
    loop = _LoneLoop(monkeypatch)
    results = assert_batch_matches(spec10, 20, list(table2_reference), table2_reference)
    assert max(res.outer_iterations for res in results) == len(loop.solves) == 653
    assert sum(inside for _, inside in loop.solves) == 447
    assert all(inside == (count == 1) for count, inside in loop.solves)
    assert loop.entries == [206]
