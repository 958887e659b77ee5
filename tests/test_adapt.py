import sys

import numpy as np
import pytest

from equifd import (AdaptiveConfig, DiscreteGradientMonitor, ParameterError, ProblemSpec,
                    adaptive_solve, adaptive_solve_many, max_error, monitor, problem, solver,
                    tridiag, uniform_grid)
from equifd.equidist import DAMPING_FLOOR
from equifd.io import read_csv


def test_alpha_zero_single_solve(spec10):
    """A constant monitor never moves the grid, so one solve suffices."""
    for beta in (0.125, 1.0, 2.0):
        res = adaptive_solve(spec10, 20, AdaptiveConfig(alpha=0.0, beta=beta))
        assert res.outer_iterations == 1
        assert res.converged
        assert res.error_norm == pytest.approx(0.375e-2, rel=0.02)
        assert np.array_equal(res.solution.grid.nodes, uniform_grid(spec10, 20).nodes)


def test_reference_cell_strong_adaptation(spec10):
    res = adaptive_solve(spec10, 20, AdaptiveConfig(alpha=1e4, beta=0.25))
    assert res.converged
    assert res.error_norm == pytest.approx(0.644e-6, rel=0.10)
    assert 23 / 3 <= res.outer_iterations <= 23 * 3


def test_reference_cell_moderate(spec10):
    res = adaptive_solve(spec10, 20, AdaptiveConfig(alpha=1.0, beta=1.0))
    assert res.converged
    assert res.error_norm == pytest.approx(0.176e-2, rel=0.10)
    assert 10 <= res.outer_iterations <= 90


def test_determinism(spec10):
    cfg = AdaptiveConfig(alpha=10.0, beta=0.5)
    r1 = adaptive_solve(spec10, 20, cfg)
    r2 = adaptive_solve(spec10, 20, cfg)
    assert r1.outer_iterations == r2.outer_iterations
    assert np.array_equal(r1.solution.values, r2.solution.values)
    assert np.array_equal(r1.solution.grid.nodes, r2.solution.grid.nodes)


def test_nonconvergence_flagged_not_fatal(spec10):
    res = adaptive_solve(spec10, 20, AdaptiveConfig(alpha=10.0, beta=0.5, max_outer=3))
    assert not res.converged
    assert res.outer_iterations == 3
    assert np.isfinite(res.error_norm)


def test_large_lambda_converges_or_reports():
    """lam=1e3, N=40, alpha=1e4, beta=1/4 limit-cycles in the solve-remesh loop
    (error 3.4e-2 after 200 solves; the closed-form beta=1/4 grid gives 3.9e-7).
    Whatever the loop does here, it must either converge or say that it did not."""
    cfg = AdaptiveConfig(alpha=1e4, beta=0.25, max_outer=200)
    res = adaptive_solve(ProblemSpec(1e3, 1.0), 40, cfg)
    if not res.converged:
        assert res.outer_iterations == cfg.max_outer
    assert np.isfinite(res.error_norm)
    assert res.error_norm == res.history[-1][1]
    assert len(res.history) == res.outer_iterations


def test_inner_stall_is_survivable(spec10):
    """A rough discrete-gradient monitor can cycle below the sweep cap,
    yet the outer loop still converges from its best iterate."""
    from equifd import DiscreteGradientMonitor, EquidistributionError, equidistribute, solve_bvp

    sol = solve_bvp(uniform_grid(spec10, 20), spec10)
    monitor = DiscreteGradientMonitor(10.0, 1.0, sol.grid.nodes, sol.values)
    with pytest.raises(EquidistributionError) as err:
        equidistribute(monitor, spec10, 20, tol=1e-12, max_iter=300)
    assert np.all(np.diff(err.value.grid.nodes) > 0)

    res = adaptive_solve(spec10, 20, AdaptiveConfig(alpha=10.0, beta=1.0,
                                                    inner_max_iter=300))
    assert res.converged
    assert res.error_norm == pytest.approx(0.750e-2, rel=0.5)


def test_inner_stalls_counted(spec10):
    """Each equidistribution whose best iterate was taken is counted."""
    res = adaptive_solve(spec10, 20, AdaptiveConfig(alpha=10.0, beta=1.0))
    assert res.converged
    assert res.inner_stalls == 1
    res = adaptive_solve(spec10, 20, AdaptiveConfig(alpha=1.0, beta=0.5))
    assert res.converged
    assert res.inner_stalls == 0


def test_final_grid_valid(spec10):
    res = adaptive_solve(spec10, 20, AdaptiveConfig(alpha=100.0, beta=0.25))
    nodes = res.solution.grid.nodes
    assert nodes[0] == 0.0 and nodes[-1] == spec10.ell
    assert np.all(np.diff(nodes) > 0)


def test_stopping_norm_is_indexwise(spec10):
    """Converged means the last two index-wise value vectors differ < eps."""
    cfg = AdaptiveConfig(alpha=2.0, beta=0.25)
    res = adaptive_solve(spec10, 20, cfg)
    assert res.converged
    final_change = res.history[-1][2]
    assert final_change < cfg.eps


def test_history_and_trace(tmp_path, spec10):
    # one configuration per way out of the loop: solution change below eps,
    # a stationary grid at n=1, and the max_outer cap
    for cfg, converged in [
        (AdaptiveConfig(alpha=1.0, beta=0.25), True),
        (AdaptiveConfig(alpha=0.0, beta=1.0), True),
        (AdaptiveConfig(alpha=10.0, beta=0.5, max_outer=3), False),
    ]:
        res = adaptive_solve(spec10, 20, cfg)
        assert res.converged == converged
        ns = [row[0] for row in res.history]
        assert ns == list(range(1, res.outer_iterations + 1))
        assert res.outer_iterations == len(res.history)
        assert np.isnan(res.history[0][2])  # no previous solution at n=1
        assert res.error_norm == res.history[-1][1] == max_error(res.solution)
        nodes = res.solution.grid.nodes
        assert nodes[0] == 0.0 and nodes[-1] == spec10.ell
        # the inner loop: sweeps and stall flag of each equidistribution, and
        # a damping factor that only ever halves, down to the floor
        sweeps = [row[4] for row in res.history]
        assert all(s >= 1 for s in sweeps[:-1]) and sweeps[-1] >= 0
        assert res.inner_stalls == sum(row[5] for row in res.history)
        assert {row[5] for row in res.history} <= {0, 1}
        relax = [row[6] for row in res.history]
        assert relax[0] == 1.0 and min(relax) >= DAMPING_FLOOR
        assert all(b in (a, max(a / 2, DAMPING_FLOOR)) for a, b in zip(relax, relax[1:]))
        path = tmp_path / "trace.csv"
        res.write_trace_csv(path)
        data = read_csv(path)
        assert list(data) == ["n", "error_norm", "solution_change", "grid_change",
                              "inner_sweeps", "inner_stall", "relax"]
        assert len(data["n"]) == res.outer_iterations
        assert list(data["inner_sweeps"]) == sweeps
        assert list(data["relax"]) == relax
    # the row that stops the loop on eps runs no equidistribution
    res = adaptive_solve(spec10, 20, AdaptiveConfig(alpha=1.0, beta=0.25))
    assert res.history[-1][3:6] == (0.0, 0, 0)


def test_config_validation():
    cfg = AdaptiveConfig(alpha=1.0, beta=0.5)
    assert (cfg.eps, cfg.max_outer, cfg.inner_tol, cfg.inner_max_iter) == \
        (1e-10, 1000, 1e-12, 10000)
    with pytest.raises(ValueError):
        AdaptiveConfig(alpha=-1.0, beta=0.5)
    with pytest.raises(ValueError):
        AdaptiveConfig(alpha=1.0, beta=-0.5)
    with pytest.raises(ValueError):
        AdaptiveConfig(alpha=1.0, beta=0.5, eps=0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha"):
            AdaptiveConfig(alpha=bad, beta=0.5)
        with pytest.raises(ValueError, match="beta"):
            AdaptiveConfig(alpha=1.0, beta=bad)
    # caps below one and tolerances that are not positive and finite are
    # refused (an infinite eps would stop the loop at its second solve)
    for bad in ({"max_outer": 0}, {"inner_max_iter": 0}, {"inner_tol": 0.0},
                {"inner_tol": -1e-12}, {"inner_tol": float("nan")}, {"inner_tol": np.inf},
                {"eps": np.inf}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            AdaptiveConfig(alpha=1.0, beta=0.5, **bad)


def test_adaptive_loop_makes_no_ndarray_reductions():
    """The N=20 path reduces through problem.largest/smallest: a.max(),
    a.min(), a.any() and a.all() go through numpy's Python-level wrappers
    and cost several times as much on short arrays.  The count is exact."""
    names = {"max", "min", "any", "all"}
    calls = []

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", None) in names \
                and isinstance(getattr(arg, "__self__", None), np.ndarray):
            calls.append(arg.__name__)

    sys.setprofile(profile)
    try:
        adaptive_solve(ProblemSpec(10, 1), 20, AdaptiveConfig(2.0, 0.25))
    finally:
        sys.setprofile(None)
    assert calls == []


def test_adaptive_loop_solves_on_the_fused_path(monkeypatch):
    """At N=20, and at N=200 below solver.CR_CUTOFF, every solve is
    solver._solve_short's one loop: none goes through the numpy assembly
    or the tridiagonal kernel's entry."""
    counts = {"_solve_short": 0, "_assemble": 0, "solve_in_place": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((solver, "_solve_short"), (solver, "_assemble"),
                         (solver, "solve_in_place"), (tridiag, "solve_in_place")):
        counted(module, name)
    for n_cells in (20, 200):
        for name in counts:
            counts[name] = 0
        res = adaptive_solve(ProblemSpec(10, 1), n_cells, AdaptiveConfig(2.0, 0.25))
        assert counts == {"_solve_short": res.outer_iterations, "_assemble": 0,
                          "solve_in_place": 0}, n_cells


def test_outer_steps_build_the_monitor_unchecked():
    """The loop builds its monitor without the constructor's input checks,
    which it has made, and solves without re-checking lam and the
    Dirichlet values, which ProblemSpec has checked: at no outer step does
    the monitor or the solver call problem.require, as the public
    constructor and solve_dirichlet do."""
    spec = ProblemSpec(10, 1)

    def checks(run):
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is problem.require.__code__ \
                    and frame.f_back.f_code.co_filename in (monitor.__file__, solver.__file__):
                calls.append(frame.f_back.f_code.co_name)

        sys.setprofile(profile)
        try:
            result = run()
        finally:
            sys.setprofile(None)
        return calls, result

    configs = [AdaptiveConfig(2.0, 0.25), AdaptiveConfig(10.0, 1.0)]
    calls, results = checks(lambda: adaptive_solve_many(spec, 20, configs))
    assert calls == [] and min(res.outer_iterations for res in results) > 5
    grid = uniform_grid(spec, 20)
    calls, _ = checks(lambda: DiscreteGradientMonitor(2.0, 0.25, grid.nodes, grid.nodes))
    assert len(calls) == 2  # alpha, then beta
    calls, _ = checks(lambda: solver.solve_dirichlet(grid, spec.lam, spec.left_bc, 1.0))
    assert calls == ["solve_dirichlet"]


def test_weight_overflow_in_the_loop_blames_alpha_and_beta():
    configs = [AdaptiveConfig(1.0, 0.25), AdaptiveConfig(1e308, 2.0)]
    with pytest.raises(ParameterError, match="monitor weights") as err:
        adaptive_solve_many(ProblemSpec(1e100, 1.0), 20, configs)
    assert err.value.params == {"alpha": 1e308, "beta": 2.0}
