"""Each stop and damping rule of the two fixed-point loops, at its boundary.

The sweep loop's rules live in equidist._Row and the solve-remesh loop's
in adapt._Run; each loop has a stack form and a lone form that call
them.  Every test here runs its case through both forms, with the rule's
input exactly at its threshold: a value equal to tol, eps or inner_tol
does not stop a row, and an update equal to the last one damps it, as a
solution change equal to the last one does.  The stack cases keep a
second row in the stack past the step under test, so that step is taken
by the stack form.
"""

import numpy as np

from equifd import (AdaptiveConfig, DiscreteGradientMonitor, MonitorFunction, ProblemSpec,
                    adaptive_solve, adaptive_solve_many, solve_bvp, uniform_grid)
from equifd.equidist import _sweep_row, _sweep_rows

SPEC = ProblemSpec(10.0, 1.0)
# (alpha, beta) of the row under test, and of a second row that takes more steps
FAST, SLOW = (2.0, 0.25), (2.0, 2.0)


def _rows(history, k):
    """The first k history rows as bytes, NaN included."""
    return np.array(history[:k], dtype=float).tobytes()


def _runs(**stops):
    """The FAST config's result alone, then in a stack beside the SLOW one,
    both under stops; the SLOW row's result last."""
    fast, slow = (AdaptiveConfig(*params, **stops) for params in (FAST, SLOW))
    return [adaptive_solve(SPEC, 20, fast), *adaptive_solve_many(SPEC, 20, [fast, slow])]


def _sweep_update(monitor, x, k):
    """The update of sweep k from the grid x, where it is the least so far:
    the best update at the cap k, below that at the cap k - 1."""
    before, at = (_sweep_row(monitor, x, 0.0, cap)[2] for cap in (k - 1, k))
    assert at < before
    return at


def test_an_update_equal_to_tol_does_not_stop_the_sweeps():
    """With tol the update of sweep 3, that sweep goes on to a fourth."""
    x = uniform_grid(SPEC, 20).nodes
    sol = solve_bvp(uniform_grid(SPEC, 20), SPEC)
    (a0, b0), (a1, b1) = FAST, (10.0, 1.0)  # the second row's sweeps stall
    tol = _sweep_update(DiscreteGradientMonitor(a0, b0, x, sol.values), x, 3)
    lone = _sweep_row(DiscreteGradientMonitor(a0, b0, x, sol.values), x, tol, 100)
    stacked = DiscreteGradientMonitor._trusted([a0, a1], [b0, b1], np.array([x, x]),
                                               np.array([sol.values, sol.values]))
    stack = _sweep_rows(stacked, np.array([x, x]), tol, 100)
    assert stack[1][1] > 3  # the second row was in the stack at sweep 3
    for nodes, sweeps, update, message in (lone, stack[0]):
        assert message is None and sweeps > 3 and update < tol
        assert nodes.tobytes() == lone[0].tobytes()
    # one ulp above, sweep 3 stops
    assert _sweep_row(DiscreteGradientMonitor(a0, b0, x, sol.values), x,
                      np.nextafter(tol, np.inf), 100)[1:3] == (3, tol)


class _Flip(MonitorFunction):
    """Weights on three intervals that swap the grids [0, 1/4, 1/2, 1] and
    [0, 1/2, 3/4, 1]: each undamped sweep moves the two inner nodes by 1/4,
    exactly.  One monitor serves a stack of such grids."""

    def inverse_weights(self, nodes):
        left = nodes[..., 1:2] < 0.375
        return np.where(left, [1.0, 0.5, 0.5], [0.5, 0.5, 1.0])

    def _rows(self, keep):
        return self


def test_an_equal_update_damps_the_sweeps():
    """The damping halves where the update did not shrink: sweep 2 of the
    flip moves the nodes by 1/4, as sweep 1 did, so its step is halved and
    sweep 3 finds them 1/8 from where sweep 1 found them.  Damped to its
    floor, the flip is a 2-cycle of the iterates, found at sweep 131.  Were
    an equal update not damped, every sweep would flip the nodes by 1/4
    to the sweep cap, the best iterate the first."""
    x = np.array([0.0, 0.25, 0.5, 1.0])
    damped = np.array([0.0, 0.375, 0.625, 1.0])
    for cap, sweeps, message in (
            (3, 3, "no convergence after 3 sweeps (best update 1.250e-01)"),
            (10000, 131, "the iterate of sweep 130 repeats that of sweep 128 at the damping "
                         "floor (period 2; best update 1.250e-01)")):
        lone = _sweep_row(_Flip(), x, 1e-12, cap)
        stack = _sweep_rows(_Flip(), np.array([x, x]), 1e-12, cap)
        for nodes, its, update, msg in (lone, *stack):
            assert (its, update, msg) == (sweeps, 0.125, message)
            assert nodes.tobytes() == damped.tobytes()


def test_a_solution_change_equal_to_eps_does_not_stop_the_outer_loop():
    """With eps the solution change of a step, that step remeshes and the
    loop goes on, the rows before it unchanged."""
    base = adaptive_solve(SPEC, 20, AdaptiveConfig(*FAST))
    changes = [row[2] for row in base.history]
    # the last step before the eps stop whose change is below every earlier one
    k = max(n for n in range(2, len(changes))
            if changes[n - 1] < min(changes[1:n - 1], default=np.inf))
    lone, stack, slow = _runs(eps=changes[k - 1])
    assert len(slow.history) > k
    for res in (lone, stack):
        assert _rows(res.history, k) == _rows(base.history, k)
        assert len(res.history) > k


def test_a_grid_change_equal_to_inner_tol_does_not_stop_the_outer_loop():
    """With inner_tol the grid change of step 3, which moves no sweep's stop
    here, that step does not stop the loop on a stationary grid."""
    base = adaptive_solve(SPEC, 20, AdaptiveConfig(*FAST))
    lone, stack, slow = _runs(inner_tol=base.history[2][3])
    assert len(slow.history) > 3
    for res in (lone, stack):
        assert _rows(res.history, 3) == _rows(base.history, 3)
        assert len(res.history) > 3
