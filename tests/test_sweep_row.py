"""The lone-row sweep loop against the stack loop that ran it before, bit for bit.

equidist._sweep_row sweeps one grid with its record in locals and its
step in a reused buffer; equidistribute starts in it, and sweep_rows
hands it the last row of a stack.  The reference below is sweep_rows as
it was before, when the stack loop carried a lone row as its 1-D grid,
kept unchanged with its sweep.  Every case must give the reference's
(nodes, sweeps, update, message) bit for bit, or raise the same error at
the same sweep.
"""

import numpy as np
import pytest

from equifd import (DiscreteGradientMonitor, ExactPowerMonitor, MonitorFunction,
                    MonotonicityError, equidistribute, solve_bvp, uniform_grid)
from equifd.equidist import _sweep_row, sweep_rows
from equifd.problem import largest, per_row, row_largest

# --- the reference: sweep_rows with a lone row as its 1-D grid ---------------

_FLOOR = 0.25


def _reference_sweep(nodes, r):
    new = np.empty(nodes.shape)
    new[..., 0] = 0.0
    np.add.accumulate(r, axis=-1, out=new[..., 1:])
    if r.ndim == 1:
        new *= nodes.item(-1) / new.item(-1)
    else:
        new *= nodes[..., -1:] / new[..., -1:]
    new[..., -1] = nodes[..., -1]
    return new


class _ReferenceRow:
    __slots__ = ("index", "relax", "prev_update", "best", "best_x", "saved")

    def __init__(self, index, x):
        self.index = index
        self.relax = 1.0
        self.prev_update = None
        self.best = np.inf
        self.best_x = x
        self.saved = None


def _reference_sweep_rows(monitor, x, tol, max_iter):
    rows = [_ReferenceRow(i, xi) for i, xi in enumerate(x)]
    out = [None] * len(rows)
    factor = None
    if len(x) == 1:
        x = x[0]
    it = 0
    while rows:
        it += 1
        step = _reference_sweep(x, monitor.inverse_weights(x))
        step -= x
        xs, updates = ((x,), [largest(abs(step))]) if x.ndim == 1 else (x, row_largest(abs(step)))
        stopped = []
        damped = False
        for i, (row, update) in enumerate(zip(rows, updates)):
            if update < row.best:
                row.best, row.best_x = update, xs[i]
            if update < tol:
                out[row.index] = (xs[i], it, update, None)
                stopped.append(i)
                continue
            if row.relax == _FLOOR:
                saved = row.saved
                if saved is not None and update == saved[1] and np.array_equal(xs[i], saved[2]):
                    message = (f"the iterate of sweep {it - 1} repeats that of sweep {saved[0]} "
                               f"at the damping floor (period {it - 1 - saved[0]}; best update "
                               f"{row.best:.3e})")
                    out[row.index] = (row.best_x, it, row.best, message)
                    stopped.append(i)
                    continue
                if (it - 1) & (it - 2) == 0:
                    row.saved = (it - 1, update, xs[i])
            if row.prev_update is not None and update > row.prev_update:
                row.relax = max(0.5 * row.relax, _FLOOR)
                damped = True
            row.prev_update = update
        if stopped:
            if len(stopped) == len(rows):
                break
            keep = [i for i in range(len(rows)) if i not in stopped]
            rows = [rows[i] for i in keep]
            monitor = monitor.rows(keep)
            keep = keep[0] if len(keep) == 1 else keep
            x, step = x[keep], step[keep]
            damped = True
        if damped:
            relax = [row.relax for row in rows]
            factor = per_row(relax) if any(r != 1.0 for r in relax) else None
        if factor is not None:
            step *= factor
        x = x + step
        if largest(x[..., 1:] <= x[..., :-1]):
            raise MonotonicityError(f"neighbouring nodes collided after sweep {it}")
        if it == max_iter:
            for row in rows:
                message = f"no convergence after {it} sweeps (best update {row.best:.3e})"
                out[row.index] = (row.best_x, it, row.best, message)
            break
    return out


# --- comparison -------------------------------------------------------------


def _bits(value):
    """A float by its bit pattern (so NaN equals NaN and -0.0 is not 0.0),
    anything else by its type and value."""
    if isinstance(value, float):
        return value.hex()
    return type(value).__name__, value


def _outcome(loop, make_monitor, x, tol, max_iter):
    """Each row's (node bytes, sweeps, update bits, message), or the type and
    message of what loop raised, with the sweep it raised at: the count of
    inverse_weights calls."""
    monitor = make_monitor()
    try:
        rows = loop(monitor, x, tol, max_iter)
    except (MonotonicityError, ValueError) as err:
        return type(err), str(err), getattr(monitor, "calls", None)
    return [(nodes.tobytes(), sweeps, _bits(update), message)
            for nodes, sweeps, update, message in rows]


def _lone(monitor, x, tol, max_iter):
    return [_sweep_row(monitor, x[0], tol, max_iter)]


def _assert_lone_matches(make_monitor, x, tol, max_iter):
    """_sweep_row on x and sweep_rows on the stack of x alone both give
    the reference's outcome; returns it."""
    expected = _outcome(_reference_sweep_rows, make_monitor, x[None], tol, max_iter)
    assert _outcome(_lone, make_monitor, x[None], tol, max_iter) == expected
    assert _outcome(sweep_rows, make_monitor, x[None], tol, max_iter) == expected
    return expected


class _Counted(MonitorFunction):
    """inner's inverse weights, counting the sweeps that ask for them;
    those of sweep `at` go through edit first."""

    def __init__(self, inner, at=0, edit=None):
        self.inner, self.at, self.edit, self.calls = inner, at, edit, 0

    def inverse_weights(self, nodes):
        self.calls += 1
        r = self.inner.inverse_weights(nodes)
        return self.edit(r) if self.calls == self.at else r

    def rows(self, keep):
        return _Counted(self.inner.rows(keep), self.at, self.edit)


def _gradient(spec, n_cells, alpha, beta):
    sol = solve_bvp(uniform_grid(spec, n_cells), spec)
    return lambda: DiscreteGradientMonitor(alpha, beta, sol.grid.nodes, sol.values)


# --- cases --------------------------------------------------------------------


@pytest.mark.parametrize("beta", [0.25, 0.5])
@pytest.mark.parametrize("n_cells", [20, 640])
def test_smooth_monitor_matches_reference(spec10, beta, n_cells):
    monitor = ExactPowerMonitor(spec10, beta)
    x = uniform_grid(spec10, n_cells).nodes
    (nodes, sweeps, update, message), = _assert_lone_matches(lambda: monitor, x, 1e-12, 10000)
    assert message is None
    res = equidistribute(monitor, spec10, n_cells)
    assert (res.grid.nodes.tobytes(), res.iterations, _bits(res.final_update)) == (
        nodes, sweeps, update)


def test_lone_gradient_row_matches_reference(spec10):
    (_, sweeps, _, message), = _assert_lone_matches(_gradient(spec10, 20, 2.0, 2.0),
                                                    uniform_grid(spec10, 20).nodes, 1e-12, 10000)
    assert message is None and sweeps > 100


def test_cycle_at_damping_floor_matches_reference(spec10):
    (_, sweeps, _, message), = _assert_lone_matches(_gradient(spec10, 20, 10.0, 1.0),
                                                    uniform_grid(spec10, 20).nodes, 1e-12, 10000)
    assert sweeps == 270
    assert message.startswith("the iterate of sweep 269 repeats that of sweep 256 at the "
                              "damping floor (period 13; ")


@pytest.mark.parametrize("max_iter", [1, 7, 100])
def test_sweep_cap_matches_reference(spec10, max_iter):
    x = uniform_grid(spec10, 640).nodes
    (_, sweeps, _, message), = _assert_lone_matches(lambda: ExactPowerMonitor(spec10, 0.5), x,
                                                    1e-12, max_iter)
    assert sweeps == max_iter and message.startswith(f"no convergence after {max_iter} sweeps")


@pytest.mark.parametrize("at", [1, 3])
def test_collision_raises_at_the_reference_sweep(spec10, at):
    """An inverse weight that underflows to 0 at sweep `at` collapses its
    cell: the undamped step makes its two nodes equal."""

    def underflow(r):
        r[10] = 0.0
        return r

    x = uniform_grid(spec10, 20).nodes
    expected = _assert_lone_matches(
        lambda: _Counted(ExactPowerMonitor(spec10, 0.5), at, underflow), x, 1e-12, 10000)
    assert expected == (MonotonicityError, f"neighbouring nodes collided after sweep {at}", at)


@pytest.mark.parametrize("at, max_iter", [(1, 1), (4, 4), (4, 10)])
@pytest.mark.parametrize("where", [slice(None), slice(7, 8)])
def test_nan_step_matches_reference(spec10, at, max_iter, where):
    """A NaN in the inverse weights of sweep `at` (all of them, or one) gives
    a NaN update, as the first NaN of the step; the sweep cap then reports
    the best update before it (inf where there was none), and a sweep past
    it raises the same domain error at the same sweep."""

    def poison(r):
        r[where] = np.nan
        return r

    x = uniform_grid(spec10, 20).nodes
    expected = _assert_lone_matches(
        lambda: _Counted(ExactPowerMonitor(spec10, 0.5), at, poison), x, 1e-12, max_iter)
    if max_iter == at:
        (_, sweeps, update, message), = expected
        assert sweeps == at and message.startswith(f"no convergence after {at} sweeps")
        assert (update == _bits(np.inf)) == (at == 1)
    else:
        assert expected[0] is not MonotonicityError and expected[2] == at + 1


@pytest.mark.parametrize("alphas, betas, max_iter", [
    ([2.0, 2.0], [0.25, 2.0], 10000),            # converges at 4, then alone to 109
    ([421.696503, 1.333521], [1.0, 1.0], 10000),  # cycles at 142; the other alone to its
                                                  # cycle at 153, found by the record saved
                                                  # at sweep 128 in the stack
    ([1000.0, 10.0], [0.75, 1.0], 200),           # cycles at 142; the other capped alone
])
def test_two_rows_each_give_what_they_give_alone(spec10, alphas, betas, max_iter):
    """A two-row stack whose rows leave at different sweeps: the last is
    handed to the lone loop with its record, and each row's result is the
    reference's for the stack and for that row on its own."""
    n_cells, tol = 20, 1e-12
    sol = solve_bvp(uniform_grid(spec10, n_cells), spec10)
    x = np.repeat(sol.grid.nodes[None], 2, axis=0)
    values = np.repeat(sol.values[None], 2, axis=0)

    def stacked():
        return _Counted(DiscreteGradientMonitor._trusted(alphas, betas, x, values))

    got = _outcome(sweep_rows, stacked, x, tol, max_iter)
    assert got == _outcome(_reference_sweep_rows, stacked, x, tol, max_iter)
    for row, alpha, beta in zip(got, alphas, betas):
        alone, = _assert_lone_matches(_gradient(spec10, n_cells, alpha, beta), x[0], tol,
                                      max_iter)
        assert row == alone
    assert got[0][1] < got[1][1]


@pytest.mark.parametrize("at, hit, row", [
    (1, [0, 1], 0),  # both rows collide in the stack: the first is named
    (1, [1], 1),
    (5, [1], 1),     # row 0 left at sweep 4: row 1 collides in the lone loop
])
def test_a_collision_names_its_row(spec10, at, hit, row):
    """MonotonicityError.row is the first row that collided, by its place in
    the stack sweep_rows started with, also once the last row sweeps alone:
    the caller blames that row's parameters."""
    n_cells = 20
    sol = solve_bvp(uniform_grid(spec10, n_cells), spec10)
    x = np.repeat(sol.grid.nodes[None], 2, axis=0)
    monitor = DiscreteGradientMonitor._trusted([2.0, 2.0], [0.25, 2.0], x,
                                               np.repeat(sol.values[None], 2, axis=0))
    calls = []

    class Hit(MonitorFunction):
        """monitor's inverse weights, those of sweep `at` zeroed in the first
        cell of the rows hit, counted across rows(keep)."""

        def __init__(self, inner, rows):
            self.inner, self.rows_left = inner, rows

        def inverse_weights(self, nodes):
            calls.append(nodes.shape)
            r = self.inner.inverse_weights(nodes)
            if len(calls) == at:
                for i, left in enumerate(self.rows_left):
                    if left in hit:
                        r[(i, 0) if r.ndim == 2 else 0] = 0.0
            return r

        def rows(self, keep):
            return Hit(self.inner.rows(keep), [self.rows_left[i] for i in keep])

    with pytest.raises(MonotonicityError, match=f"after sweep {at}$") as err:
        sweep_rows(Hit(monitor, [0, 1]), x, 1e-12, 10000)
    assert err.value.row == row
    assert calls[-1] == ((n_cells + 1,) if at > 4 else (2, n_cells + 1))
