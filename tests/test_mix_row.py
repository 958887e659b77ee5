"""The Anderson-mixed loop of the smooth monitor against the plain sweeps.

equidistribute runs equidist._mix_row for an ExactPowerMonitor and
equidist._sweep_row for every other monitor.  Both solve the same
equations from the same start, so they must end the same way (converged,
stalled, or collided at the same sweep) and, where both converge, on the
same grid to within a small multiple of tol.
"""

import numpy as np
import pytest

from equifd import (EquidistributionError, ExactPowerMonitor, MonotonicityError, ProblemSpec,
                    equidistribute, uniform_grid)
from equifd import equidist
from equifd.equidist import _mix_row, _sweep_row

SMOOTH_SWEEPS = {(0.25, 640): 14, (0.25, 2560): 14, (0.25, 5120): 14,
                 (0.5, 640): 21, (0.5, 2560): 20, (0.5, 5120): 20}


def _ending(loop, monitor, x, tol):
    """How loop ends from x: ("converged" or "stalled", nodes, sweeps, the
    stall's message), or ("collided", None, None, the error's message)."""
    try:
        nodes, sweeps, _, message = loop(monitor, x, tol, 10000)
    except MonotonicityError as err:
        return "collided", None, None, str(err)
    return ("converged" if message is None else "stalled"), nodes, sweeps, message


CASES = [(ProblemSpec(lam_ell, 1.0), beta, n_cells, 1e-12)
         for beta in (0.125, 0.25, 0.5, 2.0, 8.0)
         for lam_ell in (1.0, 10.0, 20.0)
         for n_cells in (10, 20, 200)]
# the span past half the double range; one next to the largest double, where a mix
# overflows and is replaced by the plain step; and a tiny span with its weights near
# the range's ends
CASES += [(ProblemSpec(1e-308, 1.5e308), 0.25, 20, 1e-12),
          (ProblemSpec(10.0 / 1.79e308, 1.79e308), 1.0, 10, 1e-12),
          (ProblemSpec(3e38, 5e-39), 8.0, 10, 1e-12 * 5e-39)]


@pytest.mark.parametrize("spec, beta, n_cells, tol", CASES)
def test_mixing_ends_as_the_plain_sweeps(spec, beta, n_cells, tol):
    monitor = ExactPowerMonitor(spec, beta)
    x = uniform_grid(spec, n_cells).nodes
    mixed, plain = _ending(_mix_row, monitor, x, tol), _ending(_sweep_row, monitor, x, tol)
    assert mixed[0] == plain[0]
    if mixed[0] == "collided":
        assert mixed[3] == plain[3] == "neighbouring nodes collided after sweep 1"
    elif mixed[0] == "converged":
        assert np.max(np.abs(mixed[1] - plain[1])) <= 1e-11 * spec.ell
        assert mixed[2] <= plain[2]


@pytest.fixture
def handoffs(monkeypatch):
    """The sweeps at which _mix_row hands its best iterate to _sweep_row."""
    calls = []
    sweep_row = equidist._sweep_row

    def spy(monitor, x, tol, max_iter, row=None, it=0):
        calls.append(it)
        return sweep_row(monitor, x, tol, max_iter, row, it)

    monkeypatch.setattr(equidist, "_sweep_row", spy)
    return calls


@pytest.mark.parametrize("beta, n_cells", sorted(SMOOTH_SWEEPS))
def test_smooth_equidist_sweeps(spec10, handoffs, beta, n_cells):
    """The smooth_equidist benchmark's six cases: their sweep counts, no
    hand-off to the plain sweeps, and the plain sweeps' grid to 1e-12."""
    monitor = ExactPowerMonitor(spec10, beta)
    res = equidistribute(monitor, spec10, n_cells)
    assert res.iterations == SMOOTH_SWEEPS[(beta, n_cells)] and handoffs == []
    plain, _, _, message = _sweep_row(monitor, uniform_grid(spec10, n_cells).nodes, 1e-12, 10000)
    assert message is None
    assert np.max(np.abs(res.grid.nodes - plain)) <= 1e-12 * spec10.ell


@pytest.mark.parametrize("lam, beta", [(20.0, 0.5), (100.0, 0.25)])
def test_the_spurious_grids_need_no_hand_off(handoffs, lam, beta):
    spec = ProblemSpec(lam, 1.0)
    equidistribute(ExactPowerMonitor(spec, beta), spec, 200)
    assert handoffs == []


@pytest.mark.parametrize("beta", [0.25, 0.125])
def test_a_stall_is_handed_to_the_plain_sweeps(spec10, handoffs, beta):
    """Below the roundoff floor no update can reach tol: after three sweeps
    with no new best the mixed loop hands its best iterate on, and the
    plain sweeps damp it to the floor and stop on a cycle there, with the
    best update the plain sweeps alone reach.  At beta = 1/8 two sweeps
    in a row give the same step on the way, so a kept difference is 0, and
    the steps taken while it is kept are plain."""
    monitor = ExactPowerMonitor(spec10, beta)
    x = uniform_grid(spec10, 20).nodes
    with pytest.raises(EquidistributionError, match="at the damping floor") as err:
        equidistribute(monitor, spec10, 20, tol=1e-300)
    assert len(handoffs) == 1 and handoffs[0] < err.value.iterations
    _, _, update, message = _sweep_row(monitor, x, 1e-300, 10000)
    assert "at the damping floor" in message and err.value.final_update == update
    # at the sweep cap there is nothing to hand on: the run stops there
    cap = handoffs[0]
    with pytest.raises(EquidistributionError, match=f"^no convergence after {cap} sweeps") as err:
        equidistribute(monitor, spec10, 20, tol=1e-300, max_iter=cap)
    assert err.value.iterations == cap and len(handoffs) == 1
