"""Every check that rejects a parameter, or a combination of parameters,
raises ParameterError blaming them, and the CLI turns that into exit 2
naming the flags.  One property test draws the inputs of a solve sweep
over lam and ell in three of the four grid modes; equidistributed mode
is left out while its monitor values can still underflow (a numerical
failure, exit 1).  Another draws lam, a derivative's order, x and
Dirichlet data, non-finite ones included, for exact_derivative and
solve_dirichlet."""

import contextlib
import io
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equifd import (
    AdaptiveConfig,
    DiscreteGradientMonitor,
    ExactPowerMonitor,
    GridMapping,
    ParameterError,
    ProblemSpec,
    adaptive_solve,
    analytic_mapped_grid,
    exact_derivative,
    exact_solution,
    solve_bvp,
    solve_dirichlet,
    uniform_grid,
)
from equifd.cli import main
from equifd.experiments import solve_single
from equifd.problem import LAM_MAX, require, require_count


def _solve_uniform(lam, ell, n_cells=20):
    spec = ProblemSpec(lam, ell)
    return solve_bvp(uniform_grid(spec, n_cells), spec)


# a call, the message it raises (unchanged from the hand-written tails it
# replaces), and the parameters it blames, in the message's order
RAISE_SITES = [
    (lambda: require("tol", -1.0, 0.0, strict=True),
     "tol must be finite and > 0, got -1.0", {"tol": -1.0}),
    (lambda: require_count("n_cells", 20.0, 2),
     "n_cells must be an integer, got 20.0", {"n_cells": 20.0}),
    (lambda: ProblemSpec(1e15, 1e300),
     "lam*ell must be finite and >= 0, got inf", {"lam": 1e15, "ell": 1e300}),
    (lambda: uniform_grid(ProblemSpec(10.0, 5e-324), 20),
     "ell is too small for 20 distinct steps, so uniform nodes collide "
     "(ell=5e-324, n_cells=20)", {"ell": 5e-324, "n_cells": 20}),
    (lambda: GridMapping(ProblemSpec(1e-200, 1e300), 0.25).check_layer_width(),
     "the layer width 1/(beta*lam) is below one ulp of ell, so the mapped nodes collapse "
     "onto ell (lam=1e-200, ell=1e+300, beta=0.25)", {"lam": 1e-200, "ell": 1e300, "beta": 0.25}),
    (lambda: analytic_mapped_grid(GridMapping(ProblemSpec(10.0, 1e-15), 0.25), 20),
     "beta*lam*ell = 2.5000000000000004e-15 is too small for the mapping to resolve 20 cells, "
     "so mapped nodes collide (lam=10.0, ell=1e-15, beta=0.25, n_cells=20)",
     {"lam": 10.0, "ell": 1e-15, "beta": 0.25, "n_cells": 20}),
    (lambda: _solve_uniform(10.0, 1e-320),
     "grid steps too small: the scheme's coefficients overflow (ell=1e-320, n_cells=20)",
     {"ell": 1e-320, "n_cells": 20}),
    (lambda: _solve_uniform(1e-310, 1e300),
     "scheme row underflows: diagonal 0.0 below 1e-300 where lam**2 and 1/h**2 underflow "
     "(lam=1e-310, ell=1e+300, n_cells=20)", {"lam": 1e-310, "ell": 1e300, "n_cells": 20}),
    (lambda: ExactPowerMonitor(ProblemSpec(1e10, 1e-20), 1e300),
     "beta*lam and beta*ln(lam) must be finite, got beta=1e+300, lam=10000000000.0",
     {"beta": 1e300, "lam": 1e10}),
    (lambda: adaptive_solve(ProblemSpec(1e100, 1.0), 20, AdaptiveConfig(alpha=1e308, beta=2.0)),
     "monitor weights 1 + alpha*|u_x|**beta overflow (alpha=1e+308, beta=2.0)",
     {"alpha": 1e308, "beta": 2.0}),
    (lambda: exact_derivative(ProblemSpec(1e100, 1.0), 0.5, 4),
     "lam**order overflows: lam=1e+100, order=4", {"lam": 1e100, "order": 4}),
    (lambda: solve_dirichlet(uniform_grid(ProblemSpec(1.0, 1.0), 4), 1.0, math.inf, 1.0),
     "left_value must be finite, got inf", {"left_value": math.inf}),
    (lambda: exact_solution(ProblemSpec(10.0, 1.0), [0.5, 1.5, -0.5]),
     "x must lie in [0, 1.0]", {"x": -0.5}),
]


@pytest.mark.parametrize("call,message,params", RAISE_SITES,
                         ids=["require", "require_count", "lam_ell", "uniform_grid",
                              "layer_width", "mapped_nodes", "steps_too_small",
                              "row_underflow", "exact_power", "gradient_weights",
                              "derivative_power", "dirichlet_value", "domain"])
def test_each_check_blames_its_parameters(call, message, params):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning ahead of the error
        with pytest.raises(ParameterError) as info:
            call()
    assert str(info.value) == message
    assert list(info.value.params.items()) == list(params.items())
    assert isinstance(info.value, ValueError)
    copied = pickle.loads(pickle.dumps(info.value))
    assert str(copied) == message and copied.params == params


def test_gradient_monitor_blames_the_row_that_overflows():
    nodes = [[0.0, 1e-300, 1.0]] * 3
    values = [[0.0, 1.0, 1.0]] * 3
    with pytest.raises(ParameterError) as info:
        DiscreteGradientMonitor([1.0, 1e10, 0.0], [0.5, 2.0, 2.0], nodes, values)
    assert info.value.params == {"alpha": 1e10, "beta": 2.0}
    # alpha = 0 meets |u_x|**beta = inf in the last row: 0 * inf is NaN
    with pytest.raises(ParameterError) as info:
        DiscreteGradientMonitor([1.0, 0.0], [0.5, 2.0], nodes[:2], values[:2])
    assert info.value.params == {"alpha": 0.0, "beta": 2.0}


# lam and ell from the 400-run solve sweep, and any value in range
SWEEP = (1e-310, 1e-200, 1e-20, 1e-3, 1.0, 10.0, 1e3, 1e15, 1e100, 1e300)
LAMS = st.sampled_from(SWEEP) | st.floats(0.0, LAM_MAX, exclude_min=True, exclude_max=True)
ELLS = st.sampled_from(SWEEP) | st.floats(0.0, exclude_min=True, allow_infinity=False)
# the one warning the package gives on purpose: the mapped x(0) pinned to 0
PINNED = "exp(-beta*lam*ell) underflows"


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(lam=LAMS, ell=ELLS, mode=st.sampled_from(["uniform", "analytic", "adaptive"]))
def test_solve_exits_0_or_2_and_the_library_blames_only_parameters(tmp_path_factory, lam, ell,
                                                                    mode):
    out = tmp_path_factory.getbasetemp() / "boundary.csv"
    argv = ["solve", "--lambda", repr(lam), "--ell", repr(ell), "--grid", mode, "--n", "20",
            "--beta", "0.25", "--alpha", "10", "--out", str(out)]
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
    assert rc in (0, 2), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()
    assert [str(w.message) for w in caught if PINNED not in str(w.message)] == []
    assert len(caught) <= 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            solve_single(ProblemSpec(lam, ell), 20, mode, beta=0.25, alpha=10.0)
        except ParameterError as err:
            assert rc == 2
            assert set(err.params) <= {"lam", "ell", "beta", "alpha", "n_cells"}
        else:
            assert rc == 0


# lam over ProblemSpec's range, with subnormals and the values next to LAM_MAX
EDGE_LAMS = (5e-324, 1e-310, 2.0**511, math.nextafter(LAM_MAX, 0.0))
ANY_LAM = st.sampled_from(EDGE_LAMS) | st.floats(0.0, LAM_MAX, exclude_min=True, exclude_max=True)


# x in [0, ell] = [0, 1], next to it outside, and any float
ANY_X = (st.floats(0.0, 1.0) | st.sampled_from((-5e-324, math.nextafter(1.0, 2.0), math.nan))
         | st.floats())


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(lam=ANY_LAM, order=st.integers(1, 5), x=ANY_X, left=st.floats(), right=st.floats())
def test_library_returns_finite_values_or_blames_its_parameters(lam, order, x, left, right):
    """exact_derivative and solve_dirichlet on a small uniform grid return
    finite values with no warning, or raise ParameterError blaming only
    their own parameters; x, and the Dirichlet data, is any float, inf and
    NaN too."""
    spec = ProblemSpec(lam, 1.0)
    calls = [(lambda: exact_derivative(spec, x, order), {"lam", "order", "x"}),
             (lambda: solve_dirichlet(uniform_grid(spec, 4), lam, left, right),
              {"lam", "left_value", "right_value"})]
    for call, params in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                values = call()
            except ParameterError as err:
                assert set(err.params) <= params
            else:
                assert np.isfinite(values).all()
