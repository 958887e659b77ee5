"""Every check that rejects a parameter, or a combination of parameters,
raises ParameterError blaming them, and the CLI turns that into exit 2
naming the flags.  One property test draws the inputs of a solve sweep
over lam and ell in all four grid modes.  Another draws lam, a
derivative's order, x and Dirichlet data, non-finite ones included, for
exact_derivative and solve_dirichlet.  A third draws lam, ell and beta
for the smooth monitor ExactPowerMonitor, and a fourth draws bands that
solve_tridiagonal must reject."""

import contextlib
import io
import math
import pickle
import sys
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
    adaptive_solve_many,
    analytic_mapped_grid,
    equidist_defect,
    exact_derivative,
    exact_solution,
    solve_bvp,
    solve_dirichlet,
    solve_tridiagonal,
    uniform_grid,
)
from equifd.cli import main
from equifd.experiments import solve_single
from equifd.problem import LAM_MAX, require, require_count, smallest


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
    (lambda: solve_single(ProblemSpec(160.0, 1.0), 20, "equidistributed", beta=0.25),
     "(u_x)**beta varies too much over the cells to equidistribute them: neighbouring nodes "
     "collided after sweep 1 (lam=160.0, ell=1.0, beta=0.25, n_cells=20)",
     {"lam": 160.0, "ell": 1.0, "beta": 0.25, "n_cells": 20}),
    (lambda: adaptive_solve(ProblemSpec(1e6, 1.0), 20, AdaptiveConfig(alpha=10.0, beta=2.0)),
     "1 + alpha*|u_x|**beta varies too much over the cells to equidistribute them: neighbouring "
     "nodes collided after sweep 1 (lam=1000000.0, ell=1.0, n_cells=20, alpha=10.0, beta=2.0)",
     {"lam": 1e6, "ell": 1.0, "n_cells": 20, "alpha": 10.0, "beta": 2.0}),
]


@pytest.mark.parametrize("call,message,params", RAISE_SITES,
                         ids=["require", "require_count", "lam_ell", "uniform_grid",
                              "layer_width", "mapped_nodes", "steps_too_small",
                              "row_underflow", "exact_power", "gradient_weights",
                              "derivative_power", "dirichlet_value", "domain",
                              "equidistributed_collapse", "adaptive_collapse"])
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
    """The adaptive loop's stacked monitor blames the alpha and beta of
    the first row whose weights overflow."""
    nodes = np.array([[0.0, 1e-300, 1.0]] * 3)
    values = np.array([[0.0, 1.0, 1.0]] * 3)
    with pytest.raises(ParameterError) as info:
        DiscreteGradientMonitor._trusted([1.0, 1e10, 0.0], [0.5, 2.0, 2.0], nodes, values)
    assert info.value.params == {"alpha": 1e10, "beta": 2.0}
    # alpha = 0 meets |u_x|**beta = inf in the last row: 0 * inf is NaN
    with pytest.raises(ParameterError) as info:
        DiscreteGradientMonitor._trusted([1.0, 0.0], [0.5, 2.0], nodes[:2], values[:2])
    assert info.value.params == {"alpha": 0.0, "beta": 2.0}


def test_adaptive_collapse_blames_the_row_that_collided():
    """In a batch, the collapse blames the alpha and beta of the first row
    whose nodes collided at the sweep that raised, in the stack or, for
    the last row, in the lone loop; the rows that did not collide are
    not blamed."""
    spec = ProblemSpec(1e6, 1.0)
    for params, blamed in (([(2.0, 0.25), (1e4, 2.0), (0.5, 2.0)], (1e4, 2.0)),
                           ([(0.5, 2.0)], (0.5, 2.0))):
        configs = [AdaptiveConfig(alpha, beta) for alpha, beta in params]
        with pytest.raises(ParameterError) as info:
            adaptive_solve_many(spec, 20, configs)
        assert (info.value.params["alpha"], info.value.params["beta"]) == blamed
    # (2, 1/4) alone does not collide
    assert adaptive_solve(spec, 20, AdaptiveConfig(2.0, 0.25, max_outer=3)).outer_iterations == 3


# lam and ell from the 400-run solve sweep, and any value in range
SWEEP = (1e-310, 1e-200, 1e-20, 1e-3, 1.0, 10.0, 1e3, 1e15, 1e100, 1e300)
LAMS = st.sampled_from(SWEEP) | st.floats(0.0, LAM_MAX, exclude_min=True, exclude_max=True)
ELLS = st.sampled_from(SWEEP) | st.floats(0.0, exclude_min=True, allow_infinity=False)
# the one warning the package gives on purpose: the mapped x(0) pinned to 0
PINNED = "exp(-beta*lam*ell) underflows"


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(lam=LAMS, ell=ELLS,
       mode=st.sampled_from(["uniform", "analytic", "adaptive", "equidistributed"]))
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


# subnormal, ordinary and near-overflow values, and any positive float
MAGNITUDES = (st.sampled_from((5e-324, 1e-310, 1e-200, 1e-3, 0.25, 1.0, 10.0, 1e3, 1e100, 1e300,
                               sys.float_info.max))
              | st.floats(0.0, exclude_min=True, allow_infinity=False))


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(lam=ANY_LAM, ell=MAGNITUDES, beta=st.just(0.0) | MAGNITUDES)
def test_exact_power_monitor_returns_finite_weights_or_blames_its_parameters(lam, ell, beta):
    """An ExactPowerMonitor is built, or raises ParameterError blaming beta
    and lam.  On the uniform grid, its weights, inverse weights and the
    grid's equidistribution defect are each finite, or the call raises
    ParameterError blaming lam, ell and beta; none warns, and a monitor
    _in_range returns all three.  The weights are positive; the inverse
    weights lie in [0, 1] with 1 first, as a ratio past the double range
    underflows to 0; the defect is >= 0, 0 where the weights are equal."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            spec = ProblemSpec(lam, ell)
            grid = uniform_grid(spec, 8)
        except ParameterError:
            return  # rejected ahead of the monitor, as the sites above test
        try:
            monitor = ExactPowerMonitor(spec, beta)
        except ParameterError as err:
            assert list(err.params) == ["beta", "lam"]
            return
        checks = [(monitor.interval_weights, lambda w: smallest(w > 0.0)),
                  (monitor.inverse_weights, lambda v: v.item(0) == 1.0 and smallest(v >= 0.0)),
                  (lambda nodes: equidist_defect(grid, monitor), lambda d: d >= 0.0)]
        for call, holds in checks:
            try:
                values = np.asarray(call(grid.nodes))
            except ParameterError as err:
                assert not monitor._in_range
                assert list(err.params) == ["lam", "ell", "beta"]
            else:
                assert smallest(np.isfinite(values)) and holds(values), call


BANDS = ("lower", "diag", "upper", "rhs")


@st.composite
def rejected_systems(draw):
    """Bands of a system solve_tridiagonal rejects, and the message it must
    raise: mismatched lengths, no unknown, a NaN or inf entry, or finite
    bands whose row sums overflow."""
    kind = draw(st.sampled_from(["lengths", "empty", "nonfinite", "overflow"]))
    n = draw(st.integers(2 if kind == "overflow" else 1, 6))
    sizes = {"lower": n - 1, "diag": n, "upper": n - 1, "rhs": n}
    entries = st.floats(-1e3, 1e3)
    if kind == "empty":
        sizes = dict.fromkeys(BANDS, 0)
        message = "system must have at least one unknown"
    elif kind == "lengths":
        name = draw(st.sampled_from(BANDS))
        least = 1 if name == "diag" else 0  # no diag at all is the empty case
        sizes[name] = draw(st.integers(least, n + 2).filter(lambda k: k != sizes[name]))
        message = "inconsistent band lengths: diag "
    elif kind == "overflow":
        entries = st.floats(9e307, 1.7976931348623157e308)
        message = "the row sums diag + lower + upper overflow"
    bands = {name: draw(st.lists(entries, min_size=size, max_size=size))
             for name, size in sizes.items()}
    if kind == "overflow":
        sign = draw(st.sampled_from([-1.0, 1.0]))
        bands = {name: [sign * v for v in values] for name, values in bands.items()}
    elif kind == "nonfinite":
        name = draw(st.sampled_from(BANDS if n > 1 else ("diag", "rhs")))
        index = draw(st.integers(0, sizes[name] - 1))
        bands[name][index] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        message = f"{name} must be finite"
    return bands, message


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(case=rejected_systems())
def test_solve_tridiagonal_rejects_bad_bands_by_name(case):
    """Each rejected system raises a ValueError that names the band, the
    lengths or the row sums, with no numpy warning ahead of it."""
    bands, message = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            solve_tridiagonal(**bands)
    assert str(info.value).startswith(message)
