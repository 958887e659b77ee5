import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equifd import (
    ConstantMonitor,
    DiscreteGradientMonitor,
    ExactPowerMonitor,
    MonitorFunction,
    ProblemSpec,
    ScaledMonitor,
    solve_bvp,
    uniform_grid,
)
from equifd.equidist import equidistribute, sweep_rows
from equifd.experiments import TABLE2_ALPHAS, TABLE2_BETAS
from equifd.problem import ParameterError, smallest
from conftest import random_grid

ORACLE_BETAS = (0.0, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0)
ORACLE_LAMS = (1e-3, 1.0, 10.0, 1e3)


def midpoints(nodes):
    return 0.5 * (nodes[:-1] + nodes[1:])


def pow_form(spec, beta, nodes):
    """ExactPowerMonitor.interval_values as it was before the closed form:
    exp, a scale multiply by lam, then pow."""
    with np.errstate(over="ignore"):
        return (spec.lam * np.exp(spec.lam * (midpoints(nodes) - spec.ell))) ** beta


def closed_form(spec, beta, nodes):
    with np.errstate(over="ignore"):
        return ExactPowerMonitor(spec, beta).interval_values(nodes)


def oracle_misses(spec, beta, mid, values) -> list:
    """Midpoints where values is off (lam e^{lam(m - ell)})^beta, taken in
    high precision at the float midpoint m, by more than the rounding bound
    2*(|beta lam (m - ell)| + |beta ln lam| + 2) * 2^-52 relative (six
    roundings: ln, two products, difference, sum, exp) plus one subnormal
    ulp absolute."""
    misses = []
    with mpmath.workprec(256):
        lam = mpmath.mpf(spec.lam)
        for m, got in zip(mid.tolist(), values.tolist()):
            exact = (lam * mpmath.exp(lam * (mpmath.mpf(m) - spec.ell))) ** beta
            bound = 2.0 * (abs(beta * spec.lam * (m - spec.ell))
                           + abs(beta * math.log(spec.lam)) + 2.0) * 2.0**-52
            if not abs(mpmath.mpf(got) - exact) <= bound * exact + 2.0**-1074:
                misses.append((m, got, float(exact)))
    return misses


def test_constant_values(spec10):
    g = uniform_grid(spec10, 5)
    assert np.array_equal(ConstantMonitor().interval_values(g.nodes), np.ones(5))


def test_exact_power_midpoint_sampling(spec10):
    g = uniform_grid(spec10, 4)
    vals = ExactPowerMonitor(spec10, 0.25).interval_values(g.nodes)
    expected = np.exp(0.25 * 10.0 * (midpoints(g.nodes) - 1.0) + 0.25 * math.log(10.0))
    assert np.array_equal(vals, expected)


def oracle_nodes(ell, n=80):
    """n uniform cells plus n nodes piling up geometrically at ell."""
    near_ell = ell * (1.0 - np.geomspace(1e-12, 0.5, n))
    return np.unique(np.concatenate([np.linspace(0.0, ell, n + 1), near_ell]))


@pytest.mark.parametrize("lam", ORACLE_LAMS)
@pytest.mark.parametrize("beta", ORACLE_BETAS)
def test_exact_power_against_oracle(lam, beta):
    spec = ProblemSpec(lam, 1.0)
    nodes = oracle_nodes(spec.ell)
    assert oracle_misses(spec, beta, midpoints(nodes), closed_form(spec, beta, nodes)) == []


def frozen_node_sets(ell):
    rng = np.random.default_rng(2024)
    yield oracle_nodes(ell, 10)
    yield ell * np.array([0.0, 0.5, 1.0 - 1e-9, 1.0])
    for _ in range(3):
        yield np.sort(rng.uniform(0.0, ell, 8))


def test_exact_power_passes_wherever_pow_form_did():
    """Every node set whose pow-form values are all finite and positive
    gets finite, positive values within the oracle bound from the closed
    form too."""
    checked = 0
    for lam in (*ORACLE_LAMS, 1e-300, 1e5, 2.0**511):
        for ell in (1.0, 1e-3):
            spec = ProblemSpec(lam, ell)
            for beta in (*ORACLE_BETAS, 8.0):
                for nodes in frozen_node_sets(ell):
                    old = pow_form(spec, beta, nodes)
                    if not (np.isfinite(old).all() and (old > 0.0).all()):
                        continue
                    checked += 1
                    new = closed_form(spec, beta, nodes)
                    assert np.isfinite(new).all() and (new > 0.0).all()
                    assert oracle_misses(spec, beta, midpoints(nodes), new) == []
    assert checked > 100


def test_exact_power_positive_where_pow_form_underflowed():
    """For beta < 1 the closed form stays positive where lam e^{lam(x-ell)}
    itself underflows to 0: at x = 0.2 for lam = 1e3, e^{-800} = 0."""
    spec = ProblemSpec(1e3, 1.0)
    nodes = np.array([0.0, 0.4, 1.0])  # first midpoint 0.2
    assert pow_form(spec, 0.25, nodes)[0] == 0.0
    new = ExactPowerMonitor(spec, 0.25).interval_values(nodes)
    assert new[0] > 0.0
    assert oracle_misses(spec, 0.25, midpoints(nodes), new) == []


def test_exact_power_rejects_nonfinite_exponent_terms():
    # beta*lam overflows
    with pytest.raises(ValueError, match=r"beta=1e\+300, lam=10000000000\.0"):
        ExactPowerMonitor(ProblemSpec(1e10, 1e-20), 1e300)
    # beta*ln(lam) overflows while beta*lam does not
    with pytest.raises(ValueError, match=r"beta=1e\+307, lam=1e-300"):
        ExactPowerMonitor(ProblemSpec(1e-300, 1.0), 1e307)


# lam = 10^e spans the small, moderate and layer regimes; x = 1 - t^8 puts
# many nodes close to ell, where a large lam leaves values that do not underflow
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(log_lam=st.floats(-8.0, 8.0), beta=st.floats(0.0, 8.0),
       nodes=st.lists(st.floats(0.0, 1.0).map(lambda t: 1.0 - t**8), min_size=2,
                      max_size=12).map(sorted))
def test_exact_power_property_against_pow_form(log_lam, beta, nodes):
    """Wherever the pow form is finite and positive, so is the closed form,
    within the oracle bound."""
    spec = ProblemSpec(10.0**log_lam, 1.0)
    nodes = np.array(nodes)
    old = pow_form(spec, beta, nodes)
    new = closed_form(spec, beta, nodes)
    kept = np.isfinite(old) & (old > 0.0)
    assert np.isfinite(new[kept]).all() and (new[kept] > 0.0).all()
    assert oracle_misses(spec, beta, midpoints(nodes)[kept], new[kept]) == []


def test_exact_power_beta_zero_is_constant(spec10):
    g = uniform_grid(spec10, 6)
    assert np.allclose(ExactPowerMonitor(spec10, 0.0).interval_values(g.nodes), 1.0)


def test_discrete_gradient_on_own_grid(spec10):
    sol = solve_bvp(uniform_grid(spec10, 10), spec10)
    mon = DiscreteGradientMonitor(2.0, 0.5, sol.grid.nodes, sol.values)
    slopes = np.abs(np.diff(sol.values)) / np.diff(sol.grid.nodes)
    assert np.array_equal(mon.interval_values(sol.grid.nodes), 1.0 + 2.0 * slopes**0.5)


def test_discrete_gradient_lookup_off_grid():
    nodes = np.array([0.0, 0.5, 1.0])
    values = np.array([0.0, 1.0, 1.5])  # slopes 2.0 and 1.0
    mon = DiscreteGradientMonitor(1.0, 1.0, nodes, values)
    # query midpoints 0.1 and 0.8 fall in the first and second solution interval
    assert np.array_equal(mon.interval_values(np.array([0.0, 0.2])), [3.0])
    assert np.array_equal(mon.interval_values(np.array([0.6, 1.0])), [2.0])


def test_discrete_gradient_lookup_matches_clipped_search():
    """The interior-breakpoint search picks the interval the clipped
    full-node search picked, for queries inside and outside [0, ell]."""
    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 40):
        nodes = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2.0, n - 1)), [2.0]])
        mon = DiscreteGradientMonitor(1.0, 1.0, nodes, rng.standard_normal(n + 1))
        query = np.sort(np.concatenate([rng.uniform(-1.0, 3.0, 200), nodes]))
        mid = 0.5 * (query[:-1] + query[1:])
        k = np.clip(np.searchsorted(nodes, mid, side="right") - 1, 0, n - 1)
        own = mon.interval_values(nodes)  # the weights on the monitor's own grid
        assert np.array_equal(mon.interval_values(query), own[k])


def test_discrete_gradient_positive(spec10):
    sol = solve_bvp(uniform_grid(spec10, 20), spec10)
    mon = DiscreteGradientMonitor(1e4, 2.0, sol.grid.nodes, sol.values)
    vals = mon.interval_values(sol.grid.nodes)
    assert np.all(vals >= 1.0)
    assert np.all(np.isfinite(vals))


def test_scaled_monitor(spec10):
    g = uniform_grid(spec10, 5)
    base = ExactPowerMonitor(spec10, 0.25)
    assert np.array_equal(ScaledMonitor(base, 3.5).interval_values(g.nodes),
                          3.5 * base.interval_values(g.nodes))
    with pytest.raises(ValueError):
        ScaledMonitor(base, 0.0)


def test_parameter_validation(spec10):
    with pytest.raises(ValueError):
        ExactPowerMonitor(spec10, -1.0)
    with pytest.raises(ValueError):
        DiscreteGradientMonitor(-1.0, 1.0, [0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        DiscreteGradientMonitor(1.0, -1.0, [0.0, 1.0], [0.0, 1.0])
    # NaN passes a plain `< 0` test and inf is no exponent or weight either
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="beta"):
            ExactPowerMonitor(spec10, bad)
        with pytest.raises(ValueError, match="alpha"):
            DiscreteGradientMonitor(bad, 1.0, [0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="beta"):
            DiscreteGradientMonitor(1.0, bad, [0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError, match="factor"):
        ScaledMonitor(ConstantMonitor(), np.inf)


def test_gradient_monitor_rejects_unequal_shapes():
    # nodes [0, .5, 1] and values [0, 1] used to broadcast to weights [3, 3]
    with pytest.raises(ValueError, match="nodes and values"):
        DiscreteGradientMonitor(1.0, 1.0, [0.0, 0.5, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError, match="nodes and values"):
        DiscreteGradientMonitor([1.0], [1.0], [[0.0, 0.5, 1.0]], [0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match="nodes and values"):
        DiscreteGradientMonitor(1.0, 1.0, [0.0], [0.0])


def test_gradient_monitor_takes_one_grid():
    """A stack of grids is no grid: only the adaptive loop builds a monitor
    on a stack, through DiscreteGradientMonitor._trusted."""
    nodes, values = np.tile([0.0, 0.5, 1.0], (3, 1)), np.zeros((3, 3))
    for alpha, beta in ((1.0, 1.0), ([1.0] * 3, [1.0] * 3)):
        with pytest.raises(ValueError, match=r"^nodes and values must be one grid, of one "
                                             r"shape, got \(3, 3\) and \(3, 3\)$"):
            DiscreteGradientMonitor(alpha, beta, nodes, values)


@pytest.mark.parametrize("nodes", [[0.0, 1.0, 0.5], [0.0, 0.5, 0.5], [0.0, np.nan, 1.0]])
def test_gradient_monitor_rejects_nodes_not_strictly_increasing(nodes):
    # decreasing nodes used to give weight -1, a repeated one inf and a RuntimeWarning
    with pytest.raises(ValueError, match="nodes must be strictly increasing"):
        DiscreteGradientMonitor(1.0, 1.0, nodes, [0.0, 1.0, 1.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gradient_monitor_rejects_values_not_finite(bad):
    # with beta = 0 a non-finite slope would give the finite weight 1 + alpha;
    # two equal infinities are rejected before their difference warns
    for beta in (0.0, 1.0):
        for values in ([0.0, bad, 1.0], [bad, bad, 1.0]):
            with pytest.raises(ValueError, match="values must be finite"):
                DiscreteGradientMonitor(1.0, beta, [0.0, 0.5, 1.0], values)


def _stack(rng, rows, n_cells):
    nodes = np.array([random_grid(rng, n_cells).nodes for _ in range(rows)])
    return nodes, rng.random((rows, n_cells + 1))


def test_stacked_monitor_rows_match_one_grid_monitors_bit_for_bit():
    """Every table2 beta in an unsorted stack, so equal betas fall in
    several runs; each row weighs both grids as its own one-grid monitor."""
    rng = np.random.default_rng(17)
    betas = [beta for _ in range(2) for beta in TABLE2_BETAS]
    rng.shuffle(betas)
    alphas = [float(alpha) for alpha in rng.choice(TABLE2_ALPHAS, len(betas))]
    nodes, values = _stack(rng, len(betas), 20)
    query = _stack(rng, len(betas), 20)[0]
    stacked = DiscreteGradientMonitor._trusted(alphas, betas, nodes, values)
    for q in (nodes, query):
        got = stacked.interval_values(q)
        for row, (a, b) in enumerate(zip(alphas, betas)):
            one = DiscreteGradientMonitor(a, b, nodes[row], values[row])
            assert got[row].tobytes() == one.interval_values(q[row]).tobytes()


def test_stacked_monitor_rows_keeps_the_rows_given():
    rng = np.random.default_rng(19)
    nodes, values = _stack(rng, 5, 12)
    query = _stack(rng, 5, 12)[0]
    monitor = DiscreteGradientMonitor._trusted([1.0, 2.0, 3.0, 4.0, 5.0], [0.5] * 5, nodes,
                                               values)
    full = monitor.interval_values(query)
    for keep in ([0, 2, 4], [3], [4, 1]):
        assert np.array_equal(monitor.rows(keep).interval_values(query[keep]), full[keep])
    assert np.array_equal(monitor.rows([1, 3]).rows([1]).interval_values(query[3]), full[3])


def test_rows_of_a_one_grid_monitor_is_a_value_error():
    """A monitor of one grid, from the public constructor or from _trusted,
    has no rows to keep: rows says so, where it met a missing attribute."""
    rng = np.random.default_rng(23)
    nodes, values = _stack(rng, 1, 12)
    for monitor in (DiscreteGradientMonitor(1.0, 0.5, nodes[0], values[0]),
                    DiscreteGradientMonitor._trusted([1.0], [0.5], nodes[0], values[0])):
        with pytest.raises(ValueError, match="rows needs a stacked monitor"):
            monitor.rows([0])


@pytest.mark.parametrize("rows", [1, 2, 9])
def test_each_stacked_sweep_makes_one_searchsorted(rows):
    """The monitor looks a stack up in one searchsorted, whatever its row
    count, where it made one per row."""
    nodes, values = _stack(np.random.default_rng(rows), rows, 20)
    monitor = DiscreteGradientMonitor._trusted([2.0] * rows, [0.25] * rows, nodes, values)
    calls = []

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", None) == "searchsorted":
            calls.append(arg)

    sys.setprofile(profile)
    try:
        out = sweep_rows(monitor, nodes, 0.0, 6)
    finally:
        sys.setprofile(None)
    assert [sweeps for _, sweeps, _, _ in out] == [6] * rows
    assert len(calls) == 6


def test_stacked_query_at_infinite_and_nan_nodes():
    """Infinite midpoints land in the end intervals; a NaN midpoint lies in
    no interval and raises a ValueError naming the nodes, on one grid (which
    took the last interval's weight) and on a stack (a bare IndexError)."""
    rng = np.random.default_rng(29)
    nodes, values = _stack(rng, 3, 6)
    stacked = DiscreteGradientMonitor._trusted([1.0] * 3, [0.5] * 3, nodes, values)
    query = nodes.copy()
    query[:, 0], query[:, -1] = -np.inf, np.inf
    assert np.array_equal(stacked.interval_values(query), stacked.interval_values(nodes))
    one = DiscreteGradientMonitor(1.0, 0.5, nodes[1], values[1])
    assert np.array_equal(one.interval_values(query[1]), one.interval_values(nodes[1]))
    query[1, 3] = np.nan
    for monitor, q in ((stacked, query), (stacked.rows([2, 1]), query[[2, 1]]),
                       (one, query[1]), (one, query[1:2]), (stacked.rows([1]), query[1]),
                       (stacked.rows([0, 1]).rows([1]), query[1:2])):
        with pytest.raises(ValueError, match="query nodes give a NaN midpoint"):
            monitor.interval_values(q)
    x = np.linspace(0.0, 1.0, 5)
    q = x.copy()
    q[2] = np.nan  # gave [1.25, 2.75, 2.75, 2.75]
    with pytest.raises(ValueError, match="query nodes give a NaN midpoint"):
        DiscreteGradientMonitor(1.0, 1.0, x, x**2).interval_values(q)


def test_one_row_monitor_answers_a_one_grid_query():
    rng = np.random.default_rng(23)
    nodes, values = _stack(rng, 1, 15)
    query = random_grid(rng, 9).nodes
    one = DiscreteGradientMonitor(2.0, 0.25, nodes[0], values[0])
    stacked = DiscreteGradientMonitor._trusted([2.0], [0.25], nodes, values)
    assert np.array_equal(stacked.interval_values(query), one.interval_values(query))
    assert np.array_equal(stacked.interval_values(query[None]), [one.interval_values(query)])
    two = DiscreteGradientMonitor._trusted([2.0, 2.0], [0.25, 0.25], np.vstack([nodes, nodes]),
                                           np.vstack([values, values]))
    for wrong in (query, query[None]):  # a monitor on two grids takes two
        with pytest.raises(ValueError, match="holds 2 grids, got 1"):
            two.interval_values(wrong)


def test_gradient_monitor_midpoints_past_half_the_double_range():
    """Midpoints of nodes past max/2 are halved first, so they stay finite
    and land in their own interval: 0.5*(1e308 + 1.5e308) overflowed to inf
    and looked up the last interval."""
    nodes = np.array([[0.0, 1.4e308, 1.5e308], [0.0, 0.5e308, 1.5e308]])
    values = np.array([[0.0, 1.4e308, 1.6e308], [0.0, 1.5e308, 1.6e308]])
    stacked = DiscreteGradientMonitor._trusted([1.0, 1.0], [1.0, 1.0], nodes, values)
    query = np.array([[0.0, 1e308, 1.5e308]] * 2)
    one = [DiscreteGradientMonitor(1.0, 1.0, n, v).interval_values(q)
           for n, v, q in zip(nodes, values, query)]
    assert np.array_equal(one[0], [2.0, 2.0])  # slopes 1 and 2; both midpoints in the first
    assert np.array_equal(stacked.interval_values(query), one)


class _Quadratic(MonitorFunction):
    """1 + m**2 at the midpoints m of one grid, with bad, if given, at
    position index, or a wrong count of weights for bad = "length"."""

    def __init__(self, bad=None, index=0):
        self.bad, self.index = bad, index

    def interval_values(self, nodes):
        w = 1.0 + midpoints(nodes) ** 2
        if self.bad == "length":
            return w[:-1]
        if self.bad is not None:
            w[self.index] = self.bad
        return w


def _contract_monitors():
    """A monitor of every kind, each serving one grid: the gradient monitor
    built on one grid, and the adaptive loop's on a stack of one and as
    one row of a stack."""
    rng = np.random.default_rng(31)
    spec = ProblemSpec(10.0, 1.0)
    nodes, values = _stack(rng, 3, 16)
    base = [("constant", ConstantMonitor()), ("power", ExactPowerMonitor(spec, 0.25)),
            ("gradient", DiscreteGradientMonitor(2.0, 0.5, nodes[0], values[0])),
            ("gradient-stack-of-one", DiscreteGradientMonitor._trusted([2.0], [0.5], nodes[:1],
                                                                       values[:1])),
            ("gradient-row-of-stack", DiscreteGradientMonitor._trusted(
                [1.0, 2.0, 3.0], [0.5, 2.0, 0.25], nodes, values).rows([1])),
            ("subclass", _Quadratic())]
    monitors = base + [(f"scaled-{name}", ScaledMonitor(m, 3.0)) for name, m in base]
    return [pytest.param(m, id=name) for name, m in monitors]


@pytest.mark.parametrize("monitor", _contract_monitors())
def test_interval_weights_are_interval_values_on_one_grid_and_a_stack_of_one(monitor):
    query = random_grid(np.random.default_rng(37), 12).nodes
    values = monitor.interval_values(query)
    got = monitor.interval_weights(query)
    assert got.shape == (12,) and got.tobytes() == values.tobytes()
    if isinstance(monitor, DiscreteGradientMonitor):  # the one monitor that takes a stack
        got = monitor.interval_weights(query[None])
        assert got.shape == (1, 12) and got.tobytes() == values.tobytes()
    else:
        with pytest.raises(ValueError, match=r"monitor returned .*, expected \(12,\)"):
            monitor.interval_weights(query[None])


def test_interval_weights_of_a_stack_are_its_values():
    rng = np.random.default_rng(41)
    nodes, values = _stack(rng, 3, 10)
    query = _stack(rng, 3, 10)[0]
    stacked = DiscreteGradientMonitor._trusted([1.0, 2.0, 3.0], [0.5, 2.0, 0.25], nodes, values)
    assert stacked.interval_weights(query).tobytes() == stacked.interval_values(query).tobytes()


@pytest.mark.parametrize("rows", [1, 2])
def test_base_interval_weights_reject_a_stack(rows):
    """A monitor serves one grid: the base interval_weights expects one
    weight per interval of one grid, so a stack, also a stack of one,
    raises its shape error (a stack of one was asked as its grid)."""
    query = np.tile(random_grid(np.random.default_rng(47), 12).nodes, (rows, 1))
    for monitor in (_Quadratic(), ConstantMonitor(), ScaledMonitor(_Quadratic(), 2.0)):
        with pytest.raises(ValueError, match=r"^monitor returned \([\d, ]+\), expected \(12,\)$"):
            monitor.interval_weights(query)


@pytest.mark.parametrize("bad,index,message", [
    (np.nan, 0, "monitor values must be finite and strictly positive"),
    (np.nan, 5, "monitor values must be finite and strictly positive"),
    (0.0, 3, "monitor values must be finite and strictly positive"),
    (-1.0, 11, "monitor values must be finite and strictly positive"),
    (np.inf, 11, "monitor values must be finite and strictly positive"),
    ("length", 0, r"monitor returned \(11,\), expected \(12,\)"),
], ids=["nan-first", "nan-inside", "zero", "negative", "inf-last", "length"])
def test_interval_weights_reject_bad_weights(bad, index, message):
    query = random_grid(np.random.default_rng(43), 12).nodes
    for monitor in (_Quadratic(bad, index), ScaledMonitor(_Quadratic(bad, index), 2.0)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            monitor.interval_weights(query)


@pytest.mark.parametrize("lam,ell,beta", [
    (1e-200, 1e300, 0.25),  # the samples underflow to 0
    (1e100, 1e-99, 8.0),  # exp overflows: beta*ln(lam) > ln(max)
    (0.5, 1e308, 1e10),  # the product beta*lam*(x - ell) overflows to -inf
])
def test_exact_power_weights_past_the_double_range_blame_lam_ell_and_beta(lam, ell, beta):
    """The weights leave the double range without a numpy warning, and the
    weight check raises a ParameterError naming lam, ell and beta; a node
    outside [0, ell] still blames x."""
    spec = ProblemSpec(lam, ell)
    monitor = ExactPowerMonitor(spec, beta)
    nodes = uniform_grid(spec, 20).nodes
    values = monitor.interval_values(nodes)  # warnings are errors in this suite
    assert not (np.isfinite(values) & (values > 0.0)).all()
    with pytest.raises(ParameterError, match="leaves the double range") as err:
        monitor.interval_weights(nodes)
    assert err.value.params == {"lam": lam, "ell": ell, "beta": beta}
    # a stack fails the shape check first, which blames no parameter
    with pytest.raises(ValueError, match=r"^monitor returned \(1, 20\), expected \(20,\)$") as err:
        monitor.interval_weights(nodes[None])
    assert type(err.value) is ValueError
    outside = nodes.copy()
    outside[-1] = 3.0 * ell
    with pytest.raises(ParameterError, match="x must lie in") as err:
        monitor.interval_weights(outside)
    assert list(err.value.params) == ["x"]


def test_exact_power_monitor_quiets_numpy_only_past_the_double_range(monkeypatch):
    """interval_values enters an errstate only where the monitor is not
    _in_range, as decided when it is built: no monitor of the paper's
    tables or of the smooth sweeps enters one.  At lam = 1e3 and beta >= 1
    the weight at x = 0 underflows, so those monitors enter one."""
    errstate, entered = np.errstate, []
    monkeypatch.setattr(np, "errstate", lambda **kw: entered.append(kw) or errstate(**kw))
    cases = [(lam, 1.0, beta, lam < 1e3 or beta < 1.0) for lam in (1e-3, 1.0, 10.0, 1e3)
             for beta in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)]
    cases += [(1e100, 1e-99, 8.0, False), (0.5, 1e308, 1e10, False)]
    for lam, ell, beta, in_range in cases:
        spec = ProblemSpec(lam, ell)
        monitor = ExactPowerMonitor(spec, beta)
        entered.clear()
        monitor.interval_values(uniform_grid(spec, 8).nodes)
        assert monitor._in_range is in_range
        assert entered == ([] if in_range else [{"over": "ignore"}])


def test_exact_power_shape_error_blames_no_parameter():
    """A stack is the wrong shape for a monitor of one grid, whatever its
    parameters: the shape error stays a plain ValueError, and only weights
    that leave the double range blame lam, ell and beta."""
    monitor = ExactPowerMonitor(ProblemSpec(10.0, 1.0), 0.25)
    with pytest.raises(ValueError) as err:
        monitor.interval_weights(np.linspace(0.0, 1.0, 13)[None])
    assert type(err.value) is ValueError
    assert str(err.value) == "monitor returned (1, 12), expected (12,)"


# --- inverse weights ------------------------------------------------------------


@pytest.mark.parametrize("monitor", [param for param in _contract_monitors()
                                     if not isinstance(param.values[0], ExactPowerMonitor)])
def test_inverse_weights_are_the_least_weight_over_each_weight(monitor):
    """Bit for bit, of every monitor but the smooth one, whose closed form
    is held to its oracle below; a ScaledMonitor of it is no exception."""
    query = random_grid(np.random.default_rng(37), 12).nodes
    w = monitor.interval_weights(query)
    assert monitor.inverse_weights(query).tobytes() == (smallest(w) / w).tobytes()


def test_inverse_weights_of_a_stack_take_each_row_over_its_least():
    rng = np.random.default_rng(41)
    nodes, values = _stack(rng, 3, 10)
    query = _stack(rng, 3, 10)[0]
    stacked = DiscreteGradientMonitor._trusted([1.0, 2.0, 3.0], [0.5, 2.0, 0.25], nodes, values)
    w = stacked.interval_weights(query)
    expected = np.array([smallest(row) / row for row in w])
    assert stacked.inverse_weights(query).tobytes() == expected.tobytes()


def _inverse_oracle_misses(monitor, nodes) -> list:
    """Entries of monitor.inverse_weights(nodes) off e^{beta lam (m_0 - m_j)},
    taken in high precision at the float midpoints m, by more than
    (|beta lam (m_0 - m_j)| + 2) * 2^-52 relative: beta is a power of two,
    so beta*lam is exact, and the difference, the product and exp round
    once each."""
    got = monitor.inverse_weights(nodes)
    misses = []
    with mpmath.workprec(256):
        rate = mpmath.mpf(monitor.beta) * mpmath.mpf(monitor.spec.lam)
        mid = [mpmath.mpf(m) for m in midpoints(nodes).tolist()]
        for j, (m, value) in enumerate(zip(mid, got.tolist())):
            exponent = rate * (mid[0] - m)
            exact = mpmath.exp(exponent)
            if not abs(mpmath.mpf(value) - exact) <= (abs(exponent) + 2) * 2.0**-52 * exact:
                misses.append((j, value, float(exact)))
    return misses


@pytest.mark.parametrize("lam", ORACLE_LAMS)
@pytest.mark.parametrize("beta", [0.125, 0.25, 0.5, 1.0, 2.0, 4.0])
def test_exact_power_inverse_weights_against_oracle(lam, beta):
    """The closed form on ordered grids on [0, ell], with ell at most 1 and
    small enough that every weight stays in the double range."""
    spec = ProblemSpec(lam, min(1.0, 600.0 / (beta * lam)))
    monitor = ExactPowerMonitor(spec, beta)
    assert monitor._in_range
    rng = np.random.default_rng(59)
    for nodes in (oracle_nodes(spec.ell, 20), random_grid(rng, 40, spec.ell).nodes,
                  random_grid(rng, 7, spec.ell, min_frac=1e-3).nodes):
        got = monitor.inverse_weights(nodes)
        assert got.item(0) == 1.0 and got.shape == (len(nodes) - 1,)
        assert _inverse_oracle_misses(monitor, nodes) == []


@pytest.mark.parametrize("lam,ell,beta,in_range", [
    (10.0, 1.0, 0.25, True),
    (10.0, 1.0, 4.0, True),
    (1e3, 1.0, 0.5, True),  # the least weight e^{-496.5}
    (1e3, 1.0, 1.0, False),  # the weight at x = 0, e^{-993}, underflows to 0
    (1e-200, 1e300, 0.25, False),  # every weight underflows
    (1e100, 1e-99, 8.0, False),  # the weight at x = ell, e^{1842}, overflows
    (0.5, 1e308, 1e10, False),  # the product beta*lam*ell overflows
    (1e-308, 1.5e308, 0.25, True),  # midpoints past half the double range
], ids=["lam10", "lam10-beta4", "lam1e3-half", "underflow", "all-underflow", "overflow",
        "product-overflow", "wide"])
def test_exact_power_monitor_decides_its_range_when_built(lam, ell, beta, in_range):
    """A monitor is in range where its weights at x = 0 and x = ell, the
    least and greatest of any grid on [0, ell], are finite and positive:
    lam^beta e^{-beta lam ell} and lam^beta, each far from the ends of the
    double range here.  There inverse_weights is the closed form; elsewhere
    it is the base class's checked smallest(w)/w, and raises where
    interval_weights does."""
    spec = ProblemSpec(lam, ell)
    monitor = ExactPowerMonitor(spec, beta)
    assert monitor._in_range is in_range
    with mpmath.workprec(64):
        ends = [mpmath.mpf(lam) ** beta * mpmath.exp(mpmath.mpf(beta) * lam * (x - mpmath.mpf(ell)))
                for x in (0, ell)]
    assert (sys.float_info.min * 2.0**-52 < ends[0] and ends[1] < sys.float_info.max) is in_range
    for nodes in (uniform_grid(spec, 8).nodes, ell * np.array([0.0, 0.6, 0.8, 1.0])):
        if in_range:
            assert monitor.inverse_weights(nodes).item(0) == 1.0
            continue
        try:
            w = monitor.interval_weights(nodes)
        except ParameterError as err:
            with pytest.raises(ParameterError) as again:
                monitor.inverse_weights(nodes)
            assert str(again.value) == str(err)
        else:
            assert monitor.inverse_weights(nodes).tobytes() == (smallest(w) / w).tobytes()


def test_exact_power_inverse_weights_check_the_domain():
    """The closed form checks the first and last midpoints, the least and
    greatest of an ordered grid, against [0, ell]: a node outside blames x
    as interval_weights does, also in a sweep on the grid of another ell."""
    monitor = ExactPowerMonitor(ProblemSpec(10.0, 1.0), 0.25)
    for nodes in (np.linspace(0.0, 2.0, 21), np.linspace(-1.0, 1.0, 21),
                  np.array([0.0, np.nan, 1.0])):
        with pytest.raises(ParameterError, match=r"^x must lie in \[0, 1\.0\]$") as want:
            monitor.interval_weights(nodes)
        with pytest.raises(ParameterError, match=r"^x must lie in \[0, 1\.0\]$") as got:
            monitor.inverse_weights(nodes)
        assert repr(got.value.params) == repr(want.value.params)
    with pytest.raises(ParameterError, match=r"^x must lie in \[0, 1\.0\]$") as err:
        equidistribute(monitor, ProblemSpec(10.0, 2.0), 20)
    assert err.value.params == {"x": 1.95}
