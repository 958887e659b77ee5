import math
import warnings

import mpmath
import numpy as np
import pytest

from equifd import (Grid, GridMapping, ProblemSpec, analytic_mapped_grid,
                    fourth_order_residual, uniform_grid)

mpmath.mp.dps = 50


def test_uniform_grid_quarters(spec10):
    g = uniform_grid(spec10, 4)
    assert np.array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_uniform_grid_ell2():
    g = uniform_grid(ProblemSpec(lam=1.0, ell=2.0), 2)
    assert np.array_equal(g.nodes, [0.0, 1.0, 2.0])


def test_uniform_grid_equal_steps(spec10):
    g = uniform_grid(spec10, 10)
    assert np.allclose(g.steps, 0.1, rtol=1e-15)


def test_uniform_grid_invalid_n(spec10):
    with pytest.raises(ValueError):
        uniform_grid(spec10, 1)


def test_mapping_endpoint_exact(spec10):
    g = analytic_mapped_grid(GridMapping(spec10, 0.25), 8)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 1.0


def test_mapping_midpoint_value(spec10):
    # x(1/2) = ell + (4/lam) * ln(1/2 + 1/2 * e^{-lam*ell/4})
    expected = float(1 + mpmath.mpf(4) / 10 * mpmath.log(mpmath.mpf(1) / 2 * (1 + mpmath.exp(-2.5))))
    x = GridMapping(spec10, 0.25).evaluate(0.5)
    assert x == pytest.approx(expected, rel=1e-14)
    assert x == pytest.approx(0.754297, abs=5e-7)


def test_beta_zero_matches_uniform(spec10):
    mapped = analytic_mapped_grid(GridMapping(spec10, 0.0), 8)
    uni = uniform_grid(spec10, 8)
    assert np.array_equal(mapped.nodes, uni.nodes)


def test_beta_half_explicit_formula(spec10):
    n = 16
    q = np.arange(1, n) / n
    expected = 1 + 2 / 10 * np.log(q + (1 - q) * np.exp(-5.0))
    g = analytic_mapped_grid(GridMapping(spec10, 0.5), n)
    assert np.allclose(g.nodes[1:-1], expected, rtol=0, atol=1e-13)


def test_uniform_geometry(spec10):
    g = uniform_grid(spec10, 4)
    assert np.allclose(g.node_steps, 0.25, rtol=1e-15)


def test_steps_decrease_toward_layer(spec10):
    g = analytic_mapped_grid(GridMapping(spec10, 0.25), 20)
    assert np.all(np.diff(g.steps) < 0)


def test_telescoping(spec10):
    for beta in [0.0, 0.25, 2.0]:
        g = analytic_mapped_grid(GridMapping(spec10, beta), 33)
        assert np.sum(g.steps) == pytest.approx(spec10.ell, rel=1e-12)


def test_jacobian_bound_uniform_in_n(spec10):
    mapping = GridMapping(spec10, 0.25)
    j_max = float(np.max(mapping.derivative(np.linspace(0, 1, 2001))))
    for n in [10, 20, 40, 80, 160, 320, 640]:
        g = analytic_mapped_grid(mapping, n)
        assert float(np.max(g.steps)) * n <= j_max * (1 + 1e-12)


def test_underflow_warning():
    spec = ProblemSpec(lam=500.0, ell=2.0)
    with pytest.warns(RuntimeWarning):
        g = analytic_mapped_grid(GridMapping(spec, 1.0), 8)
    assert g.nodes[0] == 0.0
    assert np.all(np.diff(g.nodes) > 0)


def test_underflow_warning_once_per_mapping():
    """e^{-beta*lam*ell} is formed, and its underflow reported, once per
    mapping, not once for each of x, x_q and x_qq."""
    mapping = GridMapping(ProblemSpec(1e4, 1.0), 0.25)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fourth_order_residual(mapping, 0.5)
    assert [w.category for w in caught] == [RuntimeWarning]


def test_grid_validation():
    with pytest.raises(ValueError, match="at least 3 nodes"):  # one cell has no interior node
        Grid(np.array([0.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        Grid(np.array([0.0, 0.5, 0.4, 1.0]), 1.0)
    with pytest.raises(ValueError):
        Grid(np.array([0.1, 0.5, 1.0]), 1.0)
    with pytest.raises(ValueError):
        Grid(np.array([0.0, 0.5, 0.9]), 1.0)
    with pytest.raises(ValueError):
        Grid(np.array([0.0, np.nan, 1.0]), 1.0)
    with pytest.raises(ValueError):
        Grid(np.array([0.0, 1.0, np.inf]), np.inf)
    for bad in ([0.0, 0.5, 0.5, 1.0], [0.0, np.inf, 1.0], [0.0, -np.inf, 1.0],
                [0.0, 0.5, np.inf, 1.0]):
        with pytest.raises(ValueError, match="strictly increasing"):
            Grid(np.array(bad), 1.0)


def test_grid_nodes_immutable(spec10):
    g = uniform_grid(spec10, 4)
    with pytest.raises(ValueError):
        g.nodes[1] = 0.3


def test_mapping_negative_beta(spec10):
    for bad in (-0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="beta"):
            GridMapping(spec10, bad)


def test_decay_underflow_warns_that_evaluate_0_is_minus_inf():
    """Past beta*lam*ell ~ 745 the mapping loses its left end: the warning
    says so, and that analytic_mapped_grid pins x(0), which it does."""
    mapping = GridMapping(ProblemSpec(1e4, 1.0), 0.25)
    with pytest.warns(RuntimeWarning) as caught:
        assert mapping.evaluate(0.0) == -math.inf
    assert [str(w.message) for w in caught] == [
        "exp(-beta*lam*ell) underflows for beta*lam*ell = 2500.0; evaluate(0) is -inf there, "
        "and analytic_mapped_grid pins x(0) to 0"]
    assert analytic_mapped_grid(mapping, 20).nodes[0] == 0.0  # warned once per mapping


def test_decay_underflow_leaves_derivatives_infinite_without_numpy_warning():
    """Where e^{-beta*lam*ell} underflows, x_q(0) and x_qq(0) divide by
    zero: they are +inf and -inf, as evaluate(0) is -inf, and the package's
    own warning is the only one (the suite turns any other into an error)."""
    mapping = GridMapping(ProblemSpec(1e4, 1.0), 0.25)
    with pytest.warns(RuntimeWarning, match="underflows") as caught:
        assert mapping.derivative(0.0) == math.inf
    assert len(caught) == 1
    assert mapping.second_derivative(0.0) == -math.inf
    q = np.array([0.0, 0.5])
    assert mapping.derivative(q)[0] == math.inf and math.isfinite(mapping.derivative(q)[1])
    assert mapping.second_derivative(q)[0] == -math.inf


def test_layer_narrower_than_an_ulp_of_ell_is_rejected():
    """lam=1e-200, ell=1e300, beta=1/4: the layer width 1/(beta*lam) = 4e200
    is below ell's ulp, so every mapped node would round to ell.  This is
    a ValueError naming lam, ell and beta, raised before the underflow of
    exp(-beta*lam*ell) warns."""
    mapping = GridMapping(ProblemSpec(1e-200, 1e300), 0.25)
    with pytest.raises(ValueError, match=r"lam=1e-200, ell=1e\+300, beta=0.25"):
        analytic_mapped_grid(mapping, 20)
    # a width of one ulp still resolves the two-cell grid (x(0) underflows,
    # which is warned about and pinned)
    ell = 1e300
    lam = 1.0 / (0.25 * math.ulp(ell))
    with pytest.warns(RuntimeWarning, match="underflows"):
        g = analytic_mapped_grid(GridMapping(ProblemSpec(lam, ell), 0.25), 2)
    assert g.nodes[0] == 0.0 < g.nodes[1] < g.nodes[2] == ell


def test_layer_of_a_few_ulps_of_ell_is_rejected_per_grid():
    """lam=10, ell=1, beta=1e14: the layer width 1e-15 is ~4.5 ulps of ell,
    so check_layer_width passes, yet the mapped nodes near ell collide
    from N=16 on.  analytic_mapped_grid raises a ValueError naming lam,
    ell, beta and n_cells instead of Grid's node-order error, after
    exp(-beta*lam*ell) warns that it underflows."""
    mapping = GridMapping(ProblemSpec(10.0, 1.0), 1e14)
    mapping.check_layer_width()
    with pytest.warns(RuntimeWarning, match="underflows"):
        g = analytic_mapped_grid(mapping, 8)
        with pytest.raises(ValueError, match=r"layer width .*\(lam=10.0, ell=1.0, "
                                             r"beta=100000000000000.0, n_cells=20\)"):
            analytic_mapped_grid(mapping, 20)
    assert (g.steps > 0.0).all()


def test_layer_too_wide_for_the_mapping_is_rejected_per_grid():
    """lam=10, beta=1/4 with ell=1e-15 or 1e-321: the layer width 0.4 is
    far wider than ell, and e^{-beta*lam*ell} rounds to about 1, so the
    mapped nodes collide.  The error blames beta*lam*ell, not a thin
    layer; the uniform grid of ell=1e-15 is fine."""
    for ell in (1e-15, 1e-321):
        mapping = GridMapping(ProblemSpec(10.0, ell), 0.25)
        mapping.check_layer_width()
        with pytest.raises(ValueError, match=r"beta\*lam\*ell = .* too small for the mapping to "
                                             r"resolve 20 cells") as err:
            analytic_mapped_grid(mapping, 20)
        assert f"(lam=10.0, ell={ell}, beta=0.25, n_cells=20)" in str(err.value)
        assert "layer width" not in str(err.value)
    assert (uniform_grid(ProblemSpec(10.0, 1e-15), 20).steps > 0.0).all()


def test_uniform_nodes_that_collide_are_rejected():
    """ell = 5e-324 (one subnormal step) cannot hold 20 distinct steps: a
    ValueError naming ell and n_cells, not Grid's node-order error.  The
    beta = 0 mapping is the same grid and raises the same error."""
    spec = ProblemSpec(10.0, 5e-324)
    with pytest.raises(ValueError, match=r"collide \(ell=5e-324, n_cells=20\)"):
        uniform_grid(spec, 20)
    with pytest.raises(ValueError, match=r"collide \(ell=5e-324, n_cells=20\)"):
        analytic_mapped_grid(GridMapping(spec, 0.0), 20)
    # ten subnormal steps of ell = 1e-322 (20 subnormal ulps) stay distinct
    assert (uniform_grid(ProblemSpec(10.0, 1e-322), 10).steps > 0.0).all()


@pytest.mark.parametrize("ell", [1.0, 3.7, 1e-3, 1e300])
@pytest.mark.parametrize("n", [2, 7, 20, 640])
def test_beta_zero_mapping_is_the_uniform_grid(ell, n):
    spec = ProblemSpec(1.0, ell)
    assert np.array_equal(analytic_mapped_grid(GridMapping(spec, 0.0), n).nodes,
                          GridMapping(spec, 0.0).evaluate(np.arange(n + 1) / n))
    assert np.array_equal(analytic_mapped_grid(GridMapping(spec, 0.0), n).nodes,
                          uniform_grid(spec, n).nodes)
