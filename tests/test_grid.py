import math

import mpmath
import numpy as np
import pytest

from equifd import Grid, GridMapping, ProblemSpec, analytic_mapped_grid, uniform_grid
from equifd.io import read_csv

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
    assert np.allclose(g.midpoint_jacobian, 1.0, rtol=1e-15)
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
        assert g.max_step * n <= j_max * (1 + 1e-12)


def test_underflow_warning():
    spec = ProblemSpec(lam=500.0, ell=2.0)
    with pytest.warns(RuntimeWarning):
        g = analytic_mapped_grid(GridMapping(spec, 1.0), 8)
    assert g.nodes[0] == 0.0
    assert np.all(np.diff(g.nodes) > 0)


def test_grid_validation():
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


def test_grid_csv_roundtrip(tmp_path, spec10):
    g = analytic_mapped_grid(GridMapping(spec10, 0.25), 12)
    path = tmp_path / "grid.csv"
    g.write_csv(path)
    data = read_csv(path)
    assert list(data) == ["x"]
    assert np.array_equal(data["x"], g.nodes)


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
