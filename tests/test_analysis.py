import numpy as np
import pytest

from equifd import (
    ConvergenceReport,
    DiscreteSolution,
    GridMapping,
    analytic_mapped_grid,
    consistency_error,
    convergence_order,
    exact_solution,
    fourth_order_residual,
    max_error,
    refinement_ladder,
    scheme_residual,
    solve_bvp,
    uniform_grid,
)
from equifd.io import read_csv
from conftest import random_grid


def test_max_error_zero_for_interpolant(spec10):
    g = uniform_grid(spec10, 10)
    sol = DiscreteSolution(g, exact_solution(spec10, g.nodes), spec10)
    assert max_error(sol) == 0.0


def test_max_error_paper_value(spec10):
    sol = solve_bvp(uniform_grid(spec10, 10), spec10)
    assert max_error(sol) == pytest.approx(0.141e-1, rel=0.02)


def test_convergence_order_exact_factor_four():
    assert convergence_order(4e-3, 1e-3) == pytest.approx(2.0, abs=1e-14)


def test_convergence_order_paper_rows():
    assert convergence_order(0.146e-4, 0.883e-6) == pytest.approx(4.047, abs=5e-3)
    assert abs(convergence_order(0.146e-4, 0.883e-6) - 4.04) <= 0.1
    assert convergence_order(0.193, 0.137) == pytest.approx(0.494, abs=5e-3)
    assert abs(convergence_order(0.193, 0.137) - 0.49) <= 0.1


def test_convergence_order_rejects_nonpositive():
    with pytest.raises(ValueError):
        convergence_order(0.0, 1e-3)
    with pytest.raises(ValueError):
        convergence_order(1e-3, -1e-4)


def test_consistency_leading_term_uniform(spec10):
    """|psi_j| matches lam^4 e^{lam(x-ell)} dx^2 / 12 once lam*dx <= 0.1."""
    n = 100
    g = uniform_grid(spec10, n)
    psi = consistency_error(g, spec10)
    dx = spec10.ell / n
    lead = spec10.lam**4 * np.exp(spec10.lam * (g.nodes[1:-1] - spec10.ell)) * dx**2 / 12
    assert np.all(np.abs(np.abs(psi) / lead - 1.0) <= 0.05)


def test_consistency_error_ratio_across_domain(spec10):
    g = uniform_grid(spec10, 20)
    psi = consistency_error(g, spec10)
    assert np.all(np.diff(np.abs(psi)) > 0)  # error concentrates at the layer
    ratio = abs(psi[-1] / psi[0])
    expected = np.exp(spec10.lam * (g.nodes[-2] - g.nodes[1]))
    assert ratio == pytest.approx(expected, rel=0.10)


def test_consistency_richardson_limit(spec10):
    """Richardson extrapolation of |psi|/leading-term across N and 2N gives 1."""
    ratios = []
    for n in (100, 200):
        g = uniform_grid(spec10, n)
        psi = np.abs(consistency_error(g, spec10))
        dx = spec10.ell / n
        lead = spec10.lam**4 * np.exp(spec10.lam * (g.nodes[1:-1] - spec10.ell)) * dx**2 / 12
        ratios.append(psi / lead)
    coarse = ratios[0]
    fine_at_coarse = ratios[1][1::2]
    extrapolated = (4.0 * fine_at_coarse - coarse) / 3.0
    assert np.all(np.abs(extrapolated - 1.0) <= 0.01)


def test_consistency_affine_exactness():
    rng = np.random.default_rng(12)
    g = random_grid(rng, 15)
    values = 1.7 - 0.4 * g.nodes
    assert np.max(np.abs(scheme_residual(g, values, 0.0))) <= 1e-10


def test_consistency_fourth_order_on_quarter_grid(spec10):
    maxima = []
    for n in (20, 40, 80, 160):
        g = analytic_mapped_grid(GridMapping(spec10, 0.25), n)
        maxima.append(np.max(np.abs(consistency_error(g, spec10))))
    slope = np.log2(maxima[0] / maxima[-1]) / 3
    assert slope == pytest.approx(4.0, abs=0.3)


def test_fourth_order_residual_quarter_vanishes(spec10):
    q = np.linspace(0.01, 0.99, 99)
    r = fourth_order_residual(GridMapping(spec10, 0.25), q)
    assert np.max(np.abs(r)) <= 1e-8


def test_fourth_order_residual_other_betas(spec10):
    # closed form of the normalized residual is (1 - 4 beta) / (1 + 4 beta)
    r_half = fourth_order_residual(GridMapping(spec10, 0.5), 0.5)
    assert r_half == pytest.approx(-1.0 / 3.0, abs=1e-12)
    r_two = fourth_order_residual(GridMapping(spec10, 2.0), 0.5)
    assert r_two == pytest.approx(-7.0 / 9.0, abs=1e-12)
    assert abs(r_half) > 1e-2 and abs(r_two) > 1e-2


def test_fourth_order_residual_uniform_mapping(spec10):
    mapping = GridMapping(spec10, 0.0)
    raw = fourth_order_residual(mapping, 0.5, normalized=False)
    expected = 0.25 * spec10.ell**2 * spec10.lam**4 * np.exp(spec10.lam * (0.5 - 1.0))
    assert raw == pytest.approx(expected, rel=1e-13)
    assert fourth_order_residual(mapping, 0.5) == pytest.approx(1.0, abs=1e-15)


def test_fourth_order_residual_domain(spec10):
    with pytest.raises(ValueError):
        fourth_order_residual(GridMapping(spec10, 0.25), 0.0)
    with pytest.raises(ValueError):
        fourth_order_residual(GridMapping(spec10, 0.25), 1.0)
    with pytest.raises(ValueError):
        fourth_order_residual(GridMapping(spec10, 0.25), [0.5, np.nan])


def test_mapping_derivatives_against_finite_differences(spec10):
    mapping = GridMapping(spec10, 0.25)
    q = np.linspace(0.05, 0.95, 19)
    step = 1e-5
    fd1 = (mapping.evaluate(q + step) - mapping.evaluate(q - step)) / (2 * step)
    fd2 = (mapping.evaluate(q + step) - 2 * mapping.evaluate(q) + mapping.evaluate(q - step)) / step**2
    assert np.allclose(mapping.derivative(q), fd1, rtol=1e-6)
    assert np.allclose(mapping.second_derivative(q), fd2, rtol=1e-4)


def test_order_dichotomy(spec10):
    ladder = (20, 40, 80, 160, 320)
    for beta, target, tol in ((0.25, 4.0, 0.2), (0.0, 2.0, 0.3), (0.5, 2.0, 0.3)):
        mapping = GridMapping(spec10, beta)
        rep = refinement_ladder(spec10, lambda n, m=mapping: analytic_mapped_grid(m, n), ladder)
        for p in rep.orders[1:]:
            assert abs(p - target) <= tol


def test_report_from_errors_and_csv(tmp_path):
    rep = ConvergenceReport.from_errors([10, 20], [4e-2, 1e-2], "demo")
    assert rep.rows[0][2] is None
    assert rep.rows[1][2] == pytest.approx(2.0)
    path = tmp_path / "report.csv"
    rep.write_csv(path)
    data = read_csv(path)
    assert list(data) == ["N", "error", "p"]
    assert np.isnan(data["p"][0])
    assert data["p"][1] == pytest.approx(2.0)
    text = rep.format_table()
    assert "demo" in text and "---" in text
