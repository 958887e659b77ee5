"""Acceptance suite: reference-result reproduction at pinned tolerances.

Each test prints one PASS/FAIL line (bypassing capture) so a plain
pytest run shows the per-criterion outcome.
"""

import time

import numpy as np

from equifd import (
    ConstantMonitor,
    ExactPowerMonitor,
    GridMapping,
    MonitorFunction,
    TridiagonalSystem,
    analytic_mapped_grid,
    consistency_error,
    equidistribute,
    fourth_order_residual,
    max_error,
    solve_bvp,
    solve_dirichlet,
    solve_tridiagonal,
    uniform_grid,
)
from conftest import random_grid

LADDER = (10, 20, 40, 80, 160, 320, 640)

UNIFORM_ERRORS = (0.141e-1, 0.375e-2, 0.953e-3, 0.239e-3, 0.599e-4, 0.150e-4, 0.374e-5)
QUARTER_ERRORS = (0.146e-4, 0.883e-6, 0.548e-7, 0.342e-8, 0.214e-9, 0.136e-10, 0.836e-12)
HALF_ERRORS = (0.456e-2, 0.101e-2, 0.220e-3, 0.512e-4, 0.127e-4, 0.317e-5, 0.792e-6)
SQUARE_ERRORS = (0.193, 0.137, 0.960e-1, 0.668e-1, 0.463e-1, 0.319e-1, 0.220e-1)

# (alpha, beta) -> (max error, iteration count)
SWEEP_REFERENCE = {
    (0.0, 0.125): (0.375e-2, 1), (0.0, 0.25): (0.375e-2, 1), (0.0, 0.5): (0.375e-2, 1),
    (0.0, 1.0): (0.375e-2, 1), (0.0, 2.0): (0.375e-2, 1),
    (0.1, 0.125): (0.330e-2, 6), (0.1, 0.25): (0.288e-2, 7), (0.1, 0.5): (0.206e-2, 8),
    (0.1, 1.0): (0.715e-3, 12), (0.1, 2.0): (0.382e-2, 35),
    (0.5, 0.125): (0.230e-2, 8), (0.5, 0.25): (0.141e-2, 10), (0.5, 0.5): (0.358e-3, 13),
    (0.5, 1.0): (0.150e-2, 22), (0.5, 2.0): (0.135e-1, 92),
    (1.0, 0.125): (0.182e-2, 10), (1.0, 0.25): (0.816e-3, 12), (1.0, 0.5): (0.321e-3, 16),
    (1.0, 1.0): (0.176e-2, 30), (1.0, 2.0): (0.377e-1, 167),
    (2.0, 0.125): (0.142e-2, 10), (2.0, 0.25): (0.423e-3, 15), (2.0, 0.5): (0.483e-3, 22),
    (2.0, 1.0): (0.230e-2, 42), (2.0, 2.0): (0.841e-1, 699),
    (10.0, 0.125): (0.951e-3, 13), (10.0, 0.25): (0.824e-4, 20), (10.0, 0.5): (0.630e-3, 38),
    (10.0, 1.0): (0.750e-2, 123), (10.0, 2.0): (0.227, 73),
    (1e2, 0.125): (0.832e-3, 14), (1e2, 0.25): (0.854e-5, 22), (1e2, 0.5): (0.827e-3, 46),
    (1e2, 1.0): (0.630e-1, 45), (1e2, 2.0): (0.204, 66),
    (1e3, 0.125): (0.820e-3, 14), (1e3, 0.25): (0.132e-5, 22), (1e3, 0.5): (0.113e-2, 46),
    (1e3, 1.0): (0.743e-1, 36), (1e3, 2.0): (0.202, 65),
    (1e4, 0.125): (0.819e-3, 14), (1e4, 0.25): (0.644e-6, 23), (1e4, 0.5): (0.117e-2, 46),
    (1e4, 1.0): (0.754e-1, 37), (1e4, 2.0): (0.202, 64),
}

# alpha -> outer iteration counts of this implementation for beta = 1/8, 1/4, 1/2, 1, 2;
# exact, so a silent change of behaviour inside the factor-3 band above shows
TABLE2_ITERATIONS = {
    0.0: (1, 1, 1, 1, 1),
    0.1: (7, 8, 9, 12, 29),
    0.5: (9, 10, 12, 21, 131),
    1.0: (10, 12, 16, 27, 206),
    2.0: (11, 13, 19, 47, 653),
    10.0: (13, 21, 58, 111, 13),
    1e2: (14, 36, 62, 80, 87),
    1e3: (14, 22, 61, 78, 89),
    1e4: (14, 22, 62, 78, 89),
}
TABLE2_BETAS = (0.125, 0.25, 0.5, 1.0, 2.0)


ACCEPTANCE_LINES = []


def _finish(number, name, failures):
    status = "PASS" if not failures else "FAIL"
    line = f"criterion {number}: {name}: {status}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert not failures, f"criterion {number} failed: {failures}"


def _ladder_errors(spec, beta):
    mapping = GridMapping(spec, beta)
    return [max_error(solve_bvp(analytic_mapped_grid(mapping, n), spec)) for n in LADDER]


def _orders(errors):
    return [np.log2(a / b) for a, b in zip(errors, errors[1:])]


def test_criterion_1_uniform_column(spec10):
    failures = []
    start = time.perf_counter()
    errors = [max_error(solve_bvp(uniform_grid(spec10, n), spec10)) for n in LADDER]
    elapsed = time.perf_counter() - start
    for n, got, ref in zip(LADDER, errors, UNIFORM_ERRORS):
        if abs(got - ref) > 0.02 * ref:
            failures.append(f"N={n}: {got:.3e} vs {ref:.3e}")
    for n, p in zip(LADDER[1:], _orders(errors)):
        if n >= 80 and abs(p - 2.0) > 0.05:
            failures.append(f"order at N={n}: {p:.3f}")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s")
    _finish(1, "table1 uniform column (errors 2%, p=2.0+-0.05, <1s)", failures)


def test_criterion_2_quarter_column_supraconvergence(spec10):
    failures = []
    errors = _ladder_errors(spec10, 0.25)
    for n, got, ref in zip(LADDER, errors, QUARTER_ERRORS):
        if n <= 160 and abs(got - ref) > 0.05 * ref:
            failures.append(f"N={n}: {got:.3e} vs {ref:.3e}")
        if n >= 320 and not (0.5 * ref <= got <= 2.0 * ref):
            failures.append(f"N={n}: {got:.3e} outside factor 2 of {ref:.3e}")
    for n, p in zip(LADDER[1:], _orders(errors)):
        if 20 <= n <= 160 and abs(p - 4.0) > 0.2:
            failures.append(f"order at N={n}: {p:.3f}")
    _finish(2, "table1 beta=1/4 column (fourth-order convergence)", failures)


def test_criterion_3_half_column(spec10):
    failures = []
    errors = _ladder_errors(spec10, 0.5)
    uniform_errors = [max_error(solve_bvp(uniform_grid(spec10, n), spec10)) for n in LADDER]
    for n, got, ref in zip(LADDER, errors, HALF_ERRORS):
        if abs(got - ref) > 0.10 * ref:
            failures.append(f"N={n}: {got:.3e} vs {ref:.3e}")
    for n, p in zip(LADDER[1:], _orders(errors)):
        if n >= 160 and abs(p - 2.0) > 0.1:
            failures.append(f"order at N={n}: {p:.3f}")
    # "about ten times lower" holds only loosely in the reference data
    # (the printed errors give factors 3.1 to 4.7), so bind the factor >= 3
    for n, eu, eh in zip(LADDER, uniform_errors, errors):
        if not eu / eh >= 3.0:
            failures.append(f"N={n}: uniform/half ratio {eu / eh:.2f} < 3")
    _finish(3, "table1 beta=1/2 column (2nd order, well below uniform)", failures)


def test_criterion_4_square_column_degradation(spec10):
    failures = []
    errors = _ladder_errors(spec10, 2.0)
    for n, got, ref in zip(LADDER, errors, SQUARE_ERRORS):
        if abs(got - ref) > 0.10 * ref:
            failures.append(f"N={n}: {got:.3e} vs {ref:.3e}")
    for n, p in zip(LADDER[1:], _orders(errors)):
        if 20 <= n <= 160 and abs(p - 0.49) > 0.1:
            failures.append(f"order at N={n}: {p:.3f}")
    _finish(4, "table1 beta=2 column (order drops to 1/2)", failures)


def test_criterion_5_adaptive_sweep(table2_cells):
    failures = []
    by_key = {(c.alpha, c.beta): c for c in table2_cells}
    for (alpha, beta), (ref_e, ref_n) in SWEEP_REFERENCE.items():
        c = by_key[(alpha, beta)]
        if not (0.5 * ref_e <= c.error <= 2.0 * ref_e):
            failures.append(f"error ({alpha:g},{beta:g}): {c.error:.3e} vs {ref_e:.3e}")
        # iteration counts are indicative; the reference counts for
        # beta >= 1 at alpha >= 10 are non-monotone and not reproducible
        flagged = beta in (1.0, 2.0) and alpha >= 10
        if not flagged and not (ref_n / 3 <= c.iterations <= ref_n * 3):
            failures.append(f"n ({alpha:g},{beta:g}): {c.iterations} vs {ref_n}")
        if not c.converged:
            failures.append(f"({alpha:g},{beta:g}) did not converge")
    errors = {(c.alpha, c.beta): c.error for c in table2_cells}
    for alpha in (10.0, 1e2, 1e3, 1e4):
        row = {b: errors[(alpha, b)] for b in (0.125, 0.25, 0.5, 1.0, 2.0)}
        if min(row, key=row.get) != 0.25:
            failures.append(f"beta=1/4 not minimal at alpha={alpha:g}")
    alpha0 = [errors[(0.0, b)] for b in (0.125, 0.25, 0.5, 1.0, 2.0)]
    if len(set(alpha0)) != 1:
        failures.append("alpha=0 row not identical across beta")
    for alpha in (0.5, 1.0, 2.0, 10.0, 1e2, 1e3, 1e4):
        if not errors[(alpha, 2.0)] > 0.375e-2:
            failures.append(f"beta=2 not worse than uniform at alpha={alpha:g}")
    _finish(5, "table2 adaptive sweep (45 cells, factor-2 errors)", failures)


def test_table2_iteration_counts_pinned(table2_cells):
    got = {(c.alpha, c.beta): c.iterations for c in table2_cells}
    expected = {(alpha, beta): n for alpha, row in TABLE2_ITERATIONS.items()
                for beta, n in zip(TABLE2_BETAS, row)}
    assert got == expected


def test_criterion_6_fourth_order_identity():
    from equifd import ProblemSpec

    failures = []
    q = np.arange(1, 101) / 101.0
    for lam in (1.0, 10.0, 100.0):
        spec = ProblemSpec(lam=lam, ell=1.0)
        r = np.max(np.abs(fourth_order_residual(GridMapping(spec, 0.25), q)))
        if r > 1e-8:
            failures.append(f"beta=1/4, lam={lam:g}: residual {r:.2e}")
    spec = ProblemSpec(lam=10.0, ell=1.0)
    for beta in (0.0, 0.5, 2.0):
        r = abs(float(fourth_order_residual(GridMapping(spec, beta), 0.5)))
        if not r > 1e-2:
            failures.append(f"beta={beta:g}: residual {r:.2e} not > 1e-2")
    _finish(6, "fourth-order condition holds only for beta=1/4", failures)


def test_criterion_7_oracle_equivalences(spec10):
    failures = []
    rng = np.random.default_rng(2718)
    for k in range(100):
        n = int(rng.integers(1, 33))
        lower = rng.uniform(-1, 1, max(n - 1, 0))
        upper = rng.uniform(-1, 1, max(n - 1, 0))
        diag = np.ones(n) + rng.uniform(0.1, 2.0, n)
        diag[1:] += np.abs(lower)
        diag[:-1] += np.abs(upper)
        sys_ = TridiagonalSystem(lower=lower, diag=diag, upper=upper,
                                 rhs=rng.uniform(-5, 5, n))
        diff = np.max(np.abs(solve_tridiagonal(sys_) - np.linalg.solve(sys_.dense(), sys_.rhs)))
        if diff > 1e-11:
            failures.append(f"system {k}: {diff:.2e}")

    gaps = {}
    for n in (20, 40):
        res = equidistribute(ExactPowerMonitor(spec10, 0.25), spec10, n, tol=1e-12)
        if res.final_update > 1e-8:
            failures.append(f"inner convergence at N={n}: {res.final_update:.2e}")
        analytic = analytic_mapped_grid(GridMapping(spec10, 0.25), n)
        gaps[n] = np.max(np.abs(res.grid.nodes - analytic.nodes))
    # the midpoint-rule gap to the closed form decays at second order
    if not gaps[20] <= 2e-3:
        failures.append(f"gap at N=20: {gaps[20]:.2e}")
    ratio = gaps[40] / gaps[20]
    if not 0.15 <= ratio <= 0.4:
        failures.append(f"gap ratio under halving: {ratio:.3f} not ~1/4")
    _finish(7, "oracle equivalences (dense solve, analytic mapping)", failures)


def test_criterion_8_property_suites(spec10):
    failures = []
    rng = np.random.default_rng(31415)

    for _ in range(50):
        g = random_grid(rng, int(rng.integers(3, 40)))
        sol = solve_bvp(g, spec10)
        if not (np.all(sol.values >= spec10.left_bc - 1e-12)
                and np.all(sol.values <= spec10.right_bc + 1e-12)):
            failures.append("maximum principle violated")
            break

    class RecordingMonitor(MonitorFunction):
        def __init__(self, inner):
            self.inner = inner
            self.seen = []

        def interval_values(self, nodes):
            self.seen.append(nodes.copy())
            return self.inner.interval_values(nodes)

    recorder = RecordingMonitor(ExactPowerMonitor(spec10, 0.25))
    equidistribute(recorder, spec10, 20, initial=random_grid(rng, 20))
    if not all(np.all(np.diff(nodes) > 0) for nodes in recorder.seen):
        failures.append("monotonicity lost during equidistribution sweeps")

    for beta in (0.0, 0.25, 2.0):
        g = analytic_mapped_grid(GridMapping(spec10, beta), 50)
        if abs(np.sum(g.steps) - spec10.ell) > 1e-12 * spec10.ell:
            failures.append(f"telescoping failed for beta={beta:g}")

    for _ in range(10):
        g = random_grid(rng, int(rng.integers(3, 30)))
        a, b = rng.uniform(-2, 2, 2)
        u = solve_dirichlet(g, 0.0, a, b)
        if np.max(np.abs(u - (a + (b - a) * g.nodes / g.ell))) > 1e-12:
            failures.append("affine exactness at lam=0 failed")
            break

    tol = 1e-12
    base = ExactPowerMonitor(spec10, 0.5)
    r1 = equidistribute(base, spec10, 20, tol=tol)
    r2 = equidistribute(base.scaled(250.0), spec10, 20, tol=tol)
    if np.max(np.abs(r1.grid.nodes - r2.grid.nodes)) > 10 * tol:
        failures.append("scaling invariance failed")

    _finish(8, "property suites (max principle, monotonicity, telescoping, "
               "affine exactness, scaling invariance)", failures)


def test_criterion_9_consistency_structure(spec10):
    failures = []
    for n in (100, 200, 400):
        g = uniform_grid(spec10, n)
        psi = np.abs(consistency_error(g, spec10))
        dx = spec10.ell / n
        lead = spec10.lam**4 * np.exp(spec10.lam * (g.nodes[1:-1] - spec10.ell)) * dx**2 / 12
        ratio = psi / lead
        if not np.all((ratio >= 0.95) & (ratio <= 1.05)):
            failures.append(f"N={n}: ratio range [{ratio.min():.3f}, {ratio.max():.3f}]")
    maxima = []
    for n in (20, 40, 80, 160):
        g = analytic_mapped_grid(GridMapping(spec10, 0.25), n)
        maxima.append(np.max(np.abs(consistency_error(g, spec10))))
    slope = np.log2(maxima[0] / maxima[-1]) / 3
    if abs(slope - 4.0) > 0.3:
        failures.append(f"psi ladder slope {slope:.3f}")
    _finish(9, "consistency-error structure (1/12 coefficient, O(h^4) ladder)", failures)
