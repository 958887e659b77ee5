"""Solution-adaptive grids, no exact solution required.

In practice u_x is not known, so the monitor 1 + alpha*|u_x|^beta is
built from the discrete solution itself and the solve-remesh loop runs
until the solution stops changing.  The (alpha, beta) landscape mirrors
the analytic one: beta = 1/4 is the sweet spot, beta = 2 overconcentrates
and ends up worse than not adapting at all.
"""

from equifd import AdaptiveConfig, ProblemSpec, adaptive_solve

spec = ProblemSpec(lam=10.0, ell=1.0)
n = 20

print(f"adaptive solves at N = {n} (uniform-grid error is 3.75e-03):\n")
print(f"{'alpha':>8} {'beta':>6} | {'error':>10} {'solves':>7}")
for beta in (0.25, 2.0):
    for alpha in (0.0, 1.0, 10.0, 1e4):
        res = adaptive_solve(spec, n, AdaptiveConfig(alpha=alpha, beta=beta))
        mark = "" if res.converged else " (not converged)"
        print(f"{alpha:>8g} {beta:>6g} | {res.error_norm:>10.3e} "
              f"{res.outer_iterations:>7d}{mark}")
    print()

print("iteration trace for alpha = 10, beta = 1/4:")
res = adaptive_solve(spec, n, AdaptiveConfig(alpha=10.0, beta=0.25))
print(f"{'n':>4} {'error':>10} {'du':>9} {'dgrid':>9} {'sweeps':>6} {'relax':>5}")
for step, err, du, dgrid, sweeps, stalled, relax in res.history[:8]:
    du_txt = "---" if du != du else f"{du:.2e}"
    stall_txt = " (inner stall)" if stalled else ""
    print(f"{step:>4} {err:>10.3e} {du_txt:>9} {dgrid:>9.2e} {sweeps:>6d} {relax:>5.3g}{stall_txt}")
print(f"... converged after {res.outer_iterations} solves "
      f"with error {res.error_norm:.3e}")
