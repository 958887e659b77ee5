"""Generating grids numerically with the equidistribution principle.

A positive monitor omega(x) defines a grid through the requirement that
omega times interval length is the same in every cell.  The discrete
equations are solved by freezing omega at the current nodes, which makes
the flux omega * dx constant, so the new nodes follow from a cumulative
sum of 1/omega; this is repeated to convergence.  For monitors with a
closed-form answer we can check the machinery against it.
"""

import numpy as np

from equifd import (
    ConstantMonitor,
    ExactPowerMonitor,
    Grid,
    GridMapping,
    ProblemSpec,
    analytic_mapped_grid,
    equidist_defect,
    equidistribute,
    uniform_grid,
)

spec = ProblemSpec(lam=10.0, ell=1.0)
n = 20

print("constant monitor from a lopsided start:")
skewed = Grid(np.concatenate([[0.0], np.linspace(0.8, 1.0, n)]), 1.0)
constant = ConstantMonitor()
res = equidistribute(constant, spec, n, initial=skewed)
print(f"  back to the uniform grid in {res.iterations} sweeps, "
      f"defect {equidist_defect(res.grid, constant):.1e}\n")

print("power monitor (u_x)^(1/4):")
power = ExactPowerMonitor(spec, 0.25)
res = equidistribute(power, spec, n)
closed = analytic_mapped_grid(GridMapping(spec, 0.25), n)
gap = np.max(np.abs(res.grid.nodes - closed.nodes))
print(f"  converged in {res.iterations} sweeps, final update {res.final_update:.1e}")
print(f"  equidistribution defect {equidist_defect(res.grid, power):.1e}")
print(f"  distance to the closed-form mapping {gap:.2e} "
      "(the O(h^2) midpoint-rule gap)\n")

print("how unbalanced is the uniform grid for that monitor?")
defect = equidist_defect(uniform_grid(spec, n), power)
print(f"  relative defect {defect:.2f} (a converged grid is at ~1e-12)\n")

print("node positions, uniform vs equidistributed (first six):")
for xu, xe in zip(uniform_grid(spec, n).nodes[:6], res.grid.nodes[:6]):
    print(f"  {xu:8.4f}  ->  {xe:8.4f}")
print("  ... later nodes pack into the layer at x = 1")
