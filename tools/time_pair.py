"""Time one case of the working tree against a git revision, in one process.

    python3 tools/time_pair.py BASE [--case table2|lone|smooth|ladder] [--rounds N] [--seed S]

BASE is a git revision of this repository, exported with `git archive`
into a temporary directory.  Both trees' src/equifd are imported into
this one process, under the package names equifd_base and equifd_work,
so the two sides share the interpreter, numpy and the machine's state
from one run to the next.  Each side runs the case once untimed; then
each of the N rounds runs both sides once, in an order drawn from a
random.Random seeded with S, and times each run with perf_counter after
a gc.collect().

The cases, on the paper's problem (lam = 10, ell = 1):

- table2: experiments.run_table2(), the 45 configs in lockstep.
- lone: the (alpha, beta) = (2, 2) config of table2 on its own through
  adapt.adaptive_solve, whose outer loop runs alone after step 1.
- smooth: the six cases of the smooth_equidist benchmark, each as the
  benchmark's pass runs it: equidistribute of the (u_x)^beta monitor for
  beta 1/4 and 1/2 at N = 640, 2560 and 5120, solve_bvp on its grid, the
  largest gap to the closed-form grid, equidist_defect and max_error.
- ladder: experiments.run_table1() over the 14 rungs of cmp_tables.LADDER
  (N = 10 to 81920) for the four table1 grids, the one case whose
  solves are long enough to run the cyclic-reduction kernel.

The script prints each side's median time, the median over rounds of
the working tree's time over the base's, the rounds in which the
working tree was faster, and whether both sides gave the same results
bit for bit.  It needs only numpy and the standard library.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import pickle
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from cmp_tables import LADDER, export  # noqa: E402


def load(package: Path, name: str):
    """The package at package, imported as name, with the submodules the
    cases call."""
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("adapt", "experiments"):
        importlib.import_module(f"{name}.{sub}")
    return module


def table2(eq):
    return [(c.alpha, c.beta, c.error, c.iterations, c.converged)
            for c in eq.experiments.run_table2()]


def lone(eq):
    spec = eq.ProblemSpec(lam=10.0, ell=1.0)
    res = eq.adapt.adaptive_solve(spec, 20, eq.AdaptiveConfig(2.0, 2.0, max_outer=5000))
    return res.history, res.solution.grid.nodes.tobytes()


def smooth(eq):
    spec = eq.ProblemSpec(lam=10.0, ell=1.0)
    out = []
    for beta in (0.25, 0.5):
        for n in (640, 2560, 5120):
            monitor = eq.ExactPowerMonitor(spec, beta)
            res = eq.equidistribute(monitor, spec, n, tol=1e-12)
            sol = eq.solve_bvp(res.grid, spec)
            closed = eq.analytic_mapped_grid(eq.GridMapping(spec, beta), n)
            gap = float(abs(res.grid.nodes - closed.nodes).max())
            out.append((res.iterations, res.final_update, eq.equidist_defect(res.grid, monitor),
                        gap, eq.max_error(sol), res.grid.nodes.tobytes()))
    return out


def ladder(eq):
    reports = eq.experiments.run_table1(n_values=[int(n) for n in LADDER.split(",")])
    return [report.rows for report in reports]


CASES = {"table2": table2, "lone": lone, "smooth": smooth, "ladder": ladder}


def timed(case, eq) -> float:
    gc.collect()
    start = time.perf_counter()
    case(eq)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision to time against")
    parser.add_argument("--case", choices=sorted(CASES), default="table2")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    case = CASES[args.case]
    with tempfile.TemporaryDirectory(prefix="time_pair_") as tmp:
        tree = export(args.base, Path(tmp))
        sides = {"base": load(tree / "src" / "equifd", "equifd_base"),
                 "work": load(ROOT / "src" / "equifd", "equifd_work")}
        same = len({pickle.dumps(case(eq)) for eq in sides.values()}) == 1
        rng = random.Random(args.seed)
        times = {side: [] for side in sides}
        for _ in range(args.rounds):
            order = list(sides)
            rng.shuffle(order)
            for side in order:
                times[side].append(timed(case, sides[side]))
    ratios = [w / b for w, b in zip(times["work"], times["base"])]
    wins = sum(r < 1.0 for r in ratios)
    print(f"case {args.case}, {args.rounds} rounds, seed {args.seed}")
    for side in sides:
        print(f"{side:5s} median {statistics.median(times[side]):.4f} s")
    print(f"work/base median ratio {statistics.median(ratios):.3f} "
          f"(range {min(ratios):.3f}-{max(ratios):.3f}); work faster in {wins} of {args.rounds}")
    print(f"same results: {'yes' if same else 'NO'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
