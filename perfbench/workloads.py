"""The benchmark's three workloads: inputs, one pass, and its checks.

A pass returns a dict from operation key to a tuple of plain values; two
passes agree only if those dicts are equal, bit for bit.  The seed only
chooses the order in which a pass visits its operations, so every pass
of every seed must give the same dict.

All calls into equifd go through module attributes (``experiments.run_table2``,
``solver.solve_bvp``, ...) so that the tracer can rebind them.
"""

from __future__ import annotations

import random
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from equifd import analysis, equidist, experiments, grid, monitor, problem, solver

import reference as ref


def make_spec() -> problem.ProblemSpec:
    return problem.ProblemSpec(lam=ref.LAMBDA, ell=ref.ELL)


def _shuffled(rng: random.Random, values) -> tuple:
    out = list(values)
    rng.shuffle(out)
    return tuple(out)


# --- table2 ---------------------------------------------------------------


def _table2_order(rng):
    return _shuffled(rng, ref.TABLE2_ALPHAS), _shuffled(rng, ref.TABLE2_BETAS)


def _table2_pass(spec, order, out_dir: Path) -> dict:
    alphas, betas = order
    cells = experiments.run_table2(spec, n_cells=ref.TABLE2_N, alphas=alphas, betas=betas,
                                   csv_path=out_dir / "table2.csv")
    return {(c.alpha, c.beta): (c.error, c.iterations, c.converged) for c in cells}


def _table2_failures(results: dict) -> set:
    """Cells outside criterion 5's bands, unconverged, or missing."""
    failed = set()
    for key, (ref_error, ref_iters) in ref.SWEEP_REFERENCE.items():
        if key not in results:
            failed.add(key)
            continue
        error, iters, converged = results[key]
        alpha, beta = key
        f = ref.TABLE2_ERROR_FACTOR
        if not (ref_error / f <= error <= ref_error * f) or not converged:
            failed.add(key)
        # the published counts for beta >= 1 at alpha >= 10 are not reproducible
        flagged = beta >= 1.0 and alpha >= 10.0
        f = ref.TABLE2_ITER_FACTOR
        if not flagged and not (ref_iters / f <= iters <= ref_iters * f):
            failed.add(key)
    if any(key not in results for key in ref.SWEEP_REFERENCE):
        return failed
    for alpha in (10.0, 1e2, 1e3, 1e4):
        row = {b: results[(alpha, b)][0] for b in ref.TABLE2_BETAS}
        if min(row, key=row.get) != 0.25:
            failed.add((alpha, 0.25))
    if len({results[(0.0, b)][0] for b in ref.TABLE2_BETAS}) != 1:
        failed |= {(0.0, b) for b in ref.TABLE2_BETAS}
    for alpha in (0.5, 1.0, 2.0, 10.0, 1e2, 1e3, 1e4):
        if not results[(alpha, 2.0)][0] > ref.TABLE2_UNIFORM_ERROR:
            failed.add((alpha, 2.0))
    return failed


# --- ladder ---------------------------------------------------------------


def _ladder_order(rng):
    return _shuffled(rng, ref.LADDER_BETAS)


def _ladder_pass(spec, betas, out_dir: Path) -> dict:
    reports = experiments.run_table1(spec, n_values=ref.LADDER_N, betas=betas,
                                     csv_path=out_dir / "ladder.csv")
    return {(beta, n): (e,) for beta, rep in zip(betas, reports) for n, e, _ in rep.rows}


def _ladder_failures(results: dict) -> set:
    failed = set()
    for key, (lo, hi) in ref.LADDER_BANDS.items():
        if key not in results or not lo <= results[key][0] <= hi:
            failed.add(key)
    return failed


# --- smooth_equidist --------------------------------------------------------


def _smooth_order(rng):
    return _shuffled(rng, [(b, n) for b in ref.SMOOTH_BETAS for n in ref.SMOOTH_N])


def _smooth_pass(spec, order, out_dir: Path) -> dict:
    results = {}
    for beta, n in order:
        try:
            mon = monitor.ExactPowerMonitor(spec, beta)
            res = equidist.equidistribute(mon, spec, n, tol=ref.SMOOTH_TOL)
            sol = solver.solve_bvp(res.grid, spec)
            closed = grid.analytic_mapped_grid(grid.GridMapping(spec, beta), n)
            gap = float(np.max(np.abs(res.grid.nodes - closed.nodes)))
            results[(beta, n)] = (res.iterations, res.final_update,
                                  equidist.equidist_defect(res.grid, mon), gap,
                                  analysis.max_error(sol), res.grid.nodes.tobytes())
        except Exception:
            # an operation that raises counts as failed; the pass goes on
            traceback.print_exc(file=sys.stderr)
    return results


def _smooth_failures(results: dict) -> set:
    failed = set()
    for beta in ref.SMOOTH_BETAS:
        for n in ref.SMOOTH_N:
            key = (beta, n)
            if key not in results:
                failed.add(key)
                continue
            _, update, defect, gap, error, _ = results[key]
            const = ref.SMOOTH_GAP_CONSTANT[beta]
            lo, hi = ref.smooth_error_band(beta, n)
            ok = (update < ref.SMOOTH_TOL
                  and defect <= ref.SMOOTH_DEFECT_CEILING
                  and abs(gap * n * n - const) <= ref.SMOOTH_GAP_BAND * const
                  and lo <= error <= hi)
            if not ok:
                failed.add(key)
    return failed


# --- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    operations: int  # per pass
    order: Callable[[random.Random], object]  # visiting order of one pass
    run_pass: Callable[[problem.ProblemSpec, object, Path], dict]
    failures: Callable[[dict], set]  # keys of operations that fail their check


WORKLOADS = {
    "table2": Workload("table2", len(ref.SWEEP_REFERENCE), _table2_order, _table2_pass,
                       _table2_failures),
    "ladder": Workload("ladder", len(ref.LADDER_BANDS), _ladder_order, _ladder_pass,
                       _ladder_failures),
    "smooth_equidist": Workload("smooth_equidist", len(ref.SMOOTH_BETAS) * len(ref.SMOOTH_N),
                                _smooth_order, _smooth_pass, _smooth_failures),
}

