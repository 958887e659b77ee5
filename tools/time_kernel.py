"""Time the tridiagonal kernel against the frozen reference reduction.

    python3 tools/time_kernel.py [--runs RUNS]

The kernel is equifd.tridiag.solve_in_place, imported from src/ beside
this directory.  The reference is reference_row_sum_reduction, the
copying cyclic reduction that tests/conftest.py keeps frozen, and the
systems are that file's scheme_bands: the centred scheme on the uniform
grid (lam = 10, ell = 1) at n = 10*2**k - 1 unknowns, k = 6..13, the
long rungs of the table1 ladder.  Both functions are read from the
file's source, so that pytest need not be installed.

For each n, RUNS runs alternate between the two, the first side
switching from run to run; each run times a batch of solves.  The
kernel overwrites its inputs, so they are refilled before each of its
solves, outside the timed call; the reference copies the bands itself,
and its time includes those copies.  The script prints per n the
median time per solve of each side, their ratio, and whether the two
solutions agree bit for bit, signs of zeros included.  It exits 1 if
any pair differs.  It needs only numpy and the standard library.
"""

from __future__ import annotations

import argparse
import ast
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from equifd.tridiag import PIVOT_FLOOR, PivotError, solve_in_place  # noqa: E402


def conftest_functions(*names: str) -> dict:
    """The named functions of tests/conftest.py, compiled from its source
    with only numpy and tridiag's names in scope."""
    tree = ast.parse((ROOT / "tests" / "conftest.py").read_text())
    module = ast.Module([node for node in tree.body
                         if isinstance(node, ast.FunctionDef) and node.name in names], [])
    scope = {"np": np, "PIVOT_FLOOR": PIVOT_FLOOR, "PivotError": PivotError}
    exec(compile(module, "tests/conftest.py", "exec"), scope)
    return {name: scope[name] for name in names}


def kernel_layout(lower, diag, upper):
    """The bands in the kernel's layout, lower[0] and upper[-1] unused,
    and the row sums diag + lower + upper, summed as solve_tridiagonal
    sums them."""
    a = np.concatenate(([0.0], lower))
    c = np.concatenate((upper, [0.0]))
    s = diag + a
    s += c
    return a, s, c


def time_kernel(bands, reps: int) -> tuple[float, np.ndarray]:
    """Seconds per solve of solve_in_place over reps solves, and its
    solution."""
    work = [band.copy() for band in bands]
    buf = np.empty((bands[1].size + 1) // 2)
    total = 0.0
    for _ in range(reps):
        for band, fresh in zip(work, bands):
            np.copyto(band, fresh)
        start = time.perf_counter()
        solve_in_place(*work, buf)
        total += time.perf_counter() - start
    return total / reps, work[3]


def time_reference(reference, bands, reps: int) -> tuple[float, np.ndarray]:
    """Seconds per solve of the reference over reps solves, and its
    solution."""
    start = time.perf_counter()
    for _ in range(reps):
        x = reference(*bands)
    return (time.perf_counter() - start) / reps, x


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=15,
                        help="alternating runs of each side per n (default 15)")
    args = parser.parse_args(argv)
    found = conftest_functions("scheme_bands", "reference_row_sum_reduction")
    reference = found["reference_row_sum_reduction"]
    print(f"{'n':>7} {'kernel_us':>10} {'reference_us':>13} {'ratio':>7}  identical")
    differ = 0
    for k in range(6, 14):
        n_cells = 10 * 2**k
        lower, diag, upper, rhs = found["scheme_bands"](np.linspace(0.0, 1.0, n_cells + 1),
                                                        10.0, 0.0, 1.0)
        bands = (*kernel_layout(lower, diag, upper), rhs)
        reps = max(2, 2 ** (13 - k))  # batches of about 3 to 30 ms
        times = {"kernel": [], "reference": []}
        for run in range(args.runs):
            for side in (("kernel", "reference") if run % 2 == 0 else ("reference", "kernel")):
                if side == "kernel":
                    seconds, x = time_kernel(bands, reps)
                else:
                    seconds, y = time_reference(reference, bands, reps)
                times[side].append(seconds)
        same = np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))
        differ += not same
        kernel, ref = (statistics.median(times[side]) for side in ("kernel", "reference"))
        print(f"{n_cells - 1:>7} {kernel * 1e6:>10.1f} {ref * 1e6:>13.1f} {kernel / ref:>7.3f}  "
              f"{'yes' if same else 'NO'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
