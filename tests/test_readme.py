"""README.md and the package's docstrings name the package's code as it is.

Each inline code span in README.md that starts with a dotted name whose
first part is an equifd module (`solver.CR_CUTOFF`,
`equifd.problem.require`, `problem.largest(a) = ...`) must resolve, and
where a parenthesised number follows a span that is just the name,
`solver.CR_CUTOFF` (576), the name's value must equal it.  The sweep
and step counts the notes cite are recomputed, and so are the long
ladder's errors and a long solve's tracemalloc peak, to the digits
printed.

In the docstrings of equifd's modules, classes and functions, every
dotted name whose first part is one of DOCSTRING_MODULES must resolve.
grid and monitor are left out: they double as local variable names, as
in grid.nodes.
"""

import ast
import functools
import importlib
import math
import pkgutil
import re
import threading
import tracemalloc
from pathlib import Path

import equifd
from equifd import (ExactPowerMonitor, GridMapping, ProblemSpec, adapt, analytic_mapped_grid,
                    equidist, equidistribute, max_error, solve_bvp, uniform_grid)
from equifd.experiments import run_table2

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(equifd.__path__[0])
MODULES = {info.name for info in pkgutil.iter_modules(equifd.__path__)}
DOCSTRING_MODULES = ("adapt", "analysis", "equidist", "experiments", "problem", "solver",
                     "tridiag")
# an inline code span, and a number in parentheses right after it
SPAN = re.compile(r"`([^`]+)`(?:\s+\(([-+0-9.,eE]+)\))?")
DOTTED = re.compile(r"(?:equifd\.)?(\w+)((?:\.\w+)+)")
IN_DOCSTRING = re.compile(r"\b(?:equifd\.)?(?:%s)(?:\.\w+)+" % "|".join(DOCSTRING_MODULES))


def readme_names():
    """(dotted name, full span, number or None) for each module-qualified span."""
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)  # fenced blocks
    found = []
    for span in SPAN.finditer(text):
        code, number = span.groups()
        name = DOTTED.match(code)
        if name and name.group(1) in MODULES:
            found.append((name.group(0), code, number))
    return found


def docstring_names():
    """(where, dotted name) for each module-qualified name in a docstring."""
    found = []
    for module in sorted(MODULES):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node) or ""
                where = f"{module}.{getattr(node, 'name', '')}".rstrip(".")
                found.extend((where, name) for name in IN_DOCSTRING.findall(doc))
    return found


def resolve(dotted: str):
    module, *attrs = dotted.removeprefix("equifd.").split(".")
    obj = importlib.import_module(f"equifd.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_readme_names_resolve():
    found = readme_names()
    assert ("solver.CR_CUTOFF", "solver.CR_CUTOFF", "576") in found  # the scan sees them
    for dotted, code, number in found:
        try:
            value = resolve(dotted)
        except AttributeError:
            raise AssertionError(f"README.md names `{code}`, which equifd lacks") from None
        if number is not None and code == dotted:
            assert value == float(number.replace(",", "")), (dotted, number, value)


def test_docstring_names_resolve():
    found = docstring_names()
    assert ("tridiag", "solver.CR_CUTOFF") in found  # the scan sees them
    for where, dotted in found:
        try:
            resolve(dotted)
        except AttributeError:
            raise AssertionError(f"the docstring of {where} names {dotted}, "
                                 "which equifd lacks") from None


def test_readme_sweep_counts(monkeypatch):
    """At lam = 10: the smooth monitors' sweep counts at N = 640, 2560 and
    5120 (benchmark smooth_equidist), and table2's stacked sweeps, those
    of them on a lone row, counted by a wrapper around equidist._sweep,
    the outer steps of its (2, 2) cell, and those of them that carry one
    row, counted by a wrapper around the adaptive loop's solves."""
    text = " ".join(README.read_text().split())
    smooth = re.search(r"`beta = 1/2` takes (\d+) sweeps and `beta = 1/4` takes (\d+)\.", text)
    stacked = re.search(r"table2 makes ([\d,]+) stacked sweeps, and ([\d,]+) of them sweep a "
                        r"lone row, most of them the tail of the \(2, 2\) cell, which alone "
                        r"takes (\d+) outer steps: ([\d,]+) of its (\d+) outer steps carry one "
                        r"row", text)
    assert smooth and stacked, "README.md no longer cites the sweep counts"
    half, quarter = map(int, smooth.groups())
    sweeps, lone, outer, lone_steps, steps = (int(count.replace(",", ""))
                                              for count in stacked.groups())
    assert steps == outer
    spec = ProblemSpec(10.0, 1.0)
    for beta, count in ((0.5, half), (0.25, quarter)):
        for n_cells in (640, 2560, 5120):
            assert equidistribute(ExactPowerMonitor(spec, beta), spec, n_cells).iterations == count

    shapes, solved = [], []
    sweep, solve = equidist._sweep, adapt.solve_stack
    monkeypatch.setattr(equidist, "_sweep",
                        lambda nodes, w: shapes.append(nodes.shape) or sweep(nodes, w))
    monkeypatch.setattr(adapt, "solve_stack",
                        lambda nodes, spec: solved.append(nodes.shape) or solve(nodes, spec))
    cells = run_table2(spec)
    assert len(shapes) == sweeps
    assert sum(len(shape) == 1 for shape in shapes) == lone
    assert all(shape[0] > 1 for shape in shapes if len(shape) == 2)  # no stack of one
    assert [c.iterations for c in cells if (c.alpha, c.beta) == (2.0, 2.0)] == [outer]
    assert len(solved) == outer  # one solve per step, for all rows at once
    assert sum(shape[0] == 1 for shape in solved) == lone_steps


def _reads(value: float, printed: str) -> bool:
    """Whether value, rounded to as many significant digits as printed
    has, is printed."""
    digits = len(printed.split("e")[0].replace(".", "").lstrip("0"))
    return f"{value:.{digits}g}" == printed


def test_readme_long_ladder_and_working_set():
    """The ladder's errors on the analytic grids, rung by rung of table1's
    14-rung ladder (N = 10 to 81920): beta = 1/4 at its last rung above
    the roundoff floor, below the floor over the cited range and above it
    at the rung before; the uniform grid's error and its constant N^2 err
    on every rung from the one cited, but not on the rung before; and the
    tracemalloc peak of a long solve whose thread's workspace is as large,
    in doubles per unknown."""
    text = " ".join(README.read_text().split())
    ladder = re.search(
        r"the ladder \(lam = (\S+), ell = (\S+)\) keeps its orders: beta = (\d+)/(\d+) falls at "
        r"fourth order to (\S+) at N = (\d+) and stays below (\S+), the roundoff floor, from "
        r"N = (\d+) to (\d+); the uniform grid reads (\S+) at N = (\d+) \(`N\^2 err` = (\S+), "
        r"its second-order constant from N = (\d+) on\), and beta = (\d+)/(\d+) reads (\S+) "
        r"there\.", text)
    peak = re.search(r"\(`tracemalloc` peak: (\S+)n at N = (\d+)\)", text)
    assert ladder and peak, "README.md no longer cites the long ladder and the peak"
    (lam, ell, quarter_p, quarter_q, quarter, n_quarter, floor, low, high, uniform, n_uniform,
     constant, n_constant, half_p, half_q, half) = ladder.groups()
    spec = ProblemSpec(float(lam), float(ell))
    rungs = [10 * 2**k for k in range(14)]

    @functools.cache
    def error(beta, n):
        return max_error(solve_bvp(analytic_mapped_grid(GridMapping(spec, beta), n), spec))

    beta = int(quarter_p) / int(quarter_q)
    assert _reads(error(beta, int(n_quarter)), quarter)
    floor, low, high = float(floor), int(low), int(high)
    assert floor == 10.0 ** round(math.log10(floor))  # a power of ten
    assert low in rungs and high == rungs[-1]
    below = [error(beta, n) for n in rungs if low <= n]
    assert floor / 10 < max(below) <= floor < error(beta, low // 2)
    assert _reads(error(0.0, int(n_uniform)), uniform)
    assert int(n_constant) in rungs[1:]
    for n in rungs[rungs.index(int(n_constant)):]:
        assert _reads(n * n * error(0.0, n), constant), n
    n = int(n_constant) // 2
    assert not _reads(n * n * error(0.0, n), constant)
    assert _reads(error(int(half_p) / int(half_q), int(n_uniform)), half)

    n_cells, peaks = int(peak.group(2)), []

    def run():  # in a fresh thread, whose first solve grows its workspace
        grid = uniform_grid(spec, n_cells)
        solve_bvp(grid, spec)
        tracemalloc.start()
        try:
            solve_bvp(grid, spec)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and len(peaks) == 1
    assert _reads(peaks[0] / (8 * (n_cells - 1)), peak.group(1))
