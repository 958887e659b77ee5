"""README.md and the package's docstrings name the package's code as it is.

Each inline code span in README.md that starts with a dotted name whose
first part is an equifd module (`solver.CR_CUTOFF`,
`equifd.problem.require`, `problem.largest(a) = ...`) must resolve, and
where a parenthesised number follows a span that is just the name,
`solver.CR_CUTOFF` (576), the name's value must equal it.  The sweep
and step counts the notes cite are recomputed.

In the docstrings of equifd's modules, classes and functions, every
dotted name whose first part is one of DOCSTRING_MODULES must resolve.
grid and monitor are left out: they double as local variable names, as
in grid.nodes.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import equifd
from equifd import ExactPowerMonitor, ProblemSpec, equidist, equidistribute
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
    and the outer steps of its (2, 2) cell."""
    text = " ".join(README.read_text().split())
    smooth = re.search(r"`beta = 1/2` takes (\d+) sweeps and `beta = 1/4` takes (\d+)\.", text)
    stacked = re.search(r"table2 makes ([\d,]+) stacked sweeps, and ([\d,]+) of them sweep a "
                        r"lone row, most of them the tail of the \(2, 2\) cell, which alone "
                        r"takes (\d+) outer steps", text)
    assert smooth and stacked, "README.md no longer cites the sweep counts"
    half, quarter = map(int, smooth.groups())
    sweeps, lone, outer = (int(count.replace(",", "")) for count in stacked.groups())
    spec = ProblemSpec(10.0, 1.0)
    for beta, count in ((0.5, half), (0.25, quarter)):
        for n_cells in (640, 2560, 5120):
            assert equidistribute(ExactPowerMonitor(spec, beta), spec, n_cells).iterations == count

    shapes = []
    sweep = equidist._sweep
    monkeypatch.setattr(equidist, "_sweep",
                        lambda nodes, w: shapes.append(nodes.shape) or sweep(nodes, w))
    cells = run_table2(spec)
    assert len(shapes) == sweeps
    assert sum(len(shape) == 1 for shape in shapes) == lone
    assert all(shape[0] > 1 for shape in shapes if len(shape) == 2)  # no stack of one
    assert [c.iterations for c in cells if (c.alpha, c.beta) == (2.0, 2.0)] == [outer]
