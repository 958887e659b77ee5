"""README.md names the package's code as it is.

Each inline code span that starts with a dotted name whose first part is
an equifd module (`tridiag.CR_CUTOFF`, `equifd.problem.require`,
`problem.largest(a) = ...`) must resolve, and where a parenthesised
number follows a span that is just the name, `tridiag.CR_CUTOFF` (576),
the name's value must equal it.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import equifd

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {info.name for info in pkgutil.iter_modules(equifd.__path__)}
# an inline code span, and a number in parentheses right after it
SPAN = re.compile(r"`([^`]+)`(?:\s+\(([-+0-9.,eE]+)\))?")
DOTTED = re.compile(r"(?:equifd\.)?(\w+)((?:\.\w+)+)")


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


def resolve(dotted: str):
    module, *attrs = dotted.removeprefix("equifd.").split(".")
    obj = importlib.import_module(f"equifd.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_readme_names_resolve():
    found = readme_names()
    assert ("tridiag.CR_CUTOFF", "tridiag.CR_CUTOFF", "576") in found  # the scan sees them
    for dotted, code, number in found:
        try:
            value = resolve(dotted)
        except AttributeError:
            raise AssertionError(f"README.md names `{code}`, which equifd lacks") from None
        if number is not None and code == dotted:
            assert value == float(number.replace(",", "")), (dotted, number, value)
