"""No dead imports in the package: a stand-in for a linter's unused-import rule.

The benchmark's tracer (perfbench/tracer.py) counts work by rebinding names
in the package's modules, so a few imports stay there for it alone.  Such an
import carries `noqa: F401`, and the mark exempts it only while the tracer's
TRACE_POINTS rebinds that name in that module; the tracer file is only read.
"""

import ast
from pathlib import Path

import pytest

import equifd
from test_trace_points import tracer

MODULES = sorted(Path(equifd.__file__).parent.glob("*.py"))


def traced_names() -> dict:
    """For each module file name, the module-level names TRACE_POINTS rebinds in it."""
    traced = {}
    for module_name, class_name, attr in (point[:3] for point in tracer.TRACE_POINTS):
        if not class_name:
            traced.setdefault(module_name.rsplit(".", 1)[-1] + ".py", set()).add(attr)
    return traced


TRACED = traced_names()


def unused_imports(path: Path, traced=frozenset()) -> list:
    """Module-level imports that the module never reads and does not list in
    __all__; an import whose lines carry `noqa: F401` is exempt for the
    names in traced, the ones the tracer rebinds in this module."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        exempt = traced if any("noqa: F401" in line
                               for line in lines[node.lineno - 1:node.end_lineno]) else ()
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and name not in exempt:
                unused.append(f"{path.name}:{node.lineno}: {name}")
    return unused


def test_modules_found():
    assert {"cli.py", "problem.py", "tridiag.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path, TRACED.get(path.name, set())) == []


def test_an_unused_import_is_caught(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("import math\nimport sys\nfrom os import path  # noqa: F401\n"
                      "__all__ = ['sep']\nfrom os import sep\nprint(sys.argv)\n")
    assert unused_imports(module, {"path"}) == ["mod.py:1: math"]
    # a noqa mark exempts no name the tracer does not rebind here
    assert unused_imports(module) == ["mod.py:1: math", "mod.py:3: path"]

