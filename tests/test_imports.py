"""No dead imports in the package: a stand-in for a linter's unused-import rule."""

import ast
from pathlib import Path

import pytest

import equifd

MODULES = sorted(Path(equifd.__file__).parent.glob("*.py"))


def unused_imports(path: Path) -> list:
    """Module-level imports that the module never reads and does not list in
    __all__; an import whose lines carry `noqa: F401` is exempt."""
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
        if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{path.name}:{node.lineno}: {name}")
    return unused


def test_modules_found():
    assert {"cli.py", "problem.py", "tridiag.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def test_an_unused_import_is_caught(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("import math\nimport sys\nfrom os import path  # noqa: F401\n"
                      "__all__ = ['sep']\nfrom os import sep\nprint(sys.argv)\n")
    assert unused_imports(module) == ["mod.py:1: math"]
