"""Static checks of the package source; no linter is a dependency."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import voxlabel

MODULES = sorted(p for p in Path(voxlabel.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")   # its imports are re-exports
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names a module-level import binds that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_checker_finds_unused_import():
    source = ("from __future__ import annotations\nimport os.path\n"
              "from json import dumps as d, loads\nloads('1')\n")
    assert unused_imports(source) == ["os", "d"]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_package_imports_no_scipy():
    """A fresh import of the package and its console entry point loads no
    scipy module: the runtime depends on numpy alone."""
    env = {**os.environ, "PYTHONPATH": str(Path(voxlabel.__file__).parents[1])}
    code = ("import sys, voxlabel, voxlabel.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
