"""Package-level checks: the import path and unused imports in the sources."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hamlearn

PACKAGE_DIR = Path(hamlearn.__file__).parent


def test_import_loads_no_scipy():
    # scipy is only needed by frechet_exp's augmented_block route; importing
    # it at package import would add its load time to every start-up
    path = [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = "import hamlearn, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def unused_imports(source: str) -> list:
    """Names bound by import statements that nothing in the module reads.

    Names listed in a literal __all__ count as used (they are re-exports).
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_detected():
    src = "import json\nimport os.path\nfrom typing import Optional\n__all__ = ['Optional']\n"
    assert unused_imports(src) == [(1, "json"), (2, "os")]


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
