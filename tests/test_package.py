"""Package-level checks: the import path and unused imports in the sources."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hamlearn

PACKAGE_DIR = Path(hamlearn.__file__).parent


def test_import_and_narrow_suite_load_no_scipy_or_pool():
    # scipy is only needed by frechet_exp's augmented_block route, and no
    # path starts a thread, so none loads concurrent.futures: not a narrow
    # suite's lockstep worker, nor a wide suite's rows one at a time at
    # threads >= 2. Loading either would add its load time and memory to
    # every run
    path = [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = (
        "import sys, hamlearn\n"
        "from hamlearn.harness import ExperimentConfig, run_experiment\n"
        "cfg = ExperimentConfig(preset='generic', n_qubits=2, num_instances=2, seed=3, m_terms=2)\n"
        "assert len(run_experiment(cfg, threads=2)) == 2\n"
        "wide = ExperimentConfig(preset='generic', n_qubits=5, num_instances=1, seed=3, m_terms=2)\n"
        "assert len(run_experiment(wide, threads=2)) == 1\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent')))"
    )
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
