"""Every name a library module imports is used in that module, and
importing the package leaves scipy unloaded.

No linter ships with the test extras, so this walks the syntax tree of each
module under ``src/crnkit`` (the package ``__init__`` re-exports names on
purpose and is left out)."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "crnkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations and ``__all__`` entries name things too
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_import():
    source = (
        "import os\nimport re\nfrom typing import List, Tuple\n"
        "x: List = []\ndef f() -> 're.Pattern': ...\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "Tuple")]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


def test_importing_crnkit_does_not_load_scipy():
    # scipy is imported only inside the censored stationary solve; loading
    # it with the package about doubled every process's start-up time and
    # added some 28 MiB of peak memory (BENCH_11.json)
    child = "import sys, crnkit; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, check=True, env=env, text=True
    ).stdout
    assert out.strip() == "[]"
