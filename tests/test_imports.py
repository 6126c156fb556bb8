"""Every name a library module imports is used in that module, every
module-level private helper and private instance attribute is used somewhere
in the library, every test oracle is read by a test or by another oracle, and
importing the package leaves scipy unloaded.

No linter ships with the test extras, so this walks the syntax tree of each
module under ``src/crnkit`` (the package ``__init__`` re-exports names on
purpose and is left out), and of ``tests/oracles.py`` and the test modules."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "crnkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def names_used(tree: ast.AST) -> set:
    """The names read under ``tree``, quoted ones included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations and ``__all__`` entries name things too
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used


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
    used = names_used(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _defined(node: ast.stmt) -> list:
    """The names a top-level definition or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _private(module: str, node: ast.stmt, name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def dead_helpers(sources: dict, checked=_private) -> list:
    """(module, line, name) of each top-level definition in ``sources``
    (module name -> source) that ``checked(module, node, name)`` selects,
    by default the private functions, classes and constants, and that no
    other top-level statement of any module reads: by name, as an
    attribute, or imported from its module.  Reads from dead statements do
    not count, so a chain of dead helpers is flagged whole."""
    defined, used_by = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            used = names_used(node)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute):
                    used.add(sub.attr)
                elif isinstance(sub, ast.ImportFrom):
                    used |= {alias.name for alias in sub.names}
            used_by.append((node, used))
            for name in _defined(node):
                if checked(module, node, name):
                    defined.append((module, node, name))
    dead: list = []
    while True:
        gone = {id(node) for _, node, _ in dead}
        more = [
            (module, node, name)
            for module, node, name in defined
            if id(node) not in gone
            and not any(
                name in used
                for other, used in used_by
                if other is not node and id(other) not in gone
            )
        ]
        if not more:
            return sorted((module, node.lineno, name) for module, node, name in dead)
        dead += more


def test_checker_flags_an_unused_import():
    source = (
        "import os\nimport re\nfrom typing import List, Tuple\n"
        "x: List = []\ndef f() -> 're.Pattern': ...\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "Tuple")]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


def test_checker_flags_a_dead_helper():
    sources = {
        "a": (
            "_used = 1\n_dead: int = 2\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "class _Quoted: ...\n_read_as_attribute = 3\n__all__ = []\n"
            "def f(m) -> '_Quoted':\n    return _used + m._read_as_attribute\n"
        ),
        "b": "from .c import _imported\n",
        "c": (
            "def _imported(): ...\n_assigned_twice = 1\n_assigned_twice = 2\n"
            "def _chain_end(): ...\ndef _chain_start():\n    return _chain_end()\n"
        ),
    }
    assert dead_helpers(sources) == [
        ("a", 2, "_dead"),
        ("a", 3, "_recursive"),
        ("c", 2, "_assigned_twice"),
        ("c", 3, "_assigned_twice"),
        ("c", 4, "_chain_end"),
        ("c", 5, "_chain_start"),
    ]


def test_library_has_no_dead_private_helpers():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_helpers(sources) == []


def _methods(node: ast.ClassDef) -> list:
    return [f for f in node.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _inherited(node: ast.ClassDef, classes: dict) -> set:
    """The attribute names the bases of ``node`` define: a base class of
    ``classes`` (name -> class statement) by its methods and its own bases,
    any other by the ``dir`` of the object its dotted name imports."""
    names = set()
    for base in map(ast.unparse, node.bases):
        if base in classes:
            names |= {f.name for f in _methods(classes[base])} | _inherited(classes[base], classes)
        else:
            module, _, name = base.rpartition(".")
            names |= set(dir(getattr(importlib.import_module(module or "builtins"), name)))
    return names


def unread_attributes(sources: dict) -> list:
    """(module, line, name) of each private attribute assigned to ``self``
    (``self._x = ...``) in ``sources`` that no module reads as an
    attribute, and of each ``__slots__`` entry and each non-dunder method of
    a private class that neither its own module nor a module importing the
    class reads.  A method that overrides one its bases define is left out:
    the base's own code calls it."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    classes = {
        node.name: node
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    assigned, members, reads, imported = [], [], {}, {}
    for module, tree in trees.items():
        reads[module], imported[module] = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _private(module, node, node.name):
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign) and "__slots__" in _defined(stmt):
                        members += [
                            (module, c.lineno, c.value, node.name)
                            for c in ast.walk(stmt.value)
                            if isinstance(c, ast.Constant) and isinstance(c.value, str)
                        ]
                inherited = _inherited(node, classes)
                members += [
                    (module, f.lineno, f.name, node.name)
                    for f in _methods(node)
                    if not (f.name.startswith("__") and f.name.endswith("__"))
                    and f.name not in inherited
                ]
            elif isinstance(node, ast.ImportFrom):
                imported[module] |= {alias.name for alias in node.names}
            if not isinstance(node, ast.Attribute):
                continue
            if not isinstance(node.ctx, ast.Store):
                reads[module].add(node.attr)
            elif (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and _private(module, node, node.attr)
            ):
                assigned.append((module, node.lineno, node.attr))
    read = set().union(*reads.values())
    unread = [a for a in assigned if a[2] not in read]
    for module, line, name, cls in members:
        users = [m for m in sources if m == module or cls in imported[m]]
        if not any(name in reads[m] for m in users):
            unread.append((module, line, name))
    return sorted(unread)


def test_checker_flags_an_unread_attribute():
    sources = {
        "a": (
            "class A:\n    def __init__(self):\n"
            "        self._read = 1\n        self._unread = 2\n"
            "        self.public = 3\n        self._read_elsewhere: int = 4\n"
            "        self.__dunder__ = 5\n"
            "    def f(self):\n        return self._read\n"
        ),
        "b": "def g(a):\n    a._stored_only = 0\n    return a._read_elsewhere\n",
    }
    assert unread_attributes(sources) == [("a", 4, "_unread")]


def test_checker_flags_an_unread_slot():
    # a slot counts as read only where its class is defined or imported
    sources = {
        "a": (
            "class _Record:\n    __slots__ = ('read', 'stored_only', 'by_importer', 'elsewhere')\n"
            "class _One:\n    __slots__ = 'unread'\n"
            "class Public:\n    __slots__ = ('public',)\n"
            "def f(r):\n    r.stored_only = 0\n    return r.read\n"
        ),
        "b": "from .a import _Record\ndef g(r: _Record):\n    return r.by_importer\n",
        "c": "def h(t):\n    return t.elsewhere\n",
    }
    assert unread_attributes(sources) == [
        ("a", 2, "elsewhere"),
        ("a", 2, "stored_only"),
        ("a", 4, "unread"),
    ]


def test_checker_flags_an_unread_method():
    # as a slot, a method counts as read only where its class is defined or
    # imported; one that overrides a method of a base is left out
    sources = {
        "a": (
            "import argparse\n"
            "class _Walk:\n"
            "    def __init__(self): ...\n"
            "    def step(self): ...\n"
            "    def by_importer(self): ...\n"
            "    def elsewhere(self): ...\n"
            "    def _unread(self): ...\n"
            "class _Memo(dict):\n    def clear(self): ...\n    def __missing__(self, k): ...\n"
            "class _Deeper(_Memo):\n    def clear(self): ...\n    def fresh(self): ...\n"
            "class _Parser(argparse.ArgumentParser):\n    def error(self, message): ...\n"
            "class Public:\n    def unread(self): ...\n"
            "def f(w):\n    return w.step()\n"
        ),
        "b": "from .a import _Walk\ndef g(w: _Walk):\n    return w.by_importer()\n",
        "c": "def h(w):\n    return w.elsewhere()\n",
    }
    assert unread_attributes(sources) == [
        ("a", 6, "elsewhere"),
        ("a", 7, "_unread"),
        ("a", 13, "fresh"),
    ]


def test_library_reads_every_private_attribute():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_attributes(sources) == []


def _oracle(module: str, node: ast.stmt, name: str) -> bool:
    """The functions and classes of ``oracles.py``."""
    return module == "oracles.py" and isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    )


def test_checker_flags_a_dead_oracle():
    sources = {
        "oracles.py": (
            "LIMIT = 3\ndef read_by_test(): ...\ndef read_by_oracle(): ...\n"
            "def reader():\n    return read_by_oracle()\n"
            "def _chain_end(): ...\ndef _chain_start():\n    return _chain_end()\n"
            "class Unread: ...\n"
        ),
        "test_a.py": (
            "from oracles import read_by_test\nimport oracles\n"
            "def test_it():\n    return oracles.reader(), read_by_test()\n"
        ),
    }
    assert dead_helpers(sources, _oracle) == [
        ("oracles.py", 6, "_chain_end"),
        ("oracles.py", 7, "_chain_start"),
        ("oracles.py", 9, "Unread"),
    ]


def test_every_oracle_is_read():
    paths = [TESTS / "oracles.py", *sorted(TESTS.glob("test_*.py"))]
    sources = {p.name: p.read_text() for p in paths}
    assert dead_helpers(sources, _oracle) == []


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
