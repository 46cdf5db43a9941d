"""What ``import meqc`` costs: the package loads numpy and nothing else from
outside the standard library (the CLI's YAML parser loads with ``meqc.bench``).
And where its source builds cost tables: in one place only."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# modules with no file (Cython's runtime records, ``__mp_main__``) are not packages
PROBE = """
import sys
before = set(sys.modules)
import meqc
loaded = {name.partition(".")[0] for name, module in list(sys.modules.items())
          if name not in before and getattr(module, "__file__", None)}
print(*sorted(loaded - set(sys.stdlib_module_names) - {"meqc"}))
"""


def test_import_loads_no_third_party_module_but_numpy():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", PROBE], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.split() == ["numpy"]


def evaluator_builds(node, owners=()):
    """The class/function path of every ``ScenarioEvaluator(...)`` call under ``node``."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        owners += (node.name,)
    if isinstance(node, ast.Call):
        func = node.func
        if getattr(func, "id", getattr(func, "attr", None)) == "ScenarioEvaluator":
            yield ".".join(owners)
    for child in ast.iter_child_nodes(node):
        yield from evaluator_builds(child, owners)


def test_one_place_builds_an_evaluator():
    """Only ``Scenario.evaluator`` builds an evaluator; every other reader shares it."""
    builds = [
        (path.name, owner)
        for path in sorted((SRC / "meqc").glob("*.py"))
        for owner in evaluator_builds(ast.parse(path.read_text()))
    ]
    assert builds == [("workload.py", "Scenario.evaluator")]


MEMOS = {"lru_cache", "cache"}


def memo_sizes(tree):
    """Line and size of every ``functools.lru_cache``/``cache`` named in ``tree``.

    The size is the node of the call's first argument or ``maxsize``
    keyword; None for a bare decorator.
    """
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "functools"
                for alias in node.names if alias.name in MEMOS}
    sizes = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            given = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            sizes[id(node.func)] = given[0] if given else None
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in MEMOS
                and getattr(node.value, "id", None) == "functools") or (
                isinstance(node, ast.Name) and node.id in imported):
            yield node.lineno, sizes.get(id(node))


def unbounded_memos(source: str) -> list[int]:
    """Lines of the memos in ``source`` that state no integer ``maxsize``."""
    return [line for line, size in memo_sizes(ast.parse(source))
            if not (isinstance(size, ast.Constant) and type(size.value) is int)]


def test_every_memo_is_bounded():
    """A memo without an integer bound grows for the life of the process."""
    sources = {path.name: path.read_text() for path in sorted((SRC / "meqc").glob("*.py"))}
    assert sum(len(list(memo_sizes(ast.parse(s)))) for s in sources.values()) >= 4
    assert {name: unbounded_memos(s) for name, s in sources.items() if unbounded_memos(s)} == {}


def test_unbounded_memos_are_found():
    source = """
import functools
from functools import lru_cache as memo

@functools.lru_cache(maxsize=16)
def a(): pass

@functools.lru_cache(8)
def b(): pass

@functools.lru_cache(maxsize=None)
def c(): pass

@functools.lru_cache
def d(): pass

@functools.cache
def e(): pass

@memo()
def f(): pass

def g(cache):  # a local name, not the functools memo
    return cache
"""
    assert sorted(unbounded_memos(source)) == [11, 14, 17, 20]


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads; ``from __future__`` is exempt.

    ``import a.b`` binds ``a``; any ``Name`` node reading a binding counts
    as a use, annotations included.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_every_import_is_used():
    """A module imports only what it uses; ``__init__.py`` imports to re-export."""
    unused = {path.name: unused_imports(path.read_text())
              for path in sorted((SRC / "meqc").glob("*.py")) if path.name != "__init__.py"}
    assert len(unused) >= 9
    assert {name: names for name, names in unused.items() if names} == {}


def test_unused_imports_are_found():
    source = """
from __future__ import annotations
import os.path
import numpy as np
from typing import Sequence, Iterable as It
from .nn import Mlp

def f(x: It) -> np.ndarray:
    return os.getcwd()
"""
    assert unused_imports(source) == ["Mlp", "Sequence"]
