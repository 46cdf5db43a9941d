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
