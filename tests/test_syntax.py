"""The sources stay valid Python 3.10, the oldest version ``pyproject.toml`` allows."""

import ast
import os
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _python310() -> tuple[list[str], dict] | None:
    """A command and environment that run Python 3.10, or None.

    A pyenv shim for ``python3.10`` only runs once a 3.10 version is
    selected, so an installed pyenv 3.10 is selected explicitly.
    """
    exe = shutil.which("python3.10")
    if exe is None:
        return None
    env = dict(os.environ)
    candidates = [env]
    pyenv = shutil.which("pyenv")
    if pyenv is not None:
        listed = subprocess.run([pyenv, "versions", "--bare"], capture_output=True, text=True)
        candidates += [
            {**env, "PYENV_VERSION": version}
            for version in listed.stdout.split()
            if version.startswith("3.10")
        ]
    for candidate in candidates:
        probe = subprocess.run([exe, "--version"], capture_output=True, env=candidate)
        if probe.returncode == 0:
            return [exe], candidate
    return None


def test_sources_compile_under_python_310(tmp_path):
    found = _python310()
    if found is None:
        pytest.skip("no runnable python3.10 on PATH")
    command, env = found
    env = {**env, "PYTHONPYCACHEPREFIX": str(tmp_path)}
    result = subprocess.run(
        command + ["-m", "compileall", "-q", "src", "tests"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.parametrize("folder", ["src", "tests"])
def test_sources_parse_as_python_310(folder):
    """The 3.10 grammar, checked by the running interpreter's parser.

    With ``feature_version`` the parser refuses syntax newer than 3.10,
    such as ``except*``, so this check runs where no 3.10 interpreter is
    installed; the compile above also catches what only a 3.10 compiler
    refuses.
    """
    paths = sorted((ROOT / folder).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
