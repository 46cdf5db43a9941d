"""What ``import meqc`` costs: the package loads numpy and nothing else from
outside the standard library (the CLI's YAML parser loads with ``meqc.bench``)."""

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
