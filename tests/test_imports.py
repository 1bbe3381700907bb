"""The package imports nothing outside the standard library but numpy."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Modules loaded at interpreter start-up (by ``site``, for instance) are
# already in sys.modules before the import, so only the import's own count.
PROBE = """
import sys
before = set(sys.modules)
import odmrkit, odmrkit.cli
print(" ".join(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_import_adds_only_stdlib_numpy_and_odmrkit():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    added = set(result.stdout.split())
    assert "odmrkit" in added
    foreign = added - set(sys.stdlib_module_names) - {"numpy", "odmrkit"}
    assert foreign == set()
