"""One tiny round of each benchmark workload.

``bench/run.py`` checks every round's results against its own numpy
reference code (``bench/checks.py``) and counts known faults. A round at
the ``--selftest`` size takes about a second. The benchmark re-imports
odmrkit from ``src/`` and sets thread variables, so it runs in a
subprocess. The spin-model and forward-model workloads must pass every
check with no fault. ``readme_pipeline`` runs the README commands at full
size and fails on known faults of the fit stage, so its round must only
pass every check and attribute each failure to a named fault.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run
result = run.run_benchmark(sys.argv[2], seed=1, seconds=0.0, trace=0, tiny=True)
print(json.dumps({k: result[k] for k in ("attempted", "failed", "faults", "problems")}))
"""


def tiny_round(workload):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(BENCH), workload],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["problems"] == []
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", ["spin_simulate", "forward_models"])
def test_tiny_benchmark_round_has_no_problems_and_no_faults(workload):
    result = tiny_round(workload)
    assert result["failed"] == 0 and not any(result["faults"].values())


def test_readme_round_has_no_problems_and_names_every_failure():
    result = tiny_round("readme_pipeline")
    assert result["failed"] == sum(result["faults"].values())
