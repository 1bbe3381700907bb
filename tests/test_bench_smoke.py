"""One tiny round of the spin-model and forward-model benchmark workloads.

``bench/run.py`` checks every round's results against its own numpy
reference code (``bench/checks.py``) and counts known faults. A round at
the ``--selftest`` size takes about a second, so the two workloads that run
the steady-state solves and the convolutions are run here. The benchmark
re-imports odmrkit from ``src/`` and sets thread variables, so it runs in a
subprocess. ``readme_pipeline`` is left out: its round takes several
seconds and it fails on known faults of the fit stage.
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


@pytest.mark.parametrize("workload", ["spin_simulate", "forward_models"])
def test_tiny_benchmark_round_has_no_problems_and_no_faults(workload):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(BENCH), workload],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["problems"] == []
    assert result["failed"] == 0 and not any(result["faults"].values())
    assert result["attempted"] >= 1
