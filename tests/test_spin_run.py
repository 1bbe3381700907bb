"""The spin-model ``simulate`` runs, pinned byte for byte.

Runs ``simulate`` in-process with each spin model on a 3 x 3 (power, Rabi)
grid with noise, and compares the SHA-256 of every spectrum and of each
run's stdout and stderr with the digests in ``spin_run.sha256``, as
``test_readme_run.py`` does for the README run (which uses the hyperfine
model only). The digests hold for the floating-point results of one numpy
build. A change that moves an output on purpose records them again, from the
repository root, with
``PYTHONPATH=src python tests/test_spin_run.py > tests/spin_run.sha256``.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from odmrkit.cli import main

DIGESTS = Path(__file__).with_name("spin_run.sha256")

SPIN_COMMANDS = [
    ["simulate", "--model", model, "--powers", "0.02:500:3", "--rabis", "0.05:2.5:3",
     "--noise-rel", "0.001", "--out", f"runs/{model}"]
    for model in ("two-level", "five-level-fluorescence", "five-level-ir")
]


def spin_run_digests() -> dict[str, str]:
    """Run the spin commands in the working directory; digest by name."""
    digests = {}
    for argv in SPIN_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == 0, argv
        for stream, text in (("stdout", out), ("stderr", err)):
            digests[f"{argv[2]}.{stream}"] = hashlib.sha256(text.getvalue().encode()).hexdigest()
    for path in sorted(Path("runs").rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            digests[path.as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_spin_run_matches_its_recorded_digests(tmp_path, monkeypatch):
    recorded = dict(
        line.split("  ", 1)[::-1] for line in DIGESTS.read_text(encoding="utf-8").splitlines()
    )
    monkeypatch.chdir(tmp_path)
    digests = spin_run_digests()
    assert sorted(digests) == sorted(recorded)
    changed = [name for name, digest in recorded.items() if digests[name] != digest]
    assert not changed, f"{len(changed)} outputs differ, first: {changed[:5]}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        os.chdir(root)
        for name, digest in spin_run_digests().items():
            sys.stdout.write(f"{digest}  {name}\n")
