"""The README's four commands, pinned byte for byte.

The test runs ``simulate``, ``fit``, ``global-fit`` and ``sensitivity-map``
in-process with the README's arguments. It compares the SHA-256 of every
file they write, manifests aside, and of each command's stdout and stderr
with the digests in ``readme_run.sha256``. Acceptance 10 compares two runs
of the same code; this test compares a run with the recorded one, so a
refactor that moves any output byte fails here. The digests hold for the
floating-point results of one numpy build. A change that moves an output on
purpose records them again, from the repository root, with
``PYTHONPATH=src python tests/test_readme_run.py > tests/readme_run.sha256``.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from odmrkit.cli import main

DIGESTS = Path(__file__).with_name("readme_run.sha256")

README_COMMANDS = [
    ["simulate", "--powers", "0.02:500:12", "--rabis", "0.05:2.5:8",
     "--noise-rel", "0.002", "--seed", "7", "--out", "runs/sim"],
    ["fit", "--spectra", "runs/sim", "--out", "runs/fit"],
    ["global-fit", "--grid", "runs/fit/grid.txt", "--out", "runs/global"],
    ["sensitivity-map", "--p-range", "0.02:500:12", "--fr-range", "0.05:2.5:12",
     "--out", "runs/map"],
]


def readme_run_digests() -> dict[str, str]:
    """Run the README commands in the working directory; digest by name."""
    digests = {}
    for argv in README_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == 0, argv
        for stream, text in (("stdout", out), ("stderr", err)):
            digests[f"{argv[0]}.{stream}"] = hashlib.sha256(text.getvalue().encode()).hexdigest()
    for path in sorted(Path("runs").rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            digests[path.as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_readme_run_matches_its_recorded_digests(tmp_path, monkeypatch):
    recorded = dict(
        line.split("  ", 1)[::-1] for line in DIGESTS.read_text(encoding="utf-8").splitlines()
    )
    monkeypatch.chdir(tmp_path)
    digests = readme_run_digests()
    assert sorted(digests) == sorted(recorded)
    changed = [name for name, digest in recorded.items() if digests[name] != digest]
    assert not changed, f"{len(changed)} outputs differ, first: {changed[:5]}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        os.chdir(root)
        for name, digest in readme_run_digests().items():
            sys.stdout.write(f"{digest}  {name}\n")
