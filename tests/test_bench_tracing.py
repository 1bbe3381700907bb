"""The benchmark tracer wraps odmrkit names at their lookup sites.

``bench/tracing.py`` patches module attributes such as ``cli.read_spectrum``
and ``sensitivity.total_width_model``. A refactor that drops or renames one
of them breaks ``bench/run.py --trace 1``; this test catches that without
running the benchmark.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("odmrkit_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_traced_name(monkeypatch):
    tracing = load_tracing()
    # Fresh module objects, so a failed uninstall cannot leak wrappers into
    # the modules the other tests use; monkeypatch puts the originals back.
    for name in [m for m in sys.modules if m == "odmrkit" or m.startswith("odmrkit.")]:
        monkeypatch.delitem(sys.modules, name)
    names = {module for module, _, _ in tracing.SPANNED + tracing.COUNTED} | {"cli"}
    mods = {name: importlib.import_module(f"odmrkit.{name}") for name in names}

    sites = [(module, attr) for module, attr, _ in tracing.SPANNED + tracing.COUNTED]
    missing = [f"{m}.{a}" for m, a in sites if not hasattr(mods[m], a)]
    assert not missing, f"traced names not bound: {missing}"
    originals = {(m, a): getattr(mods[m], a) for m, a in sites}
    commands = dict(mods["cli"]._COMMANDS)

    tracer = tracing.Tracer(mods)
    tracer.install()
    try:
        for (m, a), original in originals.items():
            assert getattr(mods[m], a) is not original, f"{m}.{a} not wrapped"
    finally:
        tracer.uninstall()
    for (m, a), original in originals.items():
        assert getattr(mods[m], a) is original, f"{m}.{a} not restored"
    assert mods["cli"]._COMMANDS == commands
