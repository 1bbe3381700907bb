"""odmrkit benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload readme_pipeline --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --selftest

Run from the root of a checkout. The package is imported from ``src/`` next to
this directory. With ``--trace 0`` the last line of standard output is a JSON
object holding the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
it holds the per-layer metrics, and the spans go to
``.bench_work/trace_<workload>_<seed>.json``. ``--selftest`` runs every
workload once at a tiny size and checks the printed names and units.
"""

from __future__ import annotations

import os

# One client, one thread: keep BLAS from starting worker threads of its own.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5

import tracing  # noqa: E402  (numpy is imported after the thread settings above)
import workloads  # noqa: E402

STAGE_METRICS = tuple(m for w in workloads.WORKLOADS.values() for m in w.stage_metrics)

SUBMODULES = ("cli", "lineshape", "fitting", "sensitivity", "spin_models", "presets", "errors")


def import_odmrkit():
    """Import odmrkit afresh from this checkout's src/ and return its modules."""
    src = ROOT / "src"
    if not (src / "odmrkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no odmrkit package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "odmrkit" or m.startswith("odmrkit.")]:
        del sys.modules[name]
    package = importlib.import_module("odmrkit")
    if Path(package.__file__).resolve().parent != src / "odmrkit":
        raise SystemExit(f"error: imported odmrkit from {package.__file__}, not {src}")
    return {name: importlib.import_module(f"odmrkit.{name}") for name in SUBMODULES}


def set_up(workload_cls, seed, workdir, tiny):
    """Import plus input generation, repeated; returns (workload, mods, median s)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        mods = import_odmrkit()
        workload = workload_cls(SimpleNamespace(**mods), seed, workdir, tiny=tiny)
        times.append(time.perf_counter() - start)
    return workload, mods, statistics.median(times)


def run_benchmark(name, seed, seconds, trace, tiny=False):
    """Run one workload for ``seconds`` of rounds; return the result object."""
    workdir = WORK / f"{name}_{seed}_{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload, mods, setup_s = set_up(workloads.WORKLOADS[name], seed, workdir, tiny)
        tracer = tracing.Tracer(mods) if trace else None
        plain, traced, layers = [], [], []
        deadline = time.perf_counter() + seconds
        index = 0
        while True:
            plain.append(workload.run_round(index))
            index += 1
            if tracer is not None:
                tracer.install()
                tracer.begin_round()
                try:
                    traced.append(workload.run_round(index))
                finally:
                    tracer.uninstall()
                layers.append(tracer.end_round())
                index += 1
            if time.perf_counter() >= deadline:
                break
        if tracer is not None:
            tracer.write(WORK / f"trace_{name}_{seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return summarize(workload, plain, traced, layers, setup_s)


def median_of(rounds, metric):
    values = [t for r in rounds for t in r.times.get(metric, [])]
    return statistics.median(values) if values else 0.0


def summarize(workload, plain, traced, layers, setup_s):
    rounds = plain + traced
    faults = Counter()
    problems = []
    for r in rounds:
        faults.update(r.faults)
        problems.extend(r.problems)
    stage = {m: median_of(plain, m) for m in STAGE_METRICS}
    end_to_end = {
        "round_s": statistics.median(r.round_s for r in plain),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    per_layer = {}
    if layers:
        for key in layers[0]:
            per_layer[key] = statistics.median(layer[key] for layer in layers)
        per_layer["trace.overhead_s"] = (
            statistics.median(r.round_s for r in traced) - end_to_end["round_s"]
        )
        per_layer.update(stage)
    return {
        "workload": workload.name,
        "rounds": len(rounds),
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "faults": faults,
        "problems": problems,
        "stage": {m: stage[m] for m in workload.stage_metrics},
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def result_line(result, trace, spec):
    section = "per_layer" if trace else "end_to_end"
    values = result[section]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def report(result, seed, trace, spec):
    """Human-readable lines printed ahead of the JSON result."""
    print(f"{result['workload']} seed {seed}: {result['rounds']} rounds, trace {trace}")
    for name, value in result["stage"].items():
        print(f"  {name:<24} {value:.6f} s  (median per call, untraced)")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        print(f"  {name:<24} {result['end_to_end'][name]:.6f} {metric['unit']}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}")
    for fault in workloads.FAULTS:
        if result["faults"][fault]:
            print(f"  failed by known fault {fault}: {result['faults'][fault]}")
    for problem in sorted(set(result["problems"])):
        print(f"CHECK FAILED: {problem}", file=sys.stderr)


def selftest():
    """Every workload once at a tiny size, traced and untraced; no timing asserted."""
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        raise SystemExit(f"selftest: BENCHMARK.json workloads {names} != {sorted(workloads.WORKLOADS)}")
    failures = []
    for name in names:
        for trace in (0, 1):
            result = run_benchmark(name, seed=1, seconds=0.0, trace=trace, tiny=True)
            line = json.loads(result_line(result, trace, spec))
            section = spec["per_layer" if trace else "end_to_end"]
            expected = {m["name"]: m["unit"] for m in section}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            where = f"{name} trace {trace}"
            if got != expected:
                failures.append(f"{where}: metric names or units differ from BENCHMARK.json")
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(line)}")
            if not line["correct"]:
                failures.append(f"{where}: checks failed: {sorted(set(result['problems']))}")
            if line["attempted"] < 1 or line["failed"] != sum(result["faults"].values()):
                failures.append(f"{where}: attempted {line['attempted']}, failed {line['failed']}")
            if any(not isinstance(v["value"], (int, float)) for v in line["metrics"].values()):
                failures.append(f"{where}: a metric value is not a number")
            if trace:
                layer = result["per_layer"]
                zero = {
                    "readme_pipeline": ("spin_models.signal_curve.calls",
                                        "lineshape.convolve_inhomogeneous.points"),
                    "spin_simulate": ("data_io.read_spectrum.calls",
                                      "lineshape.convolve_inhomogeneous.points"),
                    "forward_models": ("data_io.read_spectrum.calls",),
                }[name]
                for key in zero:
                    if layer[key] != 0:
                        failures.append(f"{where}: {key} = {layer[key]}, expected 0")
            print(f"selftest {where}: {line['attempted']} attempted, {line['failed']} failed")
    for failure in failures:
        print(f"SELFTEST FAILED: {failure}", file=sys.stderr)
    print("selftest passed" if not failures else "selftest failed")
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    spec = load_spec()
    result = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    report(result, args.seed, args.trace, spec)
    print(result_line(result, args.trace, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
