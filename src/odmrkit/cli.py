"""Command-line interface: simulate, fit, global-fit, sensitivity-map.

Every run writes a ``manifest.json`` with the fully resolved configuration;
feeding that manifest back through ``--config`` reproduces the run. Values
from ``--config`` override command-line flags. Exit codes: 0 on success, 2
for configuration or input-format problems, 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import presets
from .data_io import (
    SideResonance,
    Spectrum,
    _noisy_spectrum,
    read_grid,
    read_spectrum,
    synth_spectrum,
    write_fit_report,
    write_grid,
    write_map_cells,
    write_map_matrix,
    write_spectrum,
)
from .errors import InsufficientData, OdmrError, ParseError, SchemaError
from .fitting import (
    FitReport,
    MeasurementGrid,
    SideResonanceExclusion,
    fit_ap_curve,
    fit_spectra,
    fit_spectrum,  # noqa: F401  (the benchmark tracer spans cli.fit_spectrum)
    global_contrast_fit,
    global_width_fit,
)
from .lineshape import (
    HyperfineModel,
    contrast_model,
    contrast_to_amplitude,
    total_width_model,
)
from .sensitivity import PhotonBudget, log_grid, sensitivity_map
from .spin_models import (
    FiveLevelParams,
    TwoLevelParams,
    five_level_fluorescence,
    five_level_ir_absorption,
    signal_curve,
    two_level_signal,
)


class ConfigError(Exception):
    """Bad flag values, config keys or input file paths."""


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odmrkit",
        description="Simulate, fit and optimize light-narrowed ODMR spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="synthesize spectra over (power, Rabi) settings")
    sim.add_argument(
        "--model",
        choices=["two-level", "five-level-fluorescence", "five-level-ir", "hyperfine"],
        default="hyperfine",
    )
    sim.add_argument("--powers", default="0.02,500", help="comma list or lo:hi:n (log)")
    sim.add_argument("--rabis", default="1.1", help="comma list or lo:hi:n (log)")
    sim.add_argument("--center-mhz", type=float, default=2654.0)
    sim.add_argument("--span-mhz", type=float, default=80.0)
    sim.add_argument("--points", type=int, default=1601)
    sim.add_argument("--noise-rel", type=float, default=0.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--gamma1", type=float, default=0.0005, help="1/us, spin models only")
    sim.add_argument("--gamma2", type=float, default=1.0, help="1/us, spin models only")
    sim.add_argument(
        "--c-pump", type=float, default=0.018, help="pump rate per mW, spin models only"
    )
    sim.add_argument(
        "--side-amplitude",
        type=float,
        default=0.0,
        help="depth of the +-33 MHz side dips (hyperfine model only)",
    )
    sim.add_argument("--sample-id", default=None)
    sim.add_argument("--config", default=None)
    sim.add_argument("--out", default="odmrkit_out")

    fit = sub.add_parser("fit", help="fit spectra and assemble a measurement grid")
    fit.add_argument("--spectra", nargs="+", required=True, help="spectrum files or directories")
    fit.add_argument("--splitting-mhz", type=float, default=2.2)
    fit.add_argument("--exclude-side-mhz", type=float, default=33.0)
    fit.add_argument("--exclusion-window-mhz", type=float, default=20.0)
    fit.add_argument("--no-exclusion", action="store_true")
    fit.add_argument("--config", default=None)
    fit.add_argument("--out", default="odmrkit_out")

    glob = sub.add_parser("global-fit", help="fit the global width/contrast/a(P) models")
    glob.add_argument("--grid", required=True)
    glob.add_argument("--splitting-mhz", type=float, default=2.2)
    glob.add_argument("--config", default=None)
    glob.add_argument("--out", default="odmrkit_out")

    smap = sub.add_parser("sensitivity-map", help="map shot-noise sensitivity over (P, f_R)")
    smap.add_argument("--p-range", default="0.02:500:12", help="lo:hi:n, log spaced")
    smap.add_argument("--fr-range", default="0.05:2.5:12", help="lo:hi:n, log spaced")
    smap.add_argument("--contrast-factor", type=float, default=3.0)
    smap.add_argument("--rate-scale", type=float, default=1.0)
    smap.add_argument("--config", default=None)
    smap.add_argument("--out", default="odmrkit_out")
    return parser


def _apply_config(args: argparse.Namespace) -> None:
    """Overlay values from --config (a flat dict or a previous manifest)."""
    if not getattr(args, "config", None):
        return
    path = Path(args.config)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    if "command" in data and "config" in data:  # a manifest from a previous run
        if data["command"] != args.command:
            raise ConfigError(
                f"manifest is for command {data['command']!r}, not {args.command!r}"
            )
        data = data["config"]
    flags = _flags(args.command)
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest == "out":  # output dir stays a flag so reruns can't clobber the original
            continue
        if dest not in flags:
            raise ConfigError(f"unknown config key {key!r} for command {args.command!r}")
        setattr(args, dest, _config_value(flags[dest], key, value))


def _flags(command: str) -> dict[str, argparse.Action]:
    """The flags of ``command`` by destination, --config and --help aside."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices[command]._actions
    return {a.dest: a for a in actions if a.dest not in ("help", "config")}


def _config_value(action: argparse.Action, key: str, value):
    """A config value, checked and converted as its flag is on the command line."""
    if action.nargs == 0:  # a store_true flag
        if not isinstance(value, bool):
            raise ConfigError(f"config key {key!r} must be true or false, got {value!r}")
        return value
    if value is None and action.default is None and not action.required:
        return None
    many = action.nargs == "+"
    items = value if many and isinstance(value, list) and value else [value]
    try:
        if any(v is None or isinstance(v, (bool, list, dict)) for v in items):
            raise TypeError
        # Through str(), so a JSON number converts as the same command-line text.
        converted = [(action.type or str)(str(v)) for v in items]
        if action.choices is not None and not set(converted) <= set(action.choices):
            raise ValueError
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: {value!r} is not a valid value") from exc
    return converted if many else converted[0]


def _resolved_config(args: argparse.Namespace) -> dict:
    return {key: getattr(args, key) for key in _flags(args.command)}


def _parse_axis(text: str, name: str) -> np.ndarray:
    try:
        if ":" in str(text):
            lo_s, hi_s, n_s = str(text).split(":")
            values = log_grid(float(lo_s), float(hi_s), int(n_s))
        else:
            values = np.asarray([float(tok) for tok in str(text).split(",") if tok.strip()])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"cannot parse --{name} {text!r}: {exc}") from exc
    if values.size == 0:
        raise ConfigError(f"--{name} is empty")
    if np.any(values <= 0.0) or not np.all(np.isfinite(values)):
        raise ConfigError(f"--{name} values must be positive and finite")
    if np.unique(values).size != values.size:
        raise ConfigError(f"--{name} values must be unique")
    return values


def _check_flags(args: argparse.Namespace, sign: str, *flags: str) -> None:
    """Raise ConfigError naming the first of ``flags`` not finite and ``sign``."""
    for flag in flags:
        value = getattr(args, flag.replace("-", "_"))
        if not 0.0 <= value < math.inf or sign == "positive" and value == 0.0:
            raise ConfigError(f"--{flag} must be finite and {sign}, got {value!r}")


def _write_manifest(out_dir: Path, command: str, config: dict, outputs: list[str]) -> None:
    manifest = {"command": command, "config": config, "outputs": sorted(outputs)}
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args: argparse.Namespace) -> int:
    powers = _parse_axis(args.powers, "powers")
    rabis = _parse_axis(args.rabis, "rabis")
    if args.points < 2:
        raise ConfigError("need --points >= 2")
    _check_flags(args, "positive", "span-mhz")
    _check_flags(args, "non-negative", "noise-rel", "side-amplitude")
    if args.side_amplitude and args.model != "hyperfine":
        raise ConfigError("--side-amplitude applies to the hyperfine model only")
    out = _out_dir(args)
    outputs: list[str] = []
    index = 0
    for p_mw in powers:
        for f_r in rabis:
            spec = _simulate_one(args, float(p_mw), float(f_r), index)
            name = f"spectrum_{index:03d}_p{p_mw:g}_f{f_r:g}.txt"
            write_spectrum(spec, out / name)
            outputs.append(name)
            index += 1
    _write_manifest(out, "simulate", _resolved_config(args), outputs)
    print(f"wrote {len(outputs)} spectra to {out}")
    return 0


# Parameter class, pump rate per (c_pump * power) and readout of each spin model.
_SPIN_MODELS = {
    "two-level": (TwoLevelParams, 1.0, two_level_signal),
    "five-level-fluorescence": (FiveLevelParams, 4.0, five_level_fluorescence),
    "five-level-ir": (FiveLevelParams, 4.0, five_level_ir_absorption),
}


def _simulate_one(args: argparse.Namespace, p_mw: float, f_r: float, index: int) -> Spectrum:
    grid = np.linspace(-args.span_mhz / 2.0, args.span_mhz / 2.0, args.points)
    seed = [int(args.seed), index]
    if args.model == "hyperfine":
        width_params = presets.s5_width_params([p_mw])
        fwhm = total_width_model(width_params, p_mw, 0, f_r)
        contrast = contrast_model(presets.S5_CONTRAST, p_mw, f_r)
        amplitude = contrast_to_amplitude(contrast, fwhm / 2.0)
        truth = HyperfineModel(
            amplitude=amplitude, center_hz=args.center_mhz, hwhm_hz=fwhm / 2.0
        )
        side = (
            SideResonance(amplitude=args.side_amplitude)
            if args.side_amplitude > 0.0
            else None
        )
        return synth_spectrum(
            truth,
            side=side,
            noise_rel=args.noise_rel,
            seed=seed,
            span_hz=args.span_mhz,
            n_points=args.points,
            power_mw=p_mw,
            rabi_hz=f_r,
            sample_id=args.sample_id,
        )
    params_cls, pump_per_c, signal_fn = _SPIN_MODELS[args.model]
    params = params_cls(
        gamma1=args.gamma1,
        gamma2=args.gamma2,
        pump_rate=pump_per_c * args.c_pump * p_mw,
        rabi_hz=f_r,
    )
    baseline = signal_fn(params.at_detuning(1e9))
    if baseline <= 0.0:
        raise ConfigError(f"model {args.model!r} has no signal at these rates")
    curve = signal_curve(params, grid, signal_fn) / baseline
    return _noisy_spectrum(
        grid + args.center_mhz,
        curve,
        args.noise_rel,
        seed,
        power_mw=p_mw,
        rabi_hz=f_r,
        sample_id=args.sample_id,
    )


def _collect_spectra(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            files.extend(sorted(q for q in p.iterdir() if q.suffix == ".txt" and q.is_file()))
        elif p.is_file():
            files.append(p)
        else:
            raise ConfigError(f"spectrum path not found: {p}")
    return files


def cmd_fit(args: argparse.Namespace) -> int:
    _check_flags(args, "non-negative", "splitting-mhz")
    _check_flags(args, "positive", "exclude-side-mhz", "exclusion-window-mhz")
    files = _collect_spectra(args.spectra)
    if not files:
        raise InsufficientData("no spectrum files found under the given paths")
    exclusion = None if args.no_exclusion else SideResonanceExclusion(
        delta_hz=args.exclude_side_mhz, window_hz=args.exclusion_window_mhz
    )
    out = _out_dir(args)
    # Nothing is written until every spectrum has been read and fitted, so a
    # spectrum that fails to read leaves no partial output behind.
    reports: list[tuple[str, FitReport]] = []
    rows: list[tuple[float, float, float, float, float, float]] = []
    skipped: list[tuple[str, str]] = []
    failed: list[str] = []
    headers: list[tuple[float | None, float | None]] = []

    def read_all():
        # Read lazily, so only the spectra that fit_spectra holds are in memory.
        for path in files:
            spec = read_spectrum(path)
            headers.append((spec.power_mw, spec.rabi_hz))
            yield spec

    results = fit_spectra(read_all(), splitting_hz=args.splitting_mhz, exclusion=exclusion)
    for index, (path, report) in enumerate(zip(files, results)):
        if isinstance(report, OdmrError):
            # One hopeless spectrum must not abort the batch.
            failed.append(f"{path.name}: {type(report).__name__}: {report}")
            continue
        reports.append((f"fit_{path.stem}.txt", report))
        width = 2.0 * report.params["hwhm_hz"]
        width_sigma = 2.0 * report.ci68["hwhm_hz"]
        amp = report.params["amplitude"]
        amp_sigma = report.ci68["amplitude"]
        power_mw, rabi_hz = headers[index]
        if power_mw is None or rabi_hz is None:
            skipped.append((path.name, "no power_mw/rabi_mhz header"))
        elif not (math.isfinite(width_sigma) and math.isfinite(amp_sigma)):
            skipped.append((path.name, "non-finite interval on width or amplitude"))
        else:
            # One grid/1 row, in MeasurementGrid's field order.
            rows.append(
                (
                    power_mw,
                    rabi_hz,
                    width,
                    max(width_sigma, 1e-9 * width),
                    amp,
                    max(amp_sigma, 1e-9 * abs(amp) + 1e-300),
                )
            )
    for name, report in reports:
        write_fit_report(report, out / name)
    outputs = [name for name, _ in reports]
    if rows:
        write_grid(MeasurementGrid(*np.array(rows).T), out / "grid.txt")
        outputs.append("grid.txt")
    _write_manifest(out, "fit", _resolved_config(args), outputs)
    print(f"fitted {len(files) - len(failed)} of {len(files)} spectra, {len(rows)} grid rows, to {out}")
    for name, reason in skipped:
        print(f"note: {name} not usable for the grid ({reason})")
    for line in failed:
        print(f"error: {line}", file=sys.stderr)
    if failed and len(failed) == len(files):
        return 3
    return 0


def cmd_global_fit(args: argparse.Namespace) -> int:
    _check_flags(args, "non-negative", "splitting-mhz")
    grid = read_grid(args.grid)
    out = _out_dir(args)
    outputs: list[str] = []
    summary: list[str] = ["# odmr global fit summary", "# format = summary/1"]
    failures: list[str] = []

    def harvest(section: str, fname: str, fn):
        summary.append(f"[{section}]")
        try:
            report = fn()
        except OdmrError as exc:
            failures.append(f"{section}: {type(exc).__name__}: {exc}")
            summary.append(f"error = {type(exc).__name__}: {exc}")
            return None
        write_fit_report(report, out / fname)
        outputs.append(fname)
        for name, value in report.params.items():
            summary.append(f"{name} = {value:.6g} ± {report.ci68[name]:.3g}")
        return report

    width_report = harvest("width", "width_fit.txt", lambda: global_width_fit(grid))

    def run_ap():
        if width_report is None:
            raise InsufficientData("width fit unavailable: cannot extract a(P) values")
        powers = grid.unique_powers()
        a_vals = np.asarray(
            [width_report.params[f"a_over_g2[{k}]"] for k in range(powers.size)]
        )
        a_sig = np.asarray(
            [width_report.ci68[f"a_over_g2[{k}]"] for k in range(powers.size)]
        )
        return fit_ap_curve(powers, a_vals, a_sig)

    harvest("ap", "ap_fit.txt", run_ap)
    harvest(
        "contrast",
        "contrast_fit.txt",
        lambda: global_contrast_fit(grid, splitting_hz=args.splitting_mhz),
    )

    (out / "summary.txt").write_text("\n".join(summary) + "\n", encoding="utf-8")
    outputs.append("summary.txt")
    _write_manifest(out, "global-fit", _resolved_config(args), outputs)
    print(f"global fit over {grid.n_points} grid points written to {out}")
    if failures:
        for line in failures:
            print(f"error: {line}", file=sys.stderr)
        return 3
    return 0


def cmd_sensitivity_map(args: argparse.Namespace) -> int:
    powers = _parse_axis(args.p_range, "p-range")
    rabis = _parse_axis(args.fr_range, "fr-range")
    _check_flags(args, "positive", "contrast-factor", "rate-scale")
    budget = PhotonBudget(k_conversion=6.21e-3 * args.rate_scale)
    model = dataclasses.replace(
        presets.s5_sensitivity_model(budget), contrast_factor=args.contrast_factor
    )
    smap = sensitivity_map(model, powers, rabis)
    out = _out_dir(args)
    write_map_cells(smap, out / "map_cells.txt")
    write_map_matrix(smap, out / "map_matrix.txt")
    _write_manifest(
        out,
        "sensitivity-map",
        _resolved_config(args),
        ["map_cells.txt", "map_matrix.txt"],
    )
    print(
        f"sensitivity map {powers.size}x{rabis.size} written to {out}; "
        f"best {smap.best_sensitivity:.3g} T/rtHz at "
        f"P = {smap.best_power_mw:g} mW, f_R = {smap.best_rabi_hz:g} MHz"
    )
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "global-fit": cmd_global_fit,
    "sensitivity-map": cmd_sensitivity_map,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports its own errors on stderr
        return int(exc.code or 0)
    try:
        _apply_config(args)
        return _COMMANDS[args.command](args)
    except (ConfigError, ParseError, SchemaError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OdmrError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
