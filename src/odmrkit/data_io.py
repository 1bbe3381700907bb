"""File formats, synthetic data generation and the Rabi calibration.

All files are UTF-8 text: ``# key = value`` header lines, one
whitespace-separated column-name line, then whitespace-separated numeric
columns. Floats are written with ``repr`` so write/read round-trips preserve
values bit for bit.

The spectrum and grid tables share one codec: ``_write_table`` writes them
(and the sensitivity-map cells) and ``_read_table`` reads them. The readers
hand the columns to ``Spectrum`` and ``MeasurementGrid``, whose field order
is the file's column order, and leave the checks on the rows' values to
those dataclasses; a value they reject raises :class:`SchemaError` naming
the file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .constants import HYPERFINE_SPLITTING_MHZ, SIDE_RESONANCE_OFFSET_MHZ
from .errors import InsufficientData, ParseError, SchemaError
from .fitting import FitReport, MeasurementGrid
from .lineshape import (
    ContrastModelParams,
    HyperfineModel,
    WidthModelParams,
    _subtract_dips,
    contrast_model,
    contrast_to_amplitude,
    triple_lorentzian,
    width_surface,
)
from .sensitivity import SensitivityMap

_SPECTRUM_COLUMNS = ("freq_mhz", "signal", "sigma")
_GRID_COLUMNS = (
    "power_mw",
    "rabi_mhz",
    "width_mhz",
    "width_sigma",
    "amplitude",
    "amplitude_sigma",
)


@dataclass(frozen=True)
class Spectrum:
    """One measured or synthesized ODMR trace, normalized to a unit baseline."""

    freq_mhz: np.ndarray
    signal: np.ndarray
    sigma: np.ndarray
    power_mw: float | None = None
    rabi_hz: float | None = None
    sample_id: str | None = None

    def __post_init__(self) -> None:
        for name in ("freq_mhz", "signal", "sigma"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.freq_mhz.ndim != 1:
            raise ValueError("spectrum columns must be one-dimensional")
        if not (self.freq_mhz.size == self.signal.size == self.sigma.size):
            raise ValueError("spectrum columns must have equal length")
        if self.freq_mhz.size < 2:
            raise ValueError("spectrum needs at least two points")
        if np.any(np.diff(self.freq_mhz) <= 0.0):
            raise ValueError("freq_mhz must be strictly increasing")
        if np.any(self.sigma <= 0.0):
            raise ValueError("sigma must be positive")
        for name in ("freq_mhz", "signal", "sigma"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        # The spectrum/1 header holds the id on one line and strips it on read.
        sid = self.sample_id
        if sid is not None and ("\n" in sid or "\r" in sid or sid != sid.strip()):
            raise ValueError(
                "sample_id must be one line without leading or trailing whitespace, "
                f"got {sid!r}"
            )

    @property
    def n_points(self) -> int:
        return int(self.freq_mhz.size)


@dataclass(frozen=True)
class SideResonance:
    """A pair of satellite dips offset symmetrically from the line center."""

    amplitude: float
    offset_hz: float = SIDE_RESONANCE_OFFSET_MHZ
    hwhm_hz: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("amplitude must lie in [0, 1)")
        if not self.offset_hz > 0.0:
            raise ValueError("offset_hz must be positive")
        if self.hwhm_hz is not None and not self.hwhm_hz > 0.0:
            raise ValueError("hwhm_hz must be positive when given")


@dataclass(frozen=True)
class RabiCalibration:
    """Square-root calibration f_R = k * sqrt(P_mw) fitted through the origin."""

    k_mhz_per_sqrt_mw: float
    n_records: int
    residual_rms: float
    max_abs_residual: float


def fit_rabi_calibration(records) -> RabiCalibration:
    """Least-squares calibration from (mw_power_mw, rabi_hz) records."""
    data = np.asarray(list(records), dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError("records must be (power, rabi) pairs")
    if data.shape[0] < 2:
        raise InsufficientData("Rabi calibration needs at least 2 records")
    if np.any(data <= 0.0):
        raise ValueError("calibration records must be positive")
    power, rabi = data[:, 0], data[:, 1]
    root = np.sqrt(power)
    k = float(np.sum(rabi * root) / np.sum(power))
    resid = rabi - k * root
    return RabiCalibration(
        k_mhz_per_sqrt_mw=k,
        n_records=int(data.shape[0]),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        max_abs_residual=float(np.max(np.abs(resid))),
    )


def synth_spectrum(
    truth: HyperfineModel,
    *,
    side: SideResonance | None = None,
    noise_rel: float = 0.0,
    seed: int = 0,
    span_hz: float = 80.0,
    n_points: int = 1601,
    power_mw: float | None = None,
    rabi_hz: float | None = None,
    sample_id: str | None = None,
) -> Spectrum:
    """Deterministically synthesize a hyperfine-triplet spectrum.

    Gaussian noise of relative scale ``noise_rel`` is drawn from a fresh
    generator seeded with ``seed``, so equal inputs give identical spectra.
    The sigma column carries the true noise scale, with a small floor for
    noise-free traces so weights stay finite.
    """
    if not span_hz > 0.0 or n_points < 2:
        raise ValueError("need a positive span and at least 2 points")
    if noise_rel < 0.0:
        raise ValueError("noise_rel must be non-negative")
    nu = np.linspace(truth.center_hz - span_hz / 2.0, truth.center_hz + span_hz / 2.0, n_points)
    signal = triple_lorentzian(truth, nu)
    if side is not None:
        signal = _subtract_dips(
            signal,
            nu,
            truth.center_hz,
            (-side.offset_hz, side.offset_hz),
            side.amplitude,
            side.hwhm_hz if side.hwhm_hz is not None else truth.hwhm_hz,
        )
    return _noisy_spectrum(
        nu, signal, noise_rel, seed, power_mw=power_mw, rabi_hz=rabi_hz, sample_id=sample_id
    )


def _noisy_spectrum(freq_mhz, signal, noise_rel: float, seed, **metadata) -> Spectrum:
    """``signal`` plus Gaussian noise of scale ``noise_rel`` from a generator seeded
    with ``seed``; the sigma column carries that scale, floored at 1e-6 so that
    noise-free traces keep finite weights."""
    if noise_rel > 0.0:
        signal = signal + np.random.default_rng(seed).normal(0.0, noise_rel, size=signal.size)
    sigma = np.full(signal.size, max(noise_rel, 1e-6))
    return Spectrum(freq_mhz, signal, sigma, **metadata)


def synth_grid(
    width_params: WidthModelParams,
    contrast_params: ContrastModelParams,
    power_mw: np.ndarray,
    rabi_hz: np.ndarray,
    *,
    noise_width_rel: float = 0.0,
    noise_amp_rel: float = 0.0,
    seed: int = 0,
    splitting_hz: float = HYPERFINE_SPLITTING_MHZ,
) -> MeasurementGrid:
    """Synthesize a fitted-results grid directly from the global models.

    One row per (power, Rabi) combination; widths and amplitudes are
    perturbed by relative Gaussian noise and the sigma columns carry the
    true relative scales (with a floor for the noise-free case).
    """
    powers = np.asarray(power_mw, dtype=float)
    rabis = np.asarray(rabi_hz, dtype=float)
    if powers.size != len(width_params.a_over_g2):
        raise ValueError("width_params must carry one a_over_g2 entry per power")
    if noise_width_rel < 0.0 or noise_amp_rel < 0.0:
        raise ValueError("noise levels must be non-negative")
    rng = np.random.default_rng(seed)
    # Power-major row order: every Rabi value at the first power, then the next.
    rows_p = np.repeat(powers, rabis.size)
    rows_f = np.tile(rabis, powers.size)
    a_rows = np.repeat(np.asarray(width_params.a_over_g2, dtype=float), rabis.size)
    width = width_surface(width_params, a_rows, rows_p, rows_f)
    contrast = contrast_model(contrast_params, rows_p, rows_f)
    amp = contrast_to_amplitude(contrast, width / 2.0, splitting_hz)
    width_sigma = np.maximum(noise_width_rel, 1e-6) * width
    amp_sigma = np.maximum(noise_amp_rel, 1e-6) * amp
    if noise_width_rel > 0.0:
        width = width * (1.0 + noise_width_rel * rng.standard_normal(width.size))
    if noise_amp_rel > 0.0:
        amp = amp * (1.0 + noise_amp_rel * rng.standard_normal(amp.size))
    return MeasurementGrid(
        power_mw=rows_p,
        rabi_hz=rows_f,
        width_hz=width,
        width_sigma=width_sigma,
        amplitude=amp,
        amplitude_sigma=amp_sigma,
    )


def _format_float(x: float) -> str:
    return repr(float(x))


def _parse_float(
    tokens: list[str], index: int, line: str, line_no: int, *, finite: bool = True
) -> float:
    """Parse ``tokens[index]`` of ``line``; the column is located only for an error."""
    token = tokens[index]
    try:
        value = float(token)
    except ValueError:
        column = _token_column(line, index)
        raise ParseError(f"not a number: {token!r}", line_no, column) from None
    if finite and not math.isfinite(value):
        raise ParseError(f"non-finite value: {token!r}", line_no, _token_column(line, index))
    return value


def _token_column(line: str, index: int) -> int:
    """1-based character column where the index-th whitespace token starts."""
    pos = 0
    for _ in range(index + 1):
        while pos < len(line) and line[pos].isspace():
            pos += 1
        start = pos
        while pos < len(line) and not line[pos].isspace():
            pos += 1
    return start + 1


def _to_matrix(rows: list[tuple[int, str]], tokens: list[str], n_columns: int) -> np.ndarray:
    """Convert the collected number tokens, diagnosing them only on failure.

    One ``np.array`` cast converts every token at once. Only when that cast
    fails or meets a non-finite value are the rows walked in file order with
    ``float`` itself, token by token, so the first bad token raises its
    ``ParseError`` with line and column, and a token the cast rejects but
    ``float`` accepts is still read.
    """
    try:
        data = np.array(tokens, dtype=float)
    except ValueError:
        data = None
    if data is None or not np.isfinite(data).all():
        values: list[float] = []
        for line_no, line in rows:
            row = line.split()
            values.extend(_parse_float(row, i, line, line_no) for i in range(len(row)))
        data = np.array(values, dtype=float)
    return data.reshape(-1, n_columns)


def _read_table(path: Path, expected_columns: tuple[str, ...]):
    """Shared reader: header dict, column check, float matrix.

    One pass over the lines collects the header, checks the column-name line
    and each row's token count, and gathers the number tokens in one flat
    list, which ``_to_matrix`` converts in a single cast. A row with the
    wrong token count first has the rows before it diagnosed, so the first
    fault in file order is the one raised.
    """
    n_columns = len(expected_columns)
    header: dict[str, str] = {}
    rows: list[tuple[int, str]] = []
    tokens: list[str] = []
    columns_seen = False
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            # split() and lstrip() agree on what is whitespace, so the first
            # token tells blank and comment lines apart.
            row = line.split()
            if not row:
                continue
            if row[0].startswith("#"):
                body = line.lstrip()[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    header[key.strip()] = value.strip()
                continue
            if not columns_seen:
                if tuple(row) != expected_columns:
                    raise SchemaError(
                        f"{path.name}: expected columns {' '.join(expected_columns)!r}, "
                        f"got {' '.join(row)!r} on line {line_no}"
                    )
                columns_seen = True
                continue
            if len(row) != n_columns:
                _to_matrix(rows, tokens, n_columns)
                raise ParseError(
                    f"expected {n_columns} columns, got {len(row)}", line_no, 1
                )
            rows.append((line_no, line))
            tokens.extend(row)
    if not columns_seen:
        raise SchemaError(f"{path.name}: missing column-name line")
    if not rows:
        raise SchemaError(f"{path.name}: no data rows")
    return header, _to_matrix(rows, tokens, n_columns)


def _format_rows(rows) -> list[str]:
    """Each row of a 2-D array as its ``repr`` floats joined by single spaces."""
    return [" ".join(map(repr, row)) for row in np.asarray(rows, dtype=float).tolist()]


def _write_table(path, title: str, header: dict[str, str], columns, rows) -> None:
    """Shared writer: title line, ``# key = value`` header, column names, rows."""
    lines = [f"# {title}", *(f"# {key} = {value}" for key, value in header.items())]
    lines.append(" ".join(columns))
    lines.extend(_format_rows(rows))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _checked(cls, path: Path, *args, **kwargs):
    """``cls(*args, **kwargs)`` with its ``ValueError`` re-raised as a
    :class:`SchemaError` naming the file."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise SchemaError(f"{path.name}: {exc}") from exc


def write_spectrum(spec: Spectrum, path) -> None:
    header = {"format": "spectrum/1"}
    if spec.power_mw is not None:
        header["power_mw"] = _format_float(spec.power_mw)
    if spec.rabi_hz is not None:
        header["rabi_mhz"] = _format_float(spec.rabi_hz)
    if spec.sample_id is not None:
        header["sample_id"] = spec.sample_id
    rows = np.column_stack((spec.freq_mhz, spec.signal, spec.sigma))
    _write_table(path, "odmr spectrum", header, _SPECTRUM_COLUMNS, rows)


def read_spectrum(path) -> Spectrum:
    path = Path(path)
    header, data = _read_table(path, _SPECTRUM_COLUMNS)

    def opt(key: str) -> float | None:
        text = header.get(key)
        if text is None:
            return None
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if math.isfinite(value) and value > 0.0:
            return value
        raise SchemaError(f"{path.name}: {key} must be a finite positive number, got {text!r}")

    return _checked(
        Spectrum,
        path,
        *data.T,
        power_mw=opt("power_mw"),
        rabi_hz=opt("rabi_mhz"),
        sample_id=header.get("sample_id"),
    )


def write_grid(grid: MeasurementGrid, path) -> None:
    # MeasurementGrid's fields are the grid/1 columns, in file order.
    rows = np.column_stack([getattr(grid, f.name) for f in fields(grid)])
    _write_table(path, "odmr measurement grid", {"format": "grid/1"}, _GRID_COLUMNS, rows)


def read_grid(path) -> MeasurementGrid:
    path = Path(path)
    _, data = _read_table(path, _GRID_COLUMNS)
    return _checked(MeasurementGrid, path, *data.T)


def write_fit_report(report: FitReport, path) -> None:
    path = Path(path)
    lines = ["# odmr fit report", "# format = fitreport/1"]
    for name, value in report.params.items():
        lines.append(f"{name} = {value:.6g} ± {report.ci68[name]:.3g}")
    # least_squares raises instead of returning an unconverged fit, so every
    # report written is converged; fitreport/1 still carries the field.
    lines.append(
        f"# converged = true, n_points = {report.n_points}, iterations = {report.n_iter}"
    )
    lines.append("[machine]")
    for name, value in report.params.items():
        lines.append(f"param {name} {_format_float(value)} {_format_float(report.ci68[name])}")
    lines.append(f"stat cost {_format_float(report.cost)}")
    lines.append(f"stat residual_rms {_format_float(report.residual_rms)}")
    lines.append(f"stat n_points {report.n_points}")
    lines.append(f"stat n_iter {report.n_iter}")
    lines.append("stat converged 1")
    for lo, hi in report.excluded_ranges:
        lines.append(f"excluded {_format_float(lo)} {_format_float(hi)}")
    for flag in report.flags:
        lines.append(f"flag {flag}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_fit_report(path) -> FitReport:
    path = Path(path)
    params: dict[str, float] = {}
    ci68: dict[str, float] = {}
    stats: dict[str, float] = {}
    excluded: list[tuple[float, float]] = []
    flags: list[str] = []
    in_machine = False
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line == "[machine]":
                in_machine = True
                continue
            if not in_machine:
                continue
            tokens = line.split()
            kind = tokens[0]
            if kind == "param":
                if len(tokens) != 4:
                    raise ParseError("param line needs: param name value ci", line_no, 1)
                params[tokens[1]] = _parse_float(tokens, 2, line, line_no)
                ci68[tokens[1]] = _parse_float(tokens, 3, line, line_no, finite=False)
            elif kind == "stat":
                if len(tokens) != 3:
                    raise ParseError("stat line needs: stat name value", line_no, 1)
                stats[tokens[1]] = _parse_float(tokens, 2, line, line_no, finite=False)
            elif kind == "excluded":
                if len(tokens) != 3:
                    raise ParseError("excluded line needs two bounds", line_no, 1)
                low = _parse_float(tokens, 1, line, line_no)
                excluded.append((low, _parse_float(tokens, 2, line, line_no)))
            elif kind == "flag":
                flags.append(line[len("flag ") :])
            else:
                raise ParseError(f"unknown machine record {kind!r}", line_no, 1)
    if not in_machine:
        raise SchemaError(f"{path.name}: missing [machine] block")
    required = {"cost", "residual_rms", "n_points", "n_iter", "converged"}
    missing = required - set(stats)
    if missing:
        raise SchemaError(f"{path.name}: missing stats {sorted(missing)}")
    return FitReport(
        params=params,
        ci68=ci68,
        residual_rms=stats["residual_rms"],
        n_points=int(stats["n_points"]),
        cost=stats["cost"],
        n_iter=int(stats["n_iter"]),
        excluded_ranges=tuple(excluded),
        flags=tuple(flags),
    )


def write_map_cells(smap: SensitivityMap, path) -> None:
    """Column export of the sensitivity map; non-finite cells stay explicit."""
    header = {
        "format": "sensmap/1",
        "argmin_power_mw": _format_float(smap.best_power_mw),
        "argmin_rabi_mhz": _format_float(smap.best_rabi_hz),
        "min_sensitivity_t_per_rthz": _format_float(smap.best_sensitivity),
    }
    n_p, n_r = smap.sensitivity.shape
    rows = np.column_stack(
        (np.repeat(smap.power_mw, n_r), np.tile(smap.rabi_hz, n_p), smap.sensitivity.ravel())
    )
    columns = ("power_mw", "rabi_mhz", "sensitivity_t_per_rthz")
    _write_table(path, "odmr sensitivity map", header, columns, rows)


def write_map_matrix(smap: SensitivityMap, path) -> None:
    """Matrix export: rows follow power_mw, columns follow rabi_mhz."""
    lines = [
        "# odmr sensitivity matrix, T per sqrt(Hz)",
        "# rows: power_mw = " + _format_rows([smap.power_mw])[0],
        "# cols: rabi_mhz = " + _format_rows([smap.rabi_hz])[0],
        *_format_rows(smap.sensitivity),
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
