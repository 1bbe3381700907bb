"""File formats, synthetic data generators and the test oracles' Rabi calibration fit."""

import math

import numpy as np
import pytest

from odmrkit import data_io
from odmrkit.data_io import (
    SideResonance,
    Spectrum,
    read_fit_report,
    read_grid,
    read_spectrum,
    synth_grid,
    synth_spectrum,
    write_fit_report,
    write_grid,
    write_map_cells,
    write_map_matrix,
    write_spectrum,
)
from odmrkit.errors import InsufficientData, ParseError, SchemaError
from odmrkit.fitting import MeasurementGrid, fit_spectrum, global_width_fit
from odmrkit.lineshape import (
    APModelParams,
    ContrastModelParams,
    HyperfineModel,
    WidthModelParams,
    a_of_p,
    contrast_model,
    contrast_to_amplitude,
    total_width_model,
    triple_lorentzian,
)
from odmrkit.sensitivity import SensitivityMap, SensitivityModel, log_grid, sensitivity_map
from oracles import fit_rabi_calibration

TRUTH = HyperfineModel(amplitude=0.008, center_hz=2870.0, hwhm_hz=2.0, splitting_hz=2.2)
CONTRAST = ContrastModelParams(theta=22.9e-3, g1_over_c_mw=0.71, g1g2_us2=0.0047)


def width_params(powers):
    return WidthModelParams(
        dnu_inh_hz=3.08,
        ratio_g1_g2=0.0014,
        a_over_g2=tuple(a_of_p(APModelParams(0.5, 0.5, 0.074), p) for p in powers),
        c_over_g2=0.018,
        p0_mw=39.0,
        f0_hz=1.0,
    )


def test_spectrum_roundtrip_is_bit_exact(tmp_path):
    spec = synth_spectrum(
        TRUTH, noise_rel=0.002, seed=3, power_mw=7.0, rabi_hz=1.1, sample_id="S5"
    )
    path = tmp_path / "spec.tsv"
    write_spectrum(spec, path)
    back = read_spectrum(path)
    assert np.array_equal(spec.freq_mhz, back.freq_mhz)
    assert np.array_equal(spec.signal, back.signal)
    assert np.array_equal(spec.sigma, back.sigma)
    assert back.power_mw == 7.0
    assert back.rabi_hz == 1.1
    assert back.sample_id == "S5"


def test_spectrum_roundtrip_without_metadata(tmp_path):
    spec = synth_spectrum(TRUTH, noise_rel=0.001, seed=1)
    path = tmp_path / "spec.tsv"
    write_spectrum(spec, path)
    back = read_spectrum(path)
    assert back.power_mw is None
    assert back.rabi_hz is None
    assert back.sample_id is None
    assert np.array_equal(spec.signal, back.signal)


def test_grid_roundtrip_is_bit_exact(tmp_path):
    powers = np.geomspace(0.02, 500.0, 5)
    grid = synth_grid(
        width_params(powers),
        CONTRAST,
        powers,
        np.geomspace(0.05, 2.5, 4),
        noise_width_rel=0.02,
        noise_amp_rel=0.03,
        seed=5,
    )
    path = tmp_path / "grid.tsv"
    write_grid(grid, path)
    back = read_grid(path)
    for field in (
        "power_mw",
        "rabi_hz",
        "width_hz",
        "width_sigma",
        "amplitude",
        "amplitude_sigma",
    ):
        assert np.array_equal(getattr(grid, field), getattr(back, field))


def test_fit_report_roundtrip_including_inf_ci(tmp_path):
    powers = np.geomspace(0.02, 500.0, 12)
    grid = synth_grid(
        width_params(powers),
        CONTRAST,
        powers,
        np.geomspace(0.05, 2.5, 8),
        noise_width_rel=0.02,
        noise_amp_rel=0.03,
        seed=11,
    )
    report = global_width_fit(grid)
    assert any(np.isinf(v) for v in report.ci68.values())
    path = tmp_path / "report.txt"
    write_fit_report(report, path)
    back = read_fit_report(path)
    assert back.params == report.params
    assert back.ci68 == report.ci68
    assert back.flags == report.flags
    assert back.cost == report.cost
    assert back.residual_rms == report.residual_rms
    assert back.n_points == report.n_points
    assert back.n_iter == report.n_iter
    assert back.excluded_ranges == report.excluded_ranges


def test_fit_report_roundtrip_with_excluded_ranges(tmp_path):
    spec = synth_spectrum(TRUTH, noise_rel=0.002, seed=3)
    report = fit_spectrum(spec)
    assert len(report.excluded_ranges) == 2
    path = tmp_path / "report.txt"
    write_fit_report(report, path)
    back = read_fit_report(path)
    assert back.excluded_ranges == report.excluded_ranges
    assert back.params == report.params


def spectrum_lines(tmp_path):
    spec = synth_spectrum(TRUTH, noise_rel=0.002, seed=3)
    path = tmp_path / "base.tsv"
    write_spectrum(spec, path)
    return path.read_text().splitlines()


def reread(tmp_path, lines):
    path = tmp_path / "edited.tsv"
    path.write_text("\n".join(lines) + "\n")
    return read_spectrum(path)


def test_parse_error_reports_line_and_column(tmp_path):
    lines = spectrum_lines(tmp_path)
    lines[10] = "2830.45 not_a_number 0.002"
    with pytest.raises(ParseError) as err:
        reread(tmp_path, lines)
    assert "line 11" in str(err.value)
    assert "column" in str(err.value)


def test_parse_error_on_short_row_and_nonfinite(tmp_path):
    lines = spectrum_lines(tmp_path)
    hdr = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    row = lines[hdr + 3].split()
    short = lines.copy()
    short[hdr + 3] = f"{row[0]} {row[1]}"
    with pytest.raises(ParseError, match="expected 3 columns"):
        reread(tmp_path, short)
    nonfinite = lines.copy()
    nonfinite[hdr + 3] = f"{row[0]} nan {row[2]}"
    with pytest.raises(ParseError, match="non-finite"):
        reread(tmp_path, nonfinite)


def test_schema_error_on_wrong_columns(tmp_path):
    lines = spectrum_lines(tmp_path)
    hdr = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    lines[hdr] = "freq_mhz signal noise"
    with pytest.raises(SchemaError, match="expected columns"):
        reread(tmp_path, lines)


def test_schema_error_on_empty_unsorted_or_bad_sigma(tmp_path):
    lines = spectrum_lines(tmp_path)
    hdr = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    with pytest.raises(SchemaError, match="no data rows"):
        reread(tmp_path, lines[: hdr + 1])
    swapped = lines.copy()
    swapped[hdr + 1], swapped[hdr + 2] = swapped[hdr + 2], swapped[hdr + 1]
    with pytest.raises(SchemaError, match="strictly increasing"):
        reread(tmp_path, swapped)
    negsig = lines.copy()
    row = negsig[hdr + 3].split()
    negsig[hdr + 3] = f"{row[0]} {row[1]} -0.002"
    with pytest.raises(SchemaError, match="sigma must be positive"):
        reread(tmp_path, negsig)
    with pytest.raises(SchemaError, match="^edited.tsv: spectrum needs at least two points$"):
        reread(tmp_path, lines[: hdr + 2])


@pytest.mark.parametrize("key", ["power_mw", "rabi_mhz"])
@pytest.mark.parametrize("value", ["abc", "nan", "inf", "0", "-1"])
def test_spectrum_header_must_be_finite_positive(tmp_path, key, value):
    head = ["# odmr spectrum", f"# {key} = {value}", "freq_mhz signal sigma"]
    path = write_table(tmp_path, head, SPECTRUM_ROWS)
    with pytest.raises(SchemaError) as info:
        read_spectrum(path)
    assert str(info.value) == (
        f"table.txt: {key} must be a finite positive number, got {value!r}"
    )


def test_writers_emit_the_pinned_bytes(tmp_path):
    # Literal file contents, so a change to any writer's format shows up here.
    def written(writer, obj):
        path = tmp_path / "out.txt"
        writer(obj, path)
        return path.read_bytes().decode("utf-8")

    spec = Spectrum(
        [2869.5, 2870.0, 2870.1],
        [0.1 + 0.2, 1.0, 1e-300],
        [1e-6, 0.002, 2.0 / 3.0],
        power_mw=0.02,
        rabi_hz=1,
        sample_id="s5 left",
    )
    assert written(write_spectrum, spec) == (
        "# odmr spectrum\n# format = spectrum/1\n# power_mw = 0.02\n# rabi_mhz = 1.0\n"
        "# sample_id = s5 left\nfreq_mhz signal sigma\n"
        "2869.5 0.30000000000000004 1e-06\n2870.0 1.0 0.002\n"
        "2870.1 1e-300 0.6666666666666666\n"
    )
    bare = Spectrum([1, 2], [1.0, -0.0], [3, 1e20])
    assert written(write_spectrum, bare) == (
        "# odmr spectrum\n# format = spectrum/1\nfreq_mhz signal sigma\n"
        "1.0 1.0 3.0\n2.0 -0.0 1e+20\n"
    )
    grid = MeasurementGrid(
        [0.02, 500], [1.1, 0.05], [3.5, 1 / 3], [1e-3, 0.01], [0.008, 2e-5], [1e-4, 5e-6]
    )
    assert written(write_grid, grid) == (
        "# odmr measurement grid\n# format = grid/1\n"
        "power_mw rabi_mhz width_mhz width_sigma amplitude amplitude_sigma\n"
        "0.02 1.1 3.5 0.001 0.008 0.0001\n"
        "500.0 0.05 0.3333333333333333 0.01 2e-05 5e-06\n"
    )
    smap = SensitivityMap(
        np.array([0.02, 3.0]),
        np.array([0.05, 0.5, 2.5]),
        np.array([[np.inf, 1.5e-9, 2e-9], [1 / 3 * 1e-9, 7e-10, np.inf]]),
        (1, 1),
    )
    assert written(write_map_cells, smap) == (
        "# odmr sensitivity map\n# format = sensmap/1\n# argmin_power_mw = 3.0\n"
        "# argmin_rabi_mhz = 0.5\n# min_sensitivity_t_per_rthz = 7e-10\n"
        "power_mw rabi_mhz sensitivity_t_per_rthz\n"
        "0.02 0.05 inf\n0.02 0.5 1.5e-09\n0.02 2.5 2e-09\n"
        "3.0 0.05 3.333333333333333e-10\n3.0 0.5 7e-10\n3.0 2.5 inf\n"
    )
    assert written(write_map_matrix, smap) == (
        "# odmr sensitivity matrix, T per sqrt(Hz)\n"
        "# rows: power_mw = 0.02 3.0\n# cols: rabi_mhz = 0.05 0.5 2.5\n"
        "inf 1.5e-09 2e-09\n3.333333333333333e-10 7e-10 inf\n"
    )


def test_read_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_spectrum(tmp_path / "nope.tsv")


# Hand-written tables for pinning the diagnostics: the header takes lines 1-3,
# so the k-th data row sits on line 4 + k.
SPECTRUM_HEAD = ["# odmr spectrum", "# format = spectrum/1", "freq_mhz signal sigma"]
SPECTRUM_ROWS = [
    "2869.0 0.999 0.002",
    "2870.0 0.99 0.002",
    "2871.0 0.998 0.002",
    "2872.0 1.0 0.002",
    "2873.0 0.997 0.002",
]
GRID_HEAD = [
    "# odmr measurement grid",
    "# format = grid/1",
    "power_mw rabi_mhz width_mhz width_sigma amplitude amplitude_sigma",
]
GRID_ROWS = [
    "0.5 0.1 4.0 0.1 0.008 0.0002",
    "0.5 0.2 4.5 0.1 0.009 0.0002",
    "5.0 0.1 3.5 0.1 0.007 0.0002",
    "5.0 0.2 4.2 0.1 0.008 0.0002",
]


TABLES = {read_spectrum: (SPECTRUM_HEAD, SPECTRUM_ROWS), read_grid: (GRID_HEAD, GRID_ROWS)}


def write_table(tmp_path, head, rows, newline="\n"):
    path = tmp_path / "table.txt"
    path.write_bytes((newline.join(head + rows) + newline).encode("utf-8"))
    return path


def parse_failure(tmp_path, edits, *, reader=read_spectrum):
    """(message, line, column) of the ParseError raised by an edited table."""
    head, rows = TABLES[reader]
    rows = list(rows)
    for k, text in edits.items():
        rows[k] = text
    with pytest.raises(ParseError) as err:
        reader(write_table(tmp_path, head, rows))
    return str(err.value), err.value.line, err.value.column


@pytest.mark.parametrize(
    "edits, expected",
    [
        # Bad tokens after tabs and repeated spaces: the column is the token's.
        ({1: "2870.0\t  0.99x \t0.002"}, ("not a number: '0.99x'", 5, 10)),
        ({2: "  2871.0 \t0.998\t\t  bad"}, ("not a number: 'bad'", 6, 20)),
        ({1: "2870.0 nan 0.002"}, ("non-finite value: 'nan'", 5, 8)),
        ({1: "2870.0 0.99 inf"}, ("non-finite value: 'inf'", 5, 13)),
        ({0: "1e400 0.999 0.002"}, ("non-finite value: '1e400'", 4, 1)),
        ({2: "2871.0 0.998"}, ("expected 3 columns, got 2", 6, 1)),
        ({2: "2871.0 0.998 0.002 7"}, ("expected 3 columns, got 4", 6, 1)),
        # The first fault in file order wins, whatever its kind.
        ({1: "2870.0 abc 0.002", 3: "2872.0 1.0"}, ("not a number: 'abc'", 5, 8)),
        ({1: "2870.0 0.99", 3: "2872.0 abc 0.002"}, ("expected 3 columns, got 2", 5, 1)),
        ({1: "2870.0 nan 0.002", 3: "2872.0 abc 0.002"}, ("non-finite value: 'nan'", 5, 8)),
        ({1: "2870.0 abc 0.002", 3: "2872.0 nan 0.002"}, ("not a number: 'abc'", 5, 8)),
        ({1: "2870.0 inf 0.002", 3: "2872.0 1.0"}, ("non-finite value: 'inf'", 5, 8)),
        # Two faults in one row: the left one wins.
        ({1: "abc nan 0.002"}, ("not a number: 'abc'", 5, 1)),
        ({1: "2870.0 nan xyz"}, ("non-finite value: 'nan'", 5, 8)),
    ],
)
def test_spectrum_parse_error_pins_message_line_and_column(tmp_path, edits, expected):
    message, line, column = expected
    assert parse_failure(tmp_path, edits) == (
        f"{message} (line {line}, column {column})",
        line,
        column,
    )


def test_grid_parse_error_pins_message_line_and_column(tmp_path):
    assert parse_failure(
        tmp_path, {2: "5.0\t0.1  3.5 0.1 0.0o7 0.0002"}, reader=read_grid
    ) == ("not a number: '0.0o7' (line 6, column 18)", 6, 18)
    assert parse_failure(
        tmp_path, {1: "0.5 0.2 4.5 0.1 0.009", 3: "5.0 0.2 4.2 0.1 -inf 0.0002"},
        reader=read_grid,
    ) == ("expected 6 columns, got 5 (line 5, column 1)", 5, 1)


@pytest.mark.parametrize("reader", [read_spectrum, read_grid])
def test_crlf_and_unicode_whitespace_rows_parse_as_plain_rows(tmp_path, reader):
    head, rows = TABLES[reader]
    plain = reader(write_table(tmp_path, head, rows))
    columns = [f for f in vars(plain) if isinstance(getattr(plain, f), np.ndarray)]

    def same(other):
        return all(np.array_equal(getattr(plain, f), getattr(other, f)) for f in columns)

    assert same(reader(write_table(tmp_path, head, rows, newline="\r\n")))
    # A form feed or line separator inside a row separates tokens but does not
    # end the line, so line numbers after it stay those of the file.
    odd = list(rows)
    odd[0] = odd[0].replace(" ", "\x0c", 1)
    odd[1] = odd[1].replace(" ", "\u2028", 1)
    assert same(reader(write_table(tmp_path, head, odd)))
    parts = odd[3].split(" ")
    odd[3] = " ".join([parts[0] + "\x0cx"] + parts[2:])
    column = len(parts[0]) + 2
    with pytest.raises(ParseError) as err:
        reader(write_table(tmp_path, head, odd, newline="\r\n"))
    assert str(err.value) == f"not a number: 'x' (line 7, column {column})"
    assert (err.value.line, err.value.column) == (7, column)


@pytest.mark.parametrize(
    "token, outcome",
    [
        ("1_000", 1000.0),
        ("١٢", 12.0),
        ("Infinity", "non-finite value: 'Infinity'"),
        ("-0.0", -0.0),
        ("5e-324", 5e-324),
        ("0x10", "not a number: '0x10'"),
        ("1d5", "not a number: '1d5'"),
        ("nan(123)", "not a number: 'nan(123)'"),
    ],
)
def test_tokens_are_accepted_exactly_as_by_float(tmp_path, token, outcome):
    rows = list(SPECTRUM_ROWS)
    rows[2] = f"2871.0 {token} 0.002"
    path = write_table(tmp_path, SPECTRUM_HEAD, rows)
    if isinstance(outcome, str):
        with pytest.raises(ParseError) as err:
            read_spectrum(path)
        assert str(err.value) == f"{outcome} (line 6, column 8)"
    else:
        value = read_spectrum(path).signal[2]
        assert np.array([value]).tobytes() == np.array([outcome]).tobytes()


def test_spectrum_roundtrip_is_bit_exact_for_extreme_values(tmp_path):
    extremes = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1 + 0.2]
    spec = Spectrum(
        freq_mhz=np.arange(len(extremes), dtype=float),
        signal=extremes,
        sigma=extremes[1:] + [0.1 + 0.2],
    )
    path = tmp_path / "spec.tsv"
    write_spectrum(spec, path)
    back = read_spectrum(path)
    assert back.signal.tobytes() == spec.signal.tobytes()
    assert back.sigma.tobytes() == spec.sigma.tobytes()


def test_spectrum_writer_memo_gives_the_bytes_of_plain_repr(tmp_path):
    # write_spectrum reuses the previous spectrum's strings for a column with
    # equal bits; each file must still be the one per-value repr would give.
    def plain(spec):
        rows = zip(spec.freq_mhz.tolist(), spec.signal.tolist(), spec.sigma.tolist())
        lines = ["# odmr spectrum", "# format = spectrum/1", "freq_mhz signal sigma"]
        return "\n".join(lines + [" ".join(map(repr, row)) for row in rows]) + "\n"

    rng = np.random.default_rng(5)
    freq = np.linspace(2830.0, 2910.0, 1601)
    ulp = freq.copy()
    ulp[-1] = np.nextafter(ulp[-1], np.inf)
    signal = 1.0 - 0.01 * rng.random(1601)
    sigma = np.full(1601, 0.002)
    smap = SensitivityMap(
        np.array([0.02, 3.0]), np.array([0.5]), np.array([[1e-9], [2e-9]]), (0, 0)
    )
    grid = MeasurementGrid([0.5, 5.0], [1.1] * 2, [3.5, 4.0], [0.1] * 2, [0.008] * 2, [1e-4] * 2)
    sequence = [
        Spectrum(freq, signal, sigma),
        Spectrum(freq, signal[::-1], sigma),  # shared freq and sigma
        Spectrum(ulp, signal, sigma),  # freq one ulp off in its last element
        Spectrum(freq, np.full(1601, -0.0), np.full(1601, 1e-6)),  # constant -0.0
        Spectrum(freq, np.zeros(1601), sigma),  # 0.0 after -0.0
        Spectrum([-0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [1.0, 1.0, 1.0]),  # 1601 -> 3
        Spectrum([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [1.0, 1.0, 1.0]),
        grid,
        smap,
        Spectrum(freq, signal, sigma),  # 3 -> 1601
        Spectrum(ulp, signal, sigma),
    ]
    for k, item in enumerate(sequence):
        path = tmp_path / f"out_{k}.txt"
        if isinstance(item, MeasurementGrid):
            write_grid(item, path)
        elif isinstance(item, SensitivityMap):
            write_map_cells(item, path)
        else:
            write_spectrum(item, path)
            assert path.read_bytes() == plain(item).encode("utf-8"), k
    # A column changed in place between two writes is formatted afresh.
    moved = freq.copy()
    write_spectrum(Spectrum(moved, signal, sigma), tmp_path / "before.txt")
    moved[0] -= 1.0
    write_spectrum(Spectrum(moved, signal, sigma), tmp_path / "after.txt")
    assert (tmp_path / "after.txt").read_bytes() == plain(Spectrum(moved, signal, sigma)).encode()


REPORT_LINES = [
    "# odmr fit report",
    "# format = fitreport/1",
    "[machine]",
    "param amplitude 0.008 0.0001",
    "stat cost 1.0",
    "stat residual_rms 0.5",
    "stat n_points 10",
    "stat n_iter 3",
    "stat converged 1",
    "excluded 2860.0 2862.0",
]


@pytest.mark.parametrize(
    "line, expected",
    [
        # Columns count on the stripped line.
        ("  param hwhm_hz\t 2.0x 0.01", ("not a number: '2.0x'", 16)),
        ("param hwhm_hz nan 0.01", ("non-finite value: 'nan'", 15)),
        ("param hwhm_hz 2.0 abc", ("not a number: 'abc'", 19)),
        ("stat cost  x", ("not a number: 'x'", 12)),
        ("excluded 1.0 inf", ("non-finite value: 'inf'", 14)),
        ("excluded 1.0", ("excluded line needs two bounds", 1)),
    ],
)
def test_fit_report_parse_error_pins_message_line_and_column(tmp_path, line, expected):
    path = tmp_path / "report.txt"
    path.write_text("\n".join(REPORT_LINES[:4] + [line] + REPORT_LINES[4:]) + "\n")
    message, column = expected
    with pytest.raises(ParseError) as err:
        read_fit_report(path)
    assert str(err.value) == f"{message} (line 5, column {column})"
    assert (err.value.line, err.value.column) == (5, column)


@pytest.mark.parametrize(
    "line", ["stat n_points 2.5", "stat n_points -4", "stat n_iter inf", "stat n_iter nan"]
)
def test_fit_report_counts_must_be_non_negative_integers(tmp_path, line):
    key = line.split()[1]
    lines = [line if text.startswith(f"stat {key} ") else text for text in REPORT_LINES]
    path = tmp_path / "report.txt"
    path.write_text("\n".join(lines) + "\n")
    message = f"report.txt: stat {key} must be a non-negative integer"
    with pytest.raises(SchemaError, match=message):
        read_fit_report(path)


def test_clean_files_never_reach_the_walker(tmp_path, monkeypatch):
    # Well-formed files are read by the one loadtxt pass; the line walker and
    # the token column are only needed for an error message.
    def no_walk(path, lines, expected_columns):
        raise AssertionError("_walk_table called on a clean file")

    def no_column(line, index):
        raise AssertionError("_token_column called on a clean file")

    monkeypatch.setattr(data_io, "_walk_table", no_walk)
    monkeypatch.setattr(data_io, "_token_column", no_column)
    spec = synth_spectrum(
        TRUTH, noise_rel=0.002, seed=7, power_mw=7.0, rabi_hz=1.1, sample_id="S5 left"
    )
    write_spectrum(spec, tmp_path / "spec.txt")
    back = read_spectrum(tmp_path / "spec.txt")
    assert back.signal.tobytes() == spec.signal.tobytes()
    assert (back.power_mw, back.rabi_hz, back.sample_id) == (7.0, 1.1, "S5 left")
    powers = np.array([0.5, 5.0, 50.0])
    grid = synth_grid(
        width_params(powers), CONTRAST, powers, np.array([0.1, 1.0]), noise_width_rel=0.02
    )
    write_grid(grid, tmp_path / "grid.txt")
    assert read_grid(tmp_path / "grid.txt").width_hz.tobytes() == grid.width_hz.tobytes()
    path = tmp_path / "report.txt"
    path.write_text("\n".join(REPORT_LINES + ["param hwhm_hz 2.0 inf"]) + "\n")
    report = read_fit_report(path)
    assert report.ci68 == {"amplitude": 0.0001, "hwhm_hz": math.inf}
    assert report.excluded_ranges == ((2860.0, 2862.0),)


FUZZ_TOKENS = ["1_000", "١٢", "0x10", "nan", "1e400", "#", "-inf", "1e", "-0.0", "5e-324"]
FUZZ_SEPARATORS = [" ", "\t", "\x0c", "\x85", " ", "\xa0", "\x00", "  \t"]


def fuzz_table(rng) -> str:
    """A spectrum table that is mostly well formed, with rare odd tokens,
    separators, token counts, comment lines inside the data and CRLF."""

    def pick(options):
        return options[rng.integers(len(options))]

    def token():
        if rng.random() < 0.04:
            return pick(FUZZ_TOKENS)
        value = float(rng.normal(0.0, 10.0 ** rng.integers(-5, 5)))
        return pick([repr(value), f"{value:.3g}", f"{value:+.2e}", f"{value:.1f}"])

    def sep():
        return pick(FUZZ_SEPARATORS) if rng.random() < 0.1 else " "

    lines = ["# odmr spectrum", "# format = spectrum/1"]
    if rng.random() < 0.3:
        lines.append(f"#{sep()}power_mw = {token()}")
    if rng.random() < 0.02:
        lines.append("freq_mhz signal")
    elif rng.random() > 0.02:
        lines.append(sep().join(["freq_mhz", "signal", "sigma"]))
    for _ in range(rng.integers(0, 7)):
        if rng.random() < 0.03:
            lines.append(f"# sample_id = {token()}")
        if rng.random() < 0.05:
            lines.append(pick(["", "  ", "\x0c", " "]))
        n = pick([2, 4]) if rng.random() < 0.03 else 3
        row = sep().join(token() for _ in range(n))
        lines.append(sep() + row + sep() if rng.random() < 0.1 else row)
    return pick(["\n", "\r\n"]).join(lines) + "\n"


def read_outcome(read, path):
    try:
        header, data = read(path)
    except (ParseError, SchemaError) as exc:
        return type(exc), str(exc)
    return header, data.shape, data.tobytes()


def test_table_reader_agrees_with_the_line_walker(tmp_path, monkeypatch):
    walker = data_io._walk_table
    walked = []

    def counting_walker(path, lines, expected_columns):
        walked.append(path)
        return walker(path, lines, expected_columns)

    monkeypatch.setattr(data_io, "_walk_table", counting_walker)
    rng = np.random.default_rng(20261020)
    columns = ("freq_mhz", "signal", "sigma")

    def walk(path):
        return walker(path, path.read_text(encoding="utf-8").split("\n"), columns)

    n_tables = 2500
    for k in range(n_tables):
        path = tmp_path / "table.txt"
        path.write_bytes(fuzz_table(rng).encode("utf-8"))
        fast = read_outcome(lambda p: data_io._read_table(p, columns), path)
        assert fast == read_outcome(walk, path), (k, path.read_bytes())
    # Both paths are exercised: most tables are clean, many are not.
    assert 0.2 * n_tables < len(walked) < 0.8 * n_tables


def test_synth_spectrum_deterministic_per_seed():
    a = synth_spectrum(TRUTH, noise_rel=0.01, seed=42)
    b = synth_spectrum(TRUTH, noise_rel=0.01, seed=42)
    c = synth_spectrum(TRUTH, noise_rel=0.01, seed=43)
    assert np.array_equal(a.signal, b.signal)
    assert not np.array_equal(a.signal, c.signal)


def test_synth_spectrum_noiseless_matches_model():
    spec = synth_spectrum(TRUTH, noise_rel=0.0, seed=0)
    assert np.array_equal(spec.signal, triple_lorentzian(TRUTH, spec.freq_mhz))
    # The quoted sigma never collapses to zero.
    assert np.all(spec.sigma >= 1e-6)


def test_synth_spectrum_side_resonances_show_up():
    side = SideResonance(amplitude=0.004)
    with_side = synth_spectrum(TRUTH, side=side, noise_rel=0.0, seed=0)
    without = synth_spectrum(TRUTH, noise_rel=0.0, seed=0)
    delta = without.signal - with_side.signal
    at_side = np.abs(with_side.freq_mhz - (2870.0 + 33.0)) < 1.0
    far = np.abs(np.abs(with_side.freq_mhz - 2870.0) - 16.0) < 1.0
    assert np.max(delta[at_side]) > 0.003
    assert np.max(np.abs(delta[far])) < 5e-4


def test_synth_grid_noiseless_matches_models():
    powers = np.geomspace(0.02, 500.0, 3)
    rabis = np.geomspace(0.05, 2.5, 2)
    wp = width_params(powers)
    grid = synth_grid(wp, CONTRAST, powers, rabis)
    k = 0
    for i, p in enumerate(powers):
        for r in rabis:
            assert grid.power_mw[k] == p
            assert grid.rabi_hz[k] == r
            w = total_width_model(wp, p, i, r)
            assert grid.width_hz[k] == w
            amp = contrast_to_amplitude(contrast_model(CONTRAST, p, r), w / 2.0)
            assert grid.amplitude[k] == amp
            k += 1


def test_synth_grid_requires_matching_a_entries():
    powers = np.geomspace(0.02, 500.0, 4)
    with pytest.raises(ValueError, match="one a_over_g2 entry per power"):
        synth_grid(width_params(powers[:3]), CONTRAST, powers, np.array([0.5, 1.0, 2.0]))


def test_spectrum_validation():
    with pytest.raises(ValueError, match="equal length"):
        Spectrum(np.array([1.0, 2.0]), np.array([1.0]), np.array([0.1, 0.1]))
    with pytest.raises(ValueError, match="strictly increasing"):
        Spectrum(np.array([2.0, 1.0]), np.ones(2), np.full(2, 0.1))
    with pytest.raises(ValueError, match="sigma must be positive"):
        Spectrum(np.array([1.0, 2.0]), np.ones(2), np.array([0.1, -0.1]))


def test_rabi_calibration_exact_square_root_law():
    cal = fit_rabi_calibration([(1.0, 0.5), (4.0, 1.0), (9.0, 1.5)])
    assert cal.k_mhz_per_sqrt_mw == pytest.approx(0.5, abs=1e-15)
    assert cal.n_records == 3
    assert cal.residual_rms == 0.0
    assert cal.max_abs_residual == 0.0


def test_rabi_calibration_least_squares_slope():
    records = [(1.0, 0.52), (4.0, 0.98), (9.0, 1.55)]
    cal = fit_rabi_calibration(records)
    p = np.array([r[0] for r in records])
    f = np.array([r[1] for r in records])
    want = float(np.sum(f * np.sqrt(p)) / np.sum(p))
    assert abs(cal.k_mhz_per_sqrt_mw - want) < 1e-15
    assert cal.max_abs_residual >= cal.residual_rms > 0.0


def test_rabi_calibration_input_validation():
    with pytest.raises(InsufficientData):
        fit_rabi_calibration([(1.0, 0.5)])
    with pytest.raises(ValueError):
        fit_rabi_calibration([(1.0, 0.5), (4.0, -1.0)])
    with pytest.raises(ValueError):
        fit_rabi_calibration([(1.0,), (4.0,)])


def sensitivity_model():
    return SensitivityModel(
        dnu_inh_hz=3.08,
        ratio_g1_g2=0.0014,
        ap=APModelParams(0.5, 0.5, 0.074),
        c_over_g2=0.018,
        p0_mw=39.0,
        f0_hz=1.0,
        contrast=CONTRAST,
    )


def test_map_cell_file_lists_every_cell(tmp_path):
    smap = sensitivity_map(sensitivity_model(), log_grid(0.02, 500.0, 4), log_grid(0.05, 2.5, 3))
    path = tmp_path / "cells.tsv"
    write_map_cells(smap, path)
    lines = path.read_text().splitlines()
    data = [l for l in lines if l and not l.startswith("#") and not l[0].isalpha()]
    assert len(data) == 12
    first = data[0].split()
    assert float(first[0]) == 0.02
    assert float(first[1]) == 0.05
    assert float(first[2]) == smap.sensitivity[0, 0]
    # The optimum is quoted in the header comments.
    assert any("argmin_power_mw = 500.0" in l for l in lines)


def test_map_matrix_file_shape_and_values(tmp_path):
    smap = sensitivity_map(sensitivity_model(), log_grid(0.02, 500.0, 4), log_grid(0.05, 2.5, 3))
    path = tmp_path / "matrix.tsv"
    write_map_matrix(smap, path)
    rows = [
        [float(v) for v in l.split()]
        for l in path.read_text().splitlines()
        if l and not l.startswith("#")
    ]
    assert np.array_equal(np.array(rows), smap.sensitivity)


def test_map_cell_file_spells_out_infinities(tmp_path):
    smap = sensitivity_map(
        sensitivity_model(), log_grid(0.02, 500.0, 3), np.array([1e-300, 0.6])
    )
    path = tmp_path / "cells.tsv"
    write_map_cells(smap, path)
    body = path.read_text()
    assert " inf" in body
