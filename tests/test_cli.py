"""End-to-end command line checks: pipelines, manifests, determinism, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from odmrkit import cli
from odmrkit.cli import main
from odmrkit.data_io import Spectrum, read_grid, read_spectrum, synth_spectrum, write_spectrum
from odmrkit.errors import NonFiniteResidual
from odmrkit.fitting import least_squares
from odmrkit.lineshape import HyperfineModel


def run(*argv):
    return main([str(a) for a in argv])


def files_in(d):
    return sorted(p.name for p in Path(d).iterdir())


def test_simulate_writes_spectra_and_manifest(tmp_path):
    out = tmp_path / "sim"
    rc = run("simulate", "--powers", "0.02,7", "--rabis", "0.5,1.1",
             "--noise-rel", "0.002", "--points", "401", "--out", out)
    assert rc == 0
    names = files_in(out)
    assert "manifest.json" in names
    spectra = [n for n in names if n.startswith("spectrum_")]
    assert len(spectra) == 4
    spec = read_spectrum(out / spectra[0])
    assert spec.power_mw == 0.02
    assert spec.rabi_hz in (0.5, 1.1)
    assert spec.freq_mhz.size == 401
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert sorted(manifest["outputs"]) == spectra


def test_simulate_is_deterministic_across_runs(tmp_path):
    args = ("simulate", "--powers", "0.02,7", "--rabis", "1.1",
            "--noise-rel", "0.01", "--seed", "5", "--points", "401")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(*args, "--out", out1) == 0
    assert run(*args, "--out", out2) == 0
    names = [n for n in files_in(out1) if n.startswith("spectrum_")]
    assert names == [n for n in files_in(out2) if n.startswith("spectrum_")]
    for n in names:
        assert (out1 / n).read_bytes() == (out2 / n).read_bytes()


def test_simulate_seed_changes_noise(tmp_path):
    base = ("simulate", "--powers", "7", "--rabis", "1.1", "--noise-rel", "0.01",
            "--points", "401")
    assert run(*base, "--seed", "1", "--out", tmp_path / "s1") == 0
    assert run(*base, "--seed", "2", "--out", tmp_path / "s2") == 0
    a = read_spectrum(next((tmp_path / "s1").glob("spectrum_*")))
    b = read_spectrum(next((tmp_path / "s2").glob("spectrum_*")))
    assert not np.array_equal(a.signal, b.signal)


def test_simulate_spin_models_produce_normalized_dips(tmp_path):
    for model in ("two-level", "five-level-fluorescence", "five-level-ir"):
        out = tmp_path / model
        rc = run("simulate", "--model", model, "--powers", "2.0", "--rabis", "1.0",
                 "--span-mhz", "40", "--points", "401", "--out", out)
        assert rc == 0
        spec = read_spectrum(next(out.glob("spectrum_*")))
        # Normalized to the far-detuned baseline; the resonance moves the
        # signal away from 1 at the center far more than at the span edges.
        center_dev = abs(spec.signal[200] - 1.0)
        edge_dev = abs(spec.signal[0] - 1.0)
        assert center_dev > 1e-3
        assert edge_dev < 0.5 * center_dev


def test_full_pipeline_simulate_fit_global_fit_map(tmp_path, capsys):
    sim = tmp_path / "sim"
    rc = run("simulate", "--powers", "0.02:500:6", "--rabis", "0.3:2.5:4",
             "--noise-rel", "0.003", "--points", "401", "--seed", "8",
             "--sample-id", "S5", "--out", sim)
    assert rc == 0

    fit = tmp_path / "fit"
    rc = run("fit", "--spectra", sim, "--out", fit)
    assert rc == 0
    names = files_in(fit)
    assert "grid.txt" in names
    assert sum(n.startswith("fit_spectrum_") for n in names) == 24
    # The weakest low-power low-drive cells may fit unbounded and be dropped.
    grid = read_grid(fit / "grid.txt")
    assert grid.power_mw.size >= 20
    assert np.unique(grid.power_mw).size == 6

    glob = tmp_path / "glob"
    rc = run("global-fit", "--grid", fit / "grid.txt", "--out", glob)
    assert rc == 0
    names = files_in(glob)
    for expected in ("width_fit.txt", "ap_fit.txt", "contrast_fit.txt", "summary.txt"):
        assert expected in names
    summary = (glob / "summary.txt").read_text()
    assert "[width]" in summary and "[ap]" in summary and "[contrast]" in summary
    assert "dnu_inh_hz" in summary and "theta" in summary

    smap = tmp_path / "map"
    rc = run("sensitivity-map", "--p-range", "0.02:500:6", "--fr-range",
             "0.05:2.5:5", "--out", smap)
    assert rc == 0
    printed = capsys.readouterr().out
    assert "best" in printed
    names = files_in(smap)
    assert "map_cells.txt" in names and "map_matrix.txt" in names


def test_simulate_and_fit_call_the_spectrum_codec_once_per_file(tmp_path, monkeypatch):
    # The benchmark tracer spans cli.write_spectrum and cli.read_spectrum, so
    # its per-spectrum figures hold only while each file takes one call.
    paths = {"write_spectrum": [], "read_spectrum": []}
    for name, seen in paths.items():
        # The path is the last argument of both functions.
        def counted(*args, _codec=getattr(cli, name), _seen=seen):
            _seen.append(Path(args[-1]))
            return _codec(*args)

        monkeypatch.setattr(cli, name, counted)
    sim = tmp_path / "sim"
    assert run("simulate", "--powers", "0.02,7,50", "--rabis", "0.5,1.1",
               "--noise-rel", "0.002", "--points", "401", "--out", sim) == 0
    spectra = sorted(sim.glob("spectrum_*"))
    assert len(spectra) == 6
    assert sorted(paths["write_spectrum"]) == spectra
    assert run("fit", "--spectra", sim, "--out", tmp_path / "fit") == 0
    assert sorted(paths["read_spectrum"]) == spectra


def test_manifest_rerun_reproduces_outputs(tmp_path):
    out1 = tmp_path / "first"
    rc = run("simulate", "--powers", "0.02,7", "--rabis", "1.1", "--noise-rel",
             "0.01", "--seed", "3", "--points", "401", "--out", out1)
    assert rc == 0
    out2 = tmp_path / "second"
    rc = run("simulate", "--config", out1 / "manifest.json", "--out", out2)
    assert rc == 0
    names = [n for n in files_in(out1) if n.startswith("spectrum_")]
    for n in names:
        assert (out1 / n).read_bytes() == (out2 / n).read_bytes()


def test_config_overrides_command_line_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 9, "noise_rel": 0.01}))
    out_cfg = tmp_path / "via_config"
    rc = run("simulate", "--powers", "7", "--rabis", "1.1", "--seed", "3",
             "--points", "401", "--config", cfg, "--out", out_cfg)
    assert rc == 0
    out_direct = tmp_path / "direct"
    rc = run("simulate", "--powers", "7", "--rabis", "1.1", "--seed", "9",
             "--noise-rel", "0.01", "--points", "401", "--out", out_direct)
    assert rc == 0
    a = next(out_cfg.glob("spectrum_*")).read_bytes()
    b = next(out_direct.glob("spectrum_*")).read_bytes()
    assert a == b


def test_config_rejects_unknown_keys_and_wrong_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"zeed": 9}))
    assert run("simulate", "--out", tmp_path / "x", "--config", cfg) == 2
    assert "unknown config key" in capsys.readouterr().err

    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"command": "fit", "config": {}, "outputs": []}))
    assert run("simulate", "--out", tmp_path / "y", "--config", manifest) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("simulate", "--out", tmp_path / "z", "--config", bad) == 2
    assert run("simulate", "--out", tmp_path / "w", "--config", tmp_path / "none.json") == 2


def test_config_values_are_converted_as_their_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    base = ("simulate", "--powers", "7", "--rabis", "1.1", "--config", cfg)
    cfg.write_text(json.dumps({"points": "401"}))
    assert run(*base, "--out", tmp_path / "text") == 0
    assert run("simulate", "--powers", "7", "--rabis", "1.1", "--points", "401",
               "--out", tmp_path / "flag") == 0
    a = next((tmp_path / "text").glob("spectrum_*")).read_bytes()
    assert a == next((tmp_path / "flag").glob("spectrum_*")).read_bytes()
    capsys.readouterr()
    for bad in ({"points": "many"}, {"points": 400.5}, {"points": None},
                {"seed": True}, {"noise_rel": [0.01]}, {"model": "three-level"}):
        cfg.write_text(json.dumps(bad))
        assert run(*base, "--out", tmp_path / "bad") == 2, bad
        assert "ConfigError: config key" in capsys.readouterr().err


def test_config_store_true_flag_needs_a_json_bool(tmp_path, capsys):
    spectra = tmp_path / "spectra"
    spectra.mkdir()
    cfg = tmp_path / "cfg.json"
    for value in ("yes", 1, None):
        cfg.write_text(json.dumps({"no_exclusion": value}))
        assert run("fit", "--spectra", spectra, "--config", cfg, "--out", tmp_path / "o") == 2
        assert "must be true or false" in capsys.readouterr().err


def test_axis_parsing_rules(tmp_path):
    out = tmp_path / "o"
    assert run("simulate", "--powers", "0", "--out", out) == 2
    assert run("simulate", "--powers", "1,1", "--out", out) == 2
    assert run("simulate", "--powers", "1:x:4", "--out", out) == 2
    assert run("simulate", "--powers", "", "--out", out) == 2
    rc = run("simulate", "--powers", "0.5:50:3", "--rabis", "1.1",
             "--points", "401", "--out", out)
    assert rc == 0
    assert sum(n.startswith("spectrum_") for n in files_in(out)) == 3


def test_simulate_flag_validation(tmp_path, capsys):
    out = tmp_path / "o"
    assert run("simulate", "--points", "1", "--out", out) == 2
    assert run("simulate", "--noise-rel", "-0.1", "--out", out) == 2
    assert run("simulate", "--model", "two-level", "--side-amplitude", "0.01",
               "--out", out) == 2
    for flag, value in [("--side-amplitude", "nan"), ("--side-amplitude", "inf"),
                        ("--noise-rel", "nan"), ("--span-mhz", "inf"), ("--span-mhz", "0")]:
        capsys.readouterr()
        assert run("simulate", "--points", "401", flag, value, "--out", out) == 2
        assert f"ConfigError: {flag} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sample_id", ["S5\nrun 3", "S5\r\nrun 3", "S5\r", " S5", "S5 ", "S5\t"])
def test_simulate_rejects_a_sample_id_the_header_cannot_hold(tmp_path, capsys, sample_id):
    # The spectrum/1 header keeps the id on one line and strips it on read.
    out = tmp_path / "o"
    assert run("simulate", "--powers", "7", "--rabis", "1.1", "--points", "401",
               "--sample-id", sample_id, "--out", out) == 2
    assert "ValueError: sample_id must be one line" in capsys.readouterr().err
    assert not list(out.glob("spectrum_*"))


def test_simulate_sample_id_with_inner_spaces_round_trips(tmp_path):
    out = tmp_path / "o"
    assert run("simulate", "--powers", "7", "--rabis", "1.1", "--points", "401",
               "--sample-id", "S5 run 3", "--out", out) == 0
    assert read_spectrum(next(out.glob("spectrum_*"))).sample_id == "S5 run 3"


def test_side_amplitude_adds_side_dips(tmp_path):
    base = ("simulate", "--powers", "7", "--rabis", "1.1", "--points", "1601")
    assert run(*base, "--out", tmp_path / "plain") == 0
    assert run(*base, "--side-amplitude", "0.004", "--out", tmp_path / "sides") == 0
    plain = read_spectrum(next((tmp_path / "plain").glob("spectrum_*")))
    sides = read_spectrum(next((tmp_path / "sides").glob("spectrum_*")))
    delta = plain.signal - sides.signal
    at_side = np.abs(sides.freq_mhz - (2654.0 + 33.0)) < 0.5
    assert np.max(delta[at_side]) > 0.003


def test_fit_missing_inputs_exit_codes(tmp_path):
    assert run("fit", "--spectra", tmp_path / "nowhere", "--out", tmp_path / "o") == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run("fit", "--spectra", empty, "--out", tmp_path / "o2") == 3


@pytest.mark.parametrize("value", ["inf", "nan", "abc"])
def test_fit_rejects_a_bad_power_header_with_exit_2(tmp_path, capsys, value):
    truth = HyperfineModel(amplitude=0.008, center_hz=2870.0, hwhm_hz=2.0)
    d = tmp_path / "spectra"
    d.mkdir()
    for name, power in (("a.txt", 1.0), ("b.txt", 2.0)):
        spec = synth_spectrum(truth, noise_rel=0.002, seed=1, power_mw=power, rabi_hz=1.0)
        write_spectrum(spec, d / name)
    text = (d / "b.txt").read_text().replace("# power_mw = 2.0", f"# power_mw = {value}")
    (d / "b.txt").write_text(text)
    out = tmp_path / "o"
    assert run("fit", "--spectra", d, "--out", out) == 2
    assert "SchemaError: b.txt: power_mw must be a finite positive number" in (
        capsys.readouterr().err
    )
    # a.txt read and fitted, but nothing is written when a later spectrum fails.
    assert files_in(out) == []


def test_fit_spectrum_without_metadata_is_noted_and_kept_off_grid(tmp_path, capsys):
    # A spectrum with no (power, Rabi) metadata still gets its own report but
    # cannot contribute a measurement-grid row.
    spec = synth_spectrum(
        HyperfineModel(amplitude=0.008, center_hz=2870.0, hwhm_hz=2.0),
        noise_rel=0.002,
        seed=1,
    )
    d = tmp_path / "loose"
    d.mkdir()
    write_spectrum(spec, d / "loose.txt")
    # Pure noise with metadata: the fit converges with an unbounded width.
    nu = np.linspace(2614.0, 2694.0, 401)
    noise = np.random.default_rng(2).normal(0.0, 0.002, nu.size)
    write_spectrum(
        Spectrum(nu, 1.0 + noise, np.full(nu.size, 0.002), power_mw=1.0, rabi_hz=1.0),
        d / "noise.txt",
    )
    out = tmp_path / "o"
    assert run("fit", "--spectra", d, "--out", out) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "note: loose.txt not usable for the grid (no power_mw/rabi_mhz header)" in lines
    assert (
        "note: noise.txt not usable for the grid "
        "(non-finite interval on width or amplitude)" in lines
    )
    assert "grid.txt" not in files_in(out)
    assert "fit_loose.txt" in files_in(out)
    assert "fit_noise.txt" in files_in(out)


def test_non_finite_start_skips_one_spectrum_and_exits_3_when_all_fail(
    tmp_path, capsys, monkeypatch
):
    # A model that is not finite at its start is a numerical failure: the
    # batch goes on without that spectrum, and exits 3 only if none fits.
    real_fit = cli.fit_spectra

    def fit_or_fail(spectra, **kwargs):
        for spec in spectra:
            if spec.sample_id == "bad":
                try:
                    nan, unused = np.array([np.nan]), np.zeros((1, 1))
                    least_squares(lambda p: nan, {"a": 1.0}, jacobian=lambda p: unused)
                except NonFiniteResidual as exc:
                    yield exc
            else:
                yield from real_fit([spec], **kwargs)

    monkeypatch.setattr(cli, "fit_spectra", fit_or_fail)
    truth = HyperfineModel(amplitude=0.008, center_hz=2870.0, hwhm_hz=2.0)
    d = tmp_path / "spectra"
    d.mkdir()
    write_spectrum(synth_spectrum(truth, noise_rel=0.002, seed=1), d / "a_good.txt")
    bad = synth_spectrum(truth, noise_rel=0.002, seed=2, sample_id="bad")
    write_spectrum(bad, d / "b_bad.txt")
    assert run("fit", "--spectra", d, "--out", tmp_path / "o") == 0
    err = capsys.readouterr().err
    assert "error: b_bad.txt: NonFiniteResidual: residual is not finite" in err
    assert "fit_a_good.txt" in files_in(tmp_path / "o")
    (d / "a_good.txt").unlink()
    assert run("fit", "--spectra", d, "--out", tmp_path / "o2") == 3


# What `odmrkit fit` writes for the three spectra of the test below.
PINNED_FIT_OUTPUTS = {
    'fit_a_dip.txt': (
        '# odmr fit report\n'
        '# format = fitreport/1\n'
        'amplitude = 0.00805646 ± 0.000684\n'
        'center_hz = 2869.99 ± 0.157\n'
        'hwhm_hz = 2.03735 ± 0.237\n'
        '# converged = true, n_points = 91, iterations = 9\n'
        '[machine]\n'
        'param amplitude 0.008056462415168227 0.0006842285540758783\n'
        'param center_hz 2869.9886770251305 0.15696221941361865\n'
        'param hwhm_hz 2.0373494078842915 0.23664634442403126\n'
        'stat cost 74.3533019977599\n'
        'stat residual_rms 0.9039188308264389\n'
        'stat n_points 91\n'
        'stat n_iter 9\n'
        'stat converged 1\n'
        'excluded 2828.0 2848.0\n'
        'excluded 2894.0 2914.0\n'
    ),
    'fit_b_flat.txt': (
        '# odmr fit report\n'
        '# format = fitreport/1\n'
        'amplitude = 4.49142e+07 ± inf\n'
        'center_hz = 2868.57 ± 0.0449\n'
        'hwhm_hz = 6.07352e-07 ± inf\n'
        '# converged = true, n_points = 91, iterations = 29\n'
        '[machine]\n'
        'param amplitude 44914222.781482406 inf\n'
        'param center_hz 2868.5693357548985 0.04490452914311935\n'
        'param hwhm_hz 6.073517237692721e-07 inf\n'
        'stat cost 82.50692897032496\n'
        'stat residual_rms 0.9521919707309289\n'
        'stat n_points 91\n'
        'stat n_iter 29\n'
        'stat converged 1\n'
        'excluded 2827.0 2847.0\n'
        'excluded 2893.0 2913.0\n'
        'flag peak-shaped trace fitted as its mirror dip\n'
        'flag no dip detected: fitted from a flat-spectrum fallback guess\n'
        "flag parameter 'amplitude' unidentifiable: Jacobian rank deficient\n"
        "flag parameter 'hwhm_hz' unidentifiable: Jacobian rank deficient\n"
    ),
    'fit_c_peak.txt': (
        '# odmr fit report\n'
        '# format = fitreport/1\n'
        'amplitude = 0.0070648 ± 0.000654\n'
        'center_hz = 2870.01 ± 0.205\n'
        'hwhm_hz = 2.39676 ± 0.31\n'
        '# converged = true, n_points = 91, iterations = 8\n'
        '[machine]\n'
        'param amplitude 0.0070647986715330225 0.0006544595056264904\n'
        'param center_hz 2870.008098451834 0.20488245254718584\n'
        'param hwhm_hz 2.396760205315068 0.30971876883541627\n'
        'stat cost 100.929604916057\n'
        'stat residual_rms 1.053146019096634\n'
        'stat n_points 91\n'
        'stat n_iter 8\n'
        'stat converged 1\n'
        'excluded 2826.0 2846.0\n'
        'excluded 2892.0 2912.0\n'
        'flag peak-shaped trace fitted as its mirror dip\n'
    ),
    'grid.txt': (
        '# odmr measurement grid\n'
        '# format = grid/1\n'
        'power_mw rabi_mhz width_mhz width_sigma amplitude amplitude_sigma\n'
        '1.0 0.5 4.074698815768583 0.4732926888480625 '
        '0.008056462415168227 0.0006842285540758783\n'
        '3.0 0.5 4.793520410630136 0.6194375376708325 '
        '0.0070647986715330225 0.0006544595056264904\n'
    ),
}


def test_fit_reports_emit_the_pinned_bytes(tmp_path, capsys):
    # Three seeded spectra: a dip, a flat trace fitted from the fallback
    # guess, and a peak fitted as its mirror dip. Reports, grid and messages
    # are literal, so any change to what a fit returns shows up here.
    truth = HyperfineModel(amplitude=0.008, center_hz=2870.0, hwhm_hz=2.0)
    d = tmp_path / "spectra"
    d.mkdir()
    dip = synth_spectrum(truth, noise_rel=0.002, seed=1, n_points=161, power_mw=1.0, rabi_hz=0.5)
    nu = dip.freq_mhz
    noise = np.random.default_rng(2).normal(0.0, 0.002, nu.size)
    flat = Spectrum(nu, 1.0 + noise, np.full(nu.size, 0.002), power_mw=2.0, rabi_hz=0.5)
    mirror = synth_spectrum(truth, noise_rel=0.002, seed=3, n_points=161)
    peak = Spectrum(nu, 2.0 - mirror.signal, mirror.sigma, power_mw=3.0, rabi_hz=0.5)
    for name, spec in (("a_dip.txt", dip), ("b_flat.txt", flat), ("c_peak.txt", peak)):
        write_spectrum(spec, d / name)
    out = tmp_path / "o"
    assert run("fit", "--spectra", d, "--out", out) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        f"fitted 3 of 3 spectra, 2 grid rows, to {out}\n"
        "note: b_flat.txt not usable for the grid (non-finite interval on width or amplitude)\n"
    )
    assert captured.err == ""
    assert files_in(out) == sorted([*PINNED_FIT_OUTPUTS, "manifest.json"])
    for name, text in PINNED_FIT_OUTPUTS.items():
        assert (out / name).read_bytes().decode("utf-8") == text, name


def test_global_fit_error_paths(tmp_path, capsys):
    assert run("global-fit", "--grid", tmp_path / "missing.txt",
               "--out", tmp_path / "o") == 2
    # A one-power grid reads fine but cannot constrain the global models.
    sim = tmp_path / "sim"
    assert run("simulate", "--powers", "7", "--rabis", "0.3:2.5:4",
               "--noise-rel", "0.003", "--points", "401", "--out", sim) == 0
    fit = tmp_path / "fit"
    assert run("fit", "--spectra", sim, "--out", fit) == 0
    rc = run("global-fit", "--grid", fit / "grid.txt", "--out", tmp_path / "g")
    assert rc == 3
    err = capsys.readouterr().err
    assert "UnidentifiableParameter" in err
    summary = (tmp_path / "g" / "summary.txt").read_text()
    assert "error = UnidentifiableParameter" in summary


def test_sensitivity_map_flag_validation(tmp_path, capsys):
    out = tmp_path / "o"
    assert run("sensitivity-map", "--p-range", "0.02:500", "--out", out) == 2
    for flag in ("--rate-scale", "--contrast-factor"):
        for value in ("-1", "0", "inf", "nan"):
            capsys.readouterr()
            assert run("sensitivity-map", flag, value, "--out", out) == 2
            assert f"ConfigError: {flag} must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("fit", "--splitting-mhz", "nan"),
        ("fit", "--splitting-mhz", "inf"),
        ("fit", "--splitting-mhz", "-2.2"),
        ("fit", "--exclude-side-mhz", "inf"),
        ("fit", "--exclude-side-mhz", "0"),
        ("fit", "--exclusion-window-mhz", "inf"),
        ("fit", "--exclusion-window-mhz", "nan"),
        ("global-fit", "--splitting-mhz", "nan"),
        ("global-fit", "--splitting-mhz", "inf"),
    ],
)
def test_fit_and_global_fit_reject_bad_flags_by_name(tmp_path, capsys, command, flag, value):
    # Valid inputs, so only the flag can be at fault: exit 2, naming it, and
    # no output directory.
    truth = HyperfineModel(amplitude=0.008, center_hz=2870.0, hwhm_hz=2.0)
    spectra = tmp_path / "spectra"
    spectra.mkdir()
    for k in range(2):
        spec = synth_spectrum(truth, noise_rel=0.002, seed=k, power_mw=1.0 + k, rabi_hz=0.5)
        write_spectrum(spec, spectra / f"s{k}.txt")
    assert run("fit", "--spectra", spectra, "--out", tmp_path / "fit") == 0
    source = ["--spectra", spectra] if command == "fit" else ["--grid", tmp_path / "fit/grid.txt"]
    out = tmp_path / "o"
    capsys.readouterr()
    assert run(command, *source, flag, value, "--out", out) == 2
    assert f"ConfigError: {flag} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_sensitivity_map_without_a_finite_cell_exits_3(tmp_path, capsys):
    # Valid flags, but the contrast underflows to zero on every cell: a
    # numerical failure (exit 3), and no map is written.
    out = tmp_path / "o"
    assert run("sensitivity-map", "--fr-range", "1e-170:1e-169:3", "--out", out) == 3
    assert "InsufficientData" in capsys.readouterr().err
    assert not (out / "map_cells.txt").exists()
    assert not (out / "map_matrix.txt").exists()


def test_argparse_level_errors_return_their_exit_code(capsys):
    assert run("--help") == 0
    capsys.readouterr()
    assert run() == 2
    assert run("fit") == 2
    assert run("no-such-command") == 2
    capsys.readouterr()
