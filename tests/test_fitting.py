"""Levenberg-Marquardt engine, spectrum fits and the global surface fits."""

import numpy as np
import pytest

from odmrkit import fitting, presets
from odmrkit.data_io import SideResonance, Spectrum, synth_grid, synth_spectrum
from odmrkit.errors import (
    InsufficientData,
    NoConvergence,
    NonFiniteResidual,
    OdmrError,
    SingularJacobian,
    UnidentifiableParameter,
)
from odmrkit.fitting import (
    MeasurementGrid,
    SideResonanceExclusion,
    fit_ap_curve,
    fit_spectrum,
    global_contrast_fit,
    global_width_fit,
    initial_guess,
    least_squares,
)
from odmrkit.lineshape import (
    APModelParams,
    ContrastModelParams,
    HyperfineModel,
    WidthModelParams,
    a_of_p,
)
from oracles import finite_difference_jacobian

X = np.linspace(-5.0, 5.0, 101)


def lorentzian_residual(y):
    def resid(p):
        a, x0, w = p
        return (1.0 - a / (1.0 + ((X - x0) / w) ** 2)) - y

    return resid


def fd(resid):
    """The finite-difference Jacobian of ``resid``, as least_squares takes it."""
    return lambda p: finite_difference_jacobian(resid, p)


def test_least_squares_recovers_exact_lorentzian():
    y = 1.0 - 0.1 / (1.0 + X**2)
    resid = lorentzian_residual(y)
    report = least_squares(resid, {"a": 0.5, "x0": 2.0, "w": 0.3}, jacobian=fd(resid))
    assert abs(report.params["a"] - 0.1) < 1e-10
    assert abs(report.params["x0"]) < 1e-10
    assert abs(report.params["w"] - 1.0) < 1e-10
    assert report.cost < 1e-20


def test_least_squares_idempotent_from_optimum():
    y = 1.0 - 0.1 / (1.0 + X**2)
    resid = lorentzian_residual(y)
    report = least_squares(resid, {"a": 0.1, "x0": 0.0, "w": 1.0}, jacobian=fd(resid))
    assert abs(report.params["a"] - 0.1) < 1e-12
    assert abs(report.params["x0"]) < 1e-12
    assert abs(report.params["w"] - 1.0) < 1e-12


def test_least_squares_positive_constraint_holds():
    rng = np.random.default_rng(2)
    y = 1.0 - 0.02 / (1.0 + X**2) + rng.normal(0.0, 0.05, X.size)
    # Strong noise pulls an unconstrained amplitude negative from this start;
    # the log transform must keep both parameters positive regardless.
    resid = lorentzian_residual(y)
    report = least_squares(
        resid, {"a": 0.01, "x0": 0.0, "w": 0.5}, jacobian=fd(resid), positive=("a", "w")
    )
    assert report.params["a"] > 0.0
    assert report.params["w"] > 0.0


def test_finite_difference_jacobian_matches_analytic():
    def resid(p):
        a, b = p
        return a * X**2 + np.sin(b * X)

    x = np.array([0.7, 1.3])
    jac = finite_difference_jacobian(resid, x)
    exact = np.column_stack([X**2, X * np.cos(1.3 * X)])
    assert np.max(np.abs(jac - exact)) < 1e-6


def test_least_squares_analytic_jacobian_agrees_with_fd():
    y = 1.0 - 0.1 / (1.0 + X**2)

    def jac(p):
        a, x0, w = p
        u = (X - x0) / w
        den = (1.0 + u**2) ** 2
        return np.column_stack(
            [
                -1.0 / (1.0 + u**2),
                -a * 2.0 * u / (w * den),
                -a * 2.0 * u**2 / (w * den),
            ]
        )

    resid = lorentzian_residual(y)
    r1 = least_squares(resid, {"a": 0.5, "x0": 2.0, "w": 0.3}, jacobian=fd(resid))
    r2 = least_squares(resid, {"a": 0.5, "x0": 2.0, "w": 0.3}, jacobian=jac)
    for k in r1.params:
        assert abs(r1.params[k] - r2.params[k]) < 1e-9


def test_ci68_scaling_with_absolute_sigma():
    rng = np.random.default_rng(4)
    y = 1.0 - 0.1 / (1.0 + X**2) + rng.normal(0.0, 0.01, X.size)
    sigma = np.full(X.size, 0.01)
    init = {"a": 0.12, "x0": 0.1, "w": 0.9}
    resid = lorentzian_residual(y)
    r1 = least_squares(resid, init, 1.0 / sigma, jacobian=fd(resid), absolute_sigma=True)
    r2 = least_squares(
        resid, init, 1.0 / (2.0 * sigma), jacobian=fd(resid), absolute_sigma=True
    )
    for k in init:
        assert abs(r2.ci68[k] - 2.0 * r1.ci68[k]) < 1e-9 * r1.ci68[k] + 1e-15
    # Default mode rescales by reduced chi-square, so the quoted intervals
    # do not depend on an overall sigma scale at all.
    r3 = least_squares(resid, init, weights=1.0 / sigma, jacobian=fd(resid))
    r4 = least_squares(resid, init, weights=1.0 / (2.0 * sigma), jacobian=fd(resid))
    for k in init:
        assert abs(r4.ci68[k] - r3.ci68[k]) < 1e-9 * r3.ci68[k] + 1e-15


def test_singular_jacobian_names_dead_parameter():
    y = 1.0 - 0.1 / (1.0 + X**2)

    def resid(p):
        a, _dead = p
        return (1.0 - a / (1.0 + X**2)) - y

    with pytest.raises(SingularJacobian, match="dead"):
        least_squares(resid, {"a": 0.5, "dead": 1.0}, jacobian=fd(resid))


def test_no_convergence_on_exhausted_budget(monkeypatch):
    y = 1.0 - 0.1 / (1.0 + X**2)
    resid = lorentzian_residual(y)
    monkeypatch.setattr(fitting, "_MAX_ITER", 2)
    with pytest.raises(NoConvergence, match="no convergence after 2 iterations"):
        least_squares(resid, {"a": 0.5, "x0": 3.0, "w": 0.2}, jacobian=fd(resid))


def test_least_squares_input_validation():
    y = 1.0 - 0.1 / (1.0 + X**2)
    resid = lorentzian_residual(y)
    jac = fd(resid)
    with pytest.raises(ValueError):
        least_squares(resid, {"a": 0.5, "x0": 0.0, "w": 1.0}, jacobian=jac, positive=("nope",))
    with pytest.raises(ValueError):
        least_squares(resid, {"a": -0.5, "x0": 0.0, "w": 1.0}, jacobian=jac, positive=("a",))
    with pytest.raises(ValueError):
        least_squares(resid, {"a": 0.5, "x0": 0.0, "w": 1.0}, np.ones(3), jacobian=jac)
    with pytest.raises(ValueError, match="jacobian shape"):
        least_squares(resid, {"a": 0.5, "x0": 0.0, "w": 1.0}, jacobian=lambda p: np.ones((1, 3)))
    nan = lambda p: np.array([np.nan])  # noqa: E731
    with pytest.raises(ValueError, match="weights"):
        least_squares(nan, {"a": 1.0}, weights=np.zeros(1), jacobian=fd(nan))


def test_non_finite_start_is_a_numerical_failure():
    # The inputs are well formed; the model itself fails at the start, so the
    # error is an OdmrError (CLI exit 3), not a ValueError (exit 2).
    unused = lambda p: np.zeros((2, 1))  # noqa: E731  (the start fails first)
    with pytest.raises(NonFiniteResidual, match="not finite at the starting point") as err:
        least_squares(lambda p: np.array([np.nan, 1.0]), {"a": 1.0}, jacobian=unused)
    assert isinstance(err.value, OdmrError)
    assert not isinstance(err.value, ValueError)
    with pytest.raises(NonFiniteResidual):
        least_squares(
            lambda p: np.array([p[0], np.inf]), {"a": 1.0}, jacobian=unused, positive=("a",)
        )


TRUTH = HyperfineModel(amplitude=0.008, center_hz=2870.0, hwhm_hz=2.0, splitting_hz=2.2)


def test_initial_guess_lands_near_truth():
    spec = synth_spectrum(TRUTH, noise_rel=0.002, seed=3)
    guess = initial_guess(spec)
    assert abs(guess["center_hz"] - 2870.0) < 0.5
    assert 0.3 * TRUTH.amplitude < guess["amplitude"] < 3.0 * TRUTH.amplitude
    assert 0.3 * TRUTH.hwhm_hz < guess["hwhm_hz"] < 3.0 * TRUTH.hwhm_hz


def test_initial_guess_rejects_featureless_signal():
    spec = synth_spectrum(
        HyperfineModel(amplitude=1e-6, center_hz=2870.0, hwhm_hz=2.0),
        noise_rel=0.01,
        seed=1,
    )
    with pytest.raises(InsufficientData):
        initial_guess(spec)


def test_fit_spectrum_recovers_noiseless_truth():
    spec = synth_spectrum(TRUTH, noise_rel=0.0, seed=0)
    report = fit_spectrum(spec)
    assert abs(report.params["amplitude"] - TRUTH.amplitude) < 1e-8
    assert abs(report.params["center_hz"] - TRUTH.center_hz) < 1e-7
    assert abs(report.params["hwhm_hz"] - TRUTH.hwhm_hz) < 1e-7


def test_fit_spectrum_recovers_noisy_truth_within_errors():
    spec = synth_spectrum(TRUTH, noise_rel=0.002, seed=7)
    report = fit_spectrum(spec)
    for key, truth in (
        ("amplitude", TRUTH.amplitude),
        ("center_hz", TRUTH.center_hz),
        ("hwhm_hz", TRUTH.hwhm_hz),
    ):
        pull = (report.params[key] - truth) / report.ci68[key]
        assert abs(pull) < 4.0


def test_fit_spectrum_handles_peaks_as_well_as_dips():
    spec = synth_spectrum(TRUTH, noise_rel=0.001, seed=9)
    flipped = Spectrum(
        freq_mhz=spec.freq_mhz,
        signal=2.0 - spec.signal,
        sigma=spec.sigma,
        power_mw=spec.power_mw,
        rabi_hz=spec.rabi_hz,
        sample_id=spec.sample_id,
    )
    r_dip = fit_spectrum(spec)
    r_peak = fit_spectrum(flipped)
    for k in ("amplitude", "center_hz", "hwhm_hz"):
        assert abs(r_dip.params[k] - r_peak.params[k]) < 1e-9


def test_fit_spectrum_exclusion_suppresses_side_resonances():
    side = SideResonance(amplitude=0.004)
    spec = synth_spectrum(TRUTH, side=side, noise_rel=0.001, seed=21)
    excl = SideResonanceExclusion(delta_hz=33.0, window_hz=20.0)
    r_masked = fit_spectrum(spec, exclusion=excl)
    # Windows are anchored once at the detected dip center, so they can sit a
    # grid step away from the truth-centered ones.
    guess_center = initial_guess(spec)["center_hz"]
    assert r_masked.excluded_ranges == excl.windows(guess_center)
    assert abs(r_masked.params["hwhm_hz"] - TRUTH.hwhm_hz) < 0.02
    # Junk confined to the masked windows must not move the fit at all.  Keep
    # it shallower than the main dip so the dip detector still anchors the
    # windows at the same place.
    poisoned_signal = spec.signal.copy()
    for lo, hi in r_masked.excluded_ranges:
        inside = (spec.freq_mhz >= lo + 1.0) & (spec.freq_mhz <= hi - 1.0)
        poisoned_signal[inside] -= 0.01
    poisoned = Spectrum(
        freq_mhz=spec.freq_mhz,
        signal=poisoned_signal,
        sigma=spec.sigma,
        power_mw=spec.power_mw,
        rabi_hz=spec.rabi_hz,
        sample_id=spec.sample_id,
    )
    r_poisoned = fit_spectrum(poisoned, exclusion=excl)
    for k in ("amplitude", "center_hz", "hwhm_hz"):
        assert abs(r_poisoned.params[k] - r_masked.params[k]) < 1e-12


def test_fit_spectrum_requires_enough_points():
    spec = synth_spectrum(TRUTH, noise_rel=0.001, seed=2, n_points=45)
    with pytest.raises(InsufficientData):
        fit_spectrum(spec)


def outcome(fit):
    """What a fit returns, or the class and message of what it raises."""
    try:
        return repr(fit())
    except OdmrError as exc:
        return (type(exc).__name__, str(exc))


def as_outcome(result):
    if isinstance(result, OdmrError):
        return (type(result).__name__, str(result))
    return repr(result)


def mixed_spectra():
    """Dips, a flat trace, a peak, three point counts, and two failures."""
    rng = np.random.default_rng(5)
    nu = np.linspace(2830.0, 2910.0, 401)
    flat = Spectrum(nu, 1.0 + rng.normal(0.0, 0.002, nu.size), np.full(nu.size, 0.002))
    dip = synth_spectrum(TRUTH, noise_rel=0.002, seed=11, n_points=401)
    peak = Spectrum(dip.freq_mhz, 2.0 - dip.signal, dip.sigma)
    return [
        synth_spectrum(TRUTH, noise_rel=0.002, seed=3, n_points=401),
        flat,
        peak,
        synth_spectrum(TRUTH, noise_rel=0.001, seed=4, n_points=301),
        synth_spectrum(TRUTH, noise_rel=0.002, seed=5, n_points=241, span_hz=60.0),
        synth_spectrum(TRUTH, noise_rel=0.001, seed=2, n_points=60),  # InsufficientData
        synth_spectrum(  # NoConvergence after 200 iterations
            HyperfineModel(amplitude=2e-4, center_hz=2870.0, hwhm_hz=6.0),
            noise_rel=0.002,
            seed=19,
            n_points=401,
        ),
        synth_spectrum(TRUTH, noise_rel=0.002, seed=6, n_points=401),
    ]


def test_fit_spectra_gives_each_spectrum_its_fit_alone_in_any_order():
    specs = mixed_spectra()
    alone = [outcome(lambda s=s: fit_spectrum(s)) for s in specs]
    assert alone[5][0] == "InsufficientData"
    assert alone[6][0] == "NoConvergence"
    assert "fallback guess" in alone[1] and "mirror dip" in alone[2]
    assert len({len(s.freq_mhz) for s in specs}) == 4
    orders = [list(range(len(specs))), list(range(len(specs)))[::-1]]
    orders.append(list(np.random.default_rng(0).permutation(len(specs))))
    for order in orders:
        stacked = fitting.fit_spectra([specs[i] for i in order])
        assert [as_outcome(r) for r in stacked] == [alone[i] for i in order]


def test_a_singular_system_raises_only_its_own_damping(monkeypatch):
    # One problem's damped normal matrix is declared singular (its weights
    # make it huge); the stacked solve then fails as a whole, and only that
    # problem may take the damping x10 path.
    real_solve = np.linalg.solve

    def solve(a, b):
        poisoned = np.abs(a).max(axis=(-2, -1)) > 1e20
        if np.any(poisoned):
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    good = [synth_spectrum(TRUTH, noise_rel=0.002, seed=s, n_points=401) for s in (3, 4)]
    bad = synth_spectrum(TRUTH, noise_rel=0.002, seed=5, n_points=401)
    bad = Spectrum(bad.freq_mhz, bad.signal, np.full(bad.freq_mhz.size, 1e-12))
    alone = [outcome(lambda s=s: fit_spectrum(s)) for s in good]
    monkeypatch.setattr(np.linalg, "solve", solve)
    stacked = [as_outcome(r) for r in fitting.fit_spectra([good[0], bad, good[1]])]
    assert [stacked[0], stacked[2]] == alone
    assert stacked[1][0] == "NoConvergence"
    assert stacked[1][1].startswith("stalled after 1 iterations with a non-zero gradient")


def test_fit_spectra_takes_no_more_spectra_than_its_window():
    window = fitting._WINDOW
    specs = [
        synth_spectrum(TRUTH, noise_rel=0.002, seed=s, n_points=201) for s in range(window + 3)
    ]
    taken = []

    def feed():
        for spec in specs:
            taken.append(spec)
            yield spec

    handed_back = 0
    for result in fitting.fit_spectra(feed()):
        assert isinstance(result, fitting.FitReport)
        assert len(taken) - handed_back <= window
        handed_back += 1
    assert handed_back == len(specs) == len(taken)


def test_side_resonance_exclusion_windows():
    excl = SideResonanceExclusion(delta_hz=33.0, window_hz=20.0)
    assert excl.windows(2870.0) == ((2827.0, 2847.0), (2893.0, 2913.0))


def test_measurement_grid_validation():
    ones = np.ones(4)
    with pytest.raises(ValueError):
        MeasurementGrid(ones, ones[:3], ones, ones, ones, ones)
    with pytest.raises(InsufficientData):
        MeasurementGrid(*[np.array([])] * 6)
    with pytest.raises(ValueError):
        MeasurementGrid(ones, ones, ones, 0.0 * ones, ones, ones)


@pytest.mark.parametrize("column", [0, 1, 2, 3, 5])
def test_measurement_grid_rejects_nan_in_positive_columns(column):
    cols = [np.array([0.5, 1.0, 2.0]), np.array([0.1, 0.2, 0.3])] + [np.ones(3)] * 4
    cols[column] = np.array([1.0, np.nan, 3.0])
    with pytest.raises(ValueError, match="must be positive"):
        MeasurementGrid(*cols)


WIDTH_TRUTH = dict(
    dnu_inh_hz=3.08, ratio_g1_g2=0.0014, c_over_g2=0.018, p0_mw=39.0, f0_hz=1.0
)
AP_TRUTH = APModelParams(a1=0.5, b1_mw=0.5, c1=0.074)
CONTRAST_TRUTH = ContrastModelParams(theta=22.9e-3, g1_over_c_mw=0.71, g1g2_us2=0.0047)


def make_grid(noise_width=0.02, noise_amp=0.03, seed=11):
    powers = np.geomspace(0.02, 500.0, 12)
    rabis = np.geomspace(0.05, 2.5, 8)
    wp = WidthModelParams(
        a_over_g2=tuple(a_of_p(AP_TRUTH, p) for p in powers), **WIDTH_TRUTH
    )
    return synth_grid(
        wp,
        CONTRAST_TRUTH,
        powers,
        rabis,
        noise_width_rel=noise_width,
        noise_amp_rel=noise_amp,
        seed=seed,
    )


def triplet_problem(rng):
    nu = np.linspace(2830.0, 2910.0, 161)
    x = [[0.008, 2870.0, 2.0]] * rng.uniform(0.7, 1.3, (3, 3))
    x[:, 1] = 2870.0 + rng.normal(0.0, 1.0, 3)
    return fitting._triplet_model(2.2), (nu,), x


def width_problem(rng):
    power = np.repeat(np.geomspace(0.02, 500.0, 4), 3)
    rabi = np.tile(np.geomspace(0.05, 2.5, 3), 4)
    kidx = np.repeat(np.arange(4), 3)
    truth = [3.08, 0.0014, 0.018, 39.0, 1.0, 0.3, 0.4, 0.5, 0.55]
    return fitting._width_model(power, rabi, kidx), (), truth * rng.uniform(0.7, 1.3, (3, 9))


def contrast_problem(rng):
    power = np.repeat(np.geomspace(0.02, 500.0, 4), 3)
    rabi = np.tile(np.geomspace(0.05, 2.5, 3), 4)
    truth = [22.9e-3, 0.71, 0.0047]
    return fitting._contrast_model(power, rabi), (), truth * rng.uniform(0.7, 1.3, (3, 3))


def ap_problem(rng):
    power = np.geomspace(0.02, 500.0, 12)
    return fitting._ap_model(power), (), [0.5, 0.5, 0.074] * rng.uniform(0.7, 1.3, (3, 3))


@pytest.mark.parametrize(
    "problem", [triplet_problem, width_problem, contrast_problem, ap_problem]
)
def test_campaign_jacobians_match_finite_differences(problem):
    # A seeded stack of three problems of one campaign: each column of each
    # row's analytic Jacobian matches central differences of that row's own
    # residual, relative to the column's largest entry.
    rng = np.random.default_rng(13)
    (residual, jacobian), design, x = problem(rng)
    k, n_params = x.shape
    design = [np.broadcast_to(d, (k, d.size)) for d in design]
    model = -residual(x, *design, 0.0)  # zero data leave minus the model
    data = [*design, model + rng.normal(0.0, 1e-3 * np.abs(model).max(), model.shape)]
    analytic = np.stack(jacobian(x, *data), axis=-1)
    assert analytic.shape == (k, model.shape[1], n_params)
    for i in range(k):
        row = [d[i : i + 1] for d in data]
        numeric = finite_difference_jacobian(lambda xi: residual(xi[None], *row)[0], x[i])
        error = np.abs(analytic[i] - numeric).max(axis=0)
        assert np.all(error <= 1e-5 * np.abs(analytic[i]).max(axis=0))


def test_global_width_fit_recovers_truth():
    report = global_width_fit(make_grid())
    assert abs(report.params["dnu_inh_hz"] - 3.08) / 3.08 < 0.05
    assert abs(report.params["ratio_g1_g2"] - 0.0014) / 0.0014 < 0.5
    assert abs(report.params["f0_hz"] - 1.0) < 0.15
    assert abs(report.params["c_over_g2"] - 0.018) / 0.018 < 0.3
    assert abs(report.params["p0_mw"] - 39.0) / 39.0 < 0.3
    for key in ("dnu_inh_hz", "f0_hz", "c_over_g2", "p0_mw"):
        pull = (report.params[key] - (WIDTH_TRUTH[key])) / report.ci68[key]
        assert abs(pull) < 3.0


def test_global_width_fit_at_exact_truth_has_zero_cost():
    # Grid and fit evaluate the same width surface, so the noise-free README
    # grid started at its truth leaves no residual at all.
    powers = np.geomspace(0.02, 500.0, 12)
    rabis = np.geomspace(0.05, 2.5, 8)
    wp = presets.s5_width_params(powers)
    grid = synth_grid(wp, presets.S5_CONTRAST, powers, rabis)
    init = {
        "dnu_inh_hz": wp.dnu_inh_hz,
        "ratio_g1_g2": wp.ratio_g1_g2,
        "c_over_g2": wp.c_over_g2,
        "p0_mw": wp.p0_mw,
        "f0_hz": wp.f0_hz,
    }
    init.update({f"a_over_g2[{k}]": a for k, a in enumerate(wp.a_over_g2)})
    evaluations = []
    build = fitting._width_model

    def counting(*design):
        residual, jacobian = build(*design)

        def counted(x, *data):
            evaluations.append(len(x))
            return residual(x, *data)

        return counted, jacobian

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "_width_model", counting)
        report = global_width_fit(grid, init)
    assert report.cost == 0.0
    assert report.n_iter == 1
    # exp(log x) != x for some of these values: the zero step must keep x
    # itself and be accepted at once, not be retried under rising damping.
    assert 0 < len(evaluations) <= 2


def test_global_width_fit_flags_unidentifiable_high_power_a():
    # At the highest powers the a(P) term is negligible against cP, so those
    # a values carry no information and must be flagged, not silently quoted.
    report = global_width_fit(make_grid())
    assert any("a_over_g2[11]" in f for f in report.flags)
    assert not np.isfinite(report.ci68["a_over_g2[11]"])


def test_global_width_fit_needs_enough_settings():
    g = make_grid()
    one_power = g.power_mw == g.power_mw[0]
    with pytest.raises(UnidentifiableParameter):
        global_width_fit(
            MeasurementGrid(
                g.power_mw[one_power],
                g.rabi_hz[one_power],
                g.width_hz[one_power],
                g.width_sigma[one_power],
                g.amplitude[one_power],
                g.amplitude_sigma[one_power],
            )
        )
    two_rabi = np.isin(g.rabi_hz, np.unique(g.rabi_hz)[:2])
    with pytest.raises(UnidentifiableParameter):
        global_width_fit(
            MeasurementGrid(
                g.power_mw[two_rabi],
                g.rabi_hz[two_rabi],
                g.width_hz[two_rabi],
                g.width_sigma[two_rabi],
                g.amplitude[two_rabi],
                g.amplitude_sigma[two_rabi],
            )
        )


def test_global_contrast_fit_recovers_truth():
    report = global_contrast_fit(make_grid())
    assert abs(report.params["theta"] - 22.9e-3) / 22.9e-3 < 0.10
    assert report.params["g1_over_c_mw"] > 0.0
    assert report.params["g1g2_us2"] > 0.0
    pull = (report.params["theta"] - 22.9e-3) / report.ci68["theta"]
    assert abs(pull) < 3.0


def test_fit_ap_curve_recovers_truth():
    powers = np.geomspace(0.02, 500.0, 12)
    a_true = np.array([a_of_p(AP_TRUTH, p) for p in powers])
    rng = np.random.default_rng(6)
    sigma = 0.02 * a_true
    a_noisy = a_true + rng.normal(0.0, 1.0, a_true.size) * sigma
    report = fit_ap_curve(powers, a_noisy, sigma)
    assert abs(report.params["a1"] - 0.5) / 0.5 < 0.25
    assert abs(report.params["b1_mw"] - 0.5) / 0.5 < 0.25
    assert abs(report.params["c1"] - 0.074) / 0.074 < 0.10


def test_fit_ap_curve_skips_nonfinite_and_requires_four_powers():
    powers = np.geomspace(0.02, 500.0, 12)
    a_true = np.array([a_of_p(AP_TRUTH, p) for p in powers])
    sigma = 0.02 * a_true
    # Unidentifiable entries arrive as inf uncertainties; they are dropped.
    sigma_bad = sigma.copy()
    sigma_bad[-2:] = np.inf
    report = fit_ap_curve(powers, a_true, sigma_bad)
    assert abs(report.params["c1"] - 0.074) / 0.074 < 0.05
    with pytest.raises(UnidentifiableParameter):
        fit_ap_curve(powers[:3], a_true[:3], sigma[:3])
