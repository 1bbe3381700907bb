"""Photon budget, shot-noise magnetometry formula and the sensitivity map."""

import numpy as np
import pytest

from odmrkit.errors import InsufficientData
from odmrkit.lineshape import APModelParams, ContrastModelParams, WidthModelParams
from odmrkit.lineshape import a_of_p, contrast_model, total_width_model
from odmrkit.sensitivity import (
    PhotonBudget,
    SensitivityModel,
    fluorescence_power,
    log_grid,
    photon_rate,
    sensitivity_map,
    shot_noise_sensitivity,
)

PLANCK = 6.62607e-34
LIGHT = 2.99792e8


def test_fluorescence_power_saturating_form():
    b = PhotonBudget()
    # k * P / (1 + P / P_sat) with the default numbers.
    want = 0.00621 * 1.0 / (1.0 + 1.0 / 4800.0)
    assert abs(fluorescence_power(b, 1.0) - want) < 1e-18
    # Saturates toward k * P_sat.
    assert fluorescence_power(b, 1e9) < 0.00621 * 4800.0
    assert fluorescence_power(b, 0.0) == 0.0


def test_photon_rate_hand_value():
    b = PhotonBudget()
    e_photon = PLANCK * LIGHT / 670e-9
    want = (0.00621 * 1.0 / (1.0 + 1.0 / 4800.0)) * 1e-3 / e_photon
    got = photon_rate(b, 1.0)
    assert abs(got - want) / want < 1e-12
    assert abs(got - 20941118542610.375) < 1.0
    # Near 2.1e13 photons per second at 1 mW.
    assert abs(got - 2.1e13) / 2.1e13 < 0.02


def test_shot_noise_sensitivity_hand_formula():
    b = PhotonBudget()
    fwhm, contrast, rate = 5.0, 0.01, 2e13
    # (2 pi / gamma) * FWHM / (C sqrt(R)), FWHM in Hz.
    want = (2.0 * np.pi / 1.761e11) * (fwhm * 1e6) / (contrast * np.sqrt(rate))
    got = shot_noise_sensitivity(b, fwhm, contrast, rate)
    assert abs(got - want) / want < 1e-12


def test_shot_noise_sensitivity_scalings():
    b = PhotonBudget()
    s0 = shot_noise_sensitivity(b, 5.0, 0.01, 2e13)
    assert abs(shot_noise_sensitivity(b, 10.0, 0.01, 2e13) - 2.0 * s0) < 1e-12 * s0
    assert abs(shot_noise_sensitivity(b, 5.0, 0.02, 2e13) - 0.5 * s0) < 1e-12 * s0
    assert abs(shot_noise_sensitivity(b, 5.0, 0.01, 8e13) - 0.5 * s0) < 1e-12 * s0


def test_shot_noise_sensitivity_degenerate_inputs():
    b = PhotonBudget()
    with pytest.warns(RuntimeWarning):
        assert shot_noise_sensitivity(b, 5.0, 0.0, 2e13) == np.inf
    with pytest.warns(RuntimeWarning):
        assert shot_noise_sensitivity(b, 5.0, 0.01, 0.0) == np.inf
    with pytest.raises(ValueError):
        shot_noise_sensitivity(b, 0.0, 0.01, 2e13)
    with pytest.raises(ValueError):
        shot_noise_sensitivity(b, -1.0, 0.01, 2e13)


AP = APModelParams(a1=0.5, b1_mw=0.5, c1=0.074)
CONTRAST = ContrastModelParams(theta=22.9e-3, g1_over_c_mw=0.71, g1g2_us2=0.0047)


def make_model():
    return SensitivityModel(
        dnu_inh_hz=3.08,
        ratio_g1_g2=0.0014,
        ap=AP,
        c_over_g2=0.018,
        p0_mw=39.0,
        f0_hz=1.0,
        contrast=CONTRAST,
    )


def test_model_width_matches_width_model():
    m = make_model()
    for power, fr in ((0.02, 0.3), (7.0, 1.1), (500.0, 2.5)):
        wp = WidthModelParams(
            dnu_inh_hz=3.08,
            ratio_g1_g2=0.0014,
            a_over_g2=(a_of_p(AP, power),),
            c_over_g2=0.018,
            p0_mw=39.0,
            f0_hz=1.0,
        )
        assert abs(m.width_at(power, fr) - total_width_model(wp, power, 0, fr)) < 1e-12


def test_model_contrast_is_three_lines_worth():
    m = make_model()
    for power, fr in ((0.02, 0.3), (7.0, 1.1), (500.0, 2.5)):
        want = 3.0 * contrast_model(CONTRAST, power, fr)
        assert abs(m.contrast_at(power, fr) - want) < 1e-15


def test_model_sensitivity_combines_parts():
    m = make_model()
    power, fr = 7.0, 1.1
    want = shot_noise_sensitivity(
        m.budget,
        m.width_at(power, fr),
        m.contrast_at(power, fr),
        photon_rate(m.budget, power),
    )
    assert abs(m.sensitivity_at(power, fr) - want) < 1e-18


def test_log_grid_endpoints_and_spacing():
    g = log_grid(0.02, 500.0, 12)
    assert g.size == 12
    assert abs(g[0] - 0.02) < 1e-15
    assert abs(g[-1] - 500.0) < 1e-12
    ratios = g[1:] / g[:-1]
    assert np.max(np.abs(ratios - ratios[0])) < 1e-12
    with pytest.raises(ValueError):
        log_grid(-1.0, 10.0, 5)
    with pytest.raises(ValueError):
        log_grid(1.0, 10.0, 1)


def test_sensitivity_map_frozen_optimum():
    m = make_model()
    smap = sensitivity_map(m, log_grid(0.02, 500.0, 12), log_grid(0.05, 2.5, 12))
    assert smap.sensitivity.shape == (12, 12)
    # Optimum sits at the high-power edge at a sub-MHz Rabi frequency.
    assert abs(smap.best_power_mw - 500.0) < 1e-9
    assert abs(smap.best_rabi_hz - 0.6027437758182379) < 1e-12
    assert abs(smap.best_sensitivity - 1.2008835184535652e-10) < 1e-22
    i, j = smap.argmin
    assert smap.sensitivity[i, j] == smap.best_sensitivity
    assert np.all(smap.sensitivity >= smap.best_sensitivity)


def test_sensitivity_map_monotone_in_power_along_columns():
    m = make_model()
    smap = sensitivity_map(m, log_grid(0.02, 500.0, 10), np.array([0.34, 0.6, 1.1, 2.5]))
    # More pump power always helps in this model: narrowing plus photon flux.
    assert np.all(np.diff(smap.sensitivity, axis=0) < 0.0)


@pytest.mark.parametrize(
    "powers, rabis",
    [
        (log_grid(0.02, 500.0, 12), log_grid(0.05, 2.5, 12)),
        (log_grid(0.03, 480.0, 40), np.linspace(0.04, 2.6, 30)),
    ],
)
def test_sensitivity_map_equals_cell_by_cell_evaluation(powers, rabis):
    m = make_model()
    smap = sensitivity_map(m, powers, rabis)
    cells = np.array([[m.sensitivity_at(float(p), float(r)) for r in rabis] for p in powers])
    assert np.array_equal(smap.sensitivity, cells)
    assert smap.argmin == np.unravel_index(np.argmin(cells), cells.shape)


def test_model_broadcasts_over_arrays():
    m = make_model()
    powers = np.array([[0.02], [7.0], [500.0]])
    rabis = np.array([[0.3, 1.1, 2.5]])
    widths = m.width_at(powers, rabis)
    assert widths.shape == (3, 3)
    assert m.width_at(7.0, 1.1) == widths[1, 1]
    assert isinstance(m.sensitivity_at(7.0, 1.1), float)
    with pytest.raises(ValueError):
        m.width_at(powers, -rabis)


def test_sensitivity_map_ignores_infinite_cells():
    m = make_model()
    # A Rabi drive small enough to underflow the contrast yields an infinite
    # column; those cells stay in the matrix but never win the argmin.
    smap = sensitivity_map(m, log_grid(0.02, 500.0, 6), np.array([1e-300, 0.6, 1.1]))
    assert np.all(np.isinf(smap.sensitivity[:, 0]))
    assert np.isfinite(smap.best_sensitivity)
    assert smap.best_rabi_hz > 0.1


def test_sensitivity_map_without_a_finite_cell_is_insufficient_data():
    # Valid axes whose every cell diverges are a numerical failure, not bad
    # input: InsufficientData, which the CLI maps to exit 3.
    with pytest.raises(InsufficientData, match="no finite sensitivity cell"):
        sensitivity_map(make_model(), log_grid(0.02, 500.0, 3), np.array([1e-170, 1e-169]))


def test_sensitivity_map_rejects_bad_axes():
    m = make_model()
    with pytest.raises(ValueError):
        sensitivity_map(m, np.array([0.0, 1.0]), np.array([0.5]))
    with pytest.raises(ValueError):
        sensitivity_map(m, np.array([1.0]), np.array([]))
