"""Lineshape building blocks: distributions, convolution, width and contrast models.

The Voigt reference width below was computed with an independent fine-grid
trapezoid convolution (1.2e6 points over +-60 MHz) plus bisection on the
half-depth level; scripts are kept outside the package.
"""

import numpy as np
import pytest

from odmrkit.errors import GridTooCoarse
from odmrkit.lineshape import (
    _convolved_dip,
    _width_terms,
    APModelParams,
    ContrastModelParams,
    HyperfineModel,
    InhomogeneousDist,
    WidthModelParams,
    a_of_p,
    contrast_model,
    contrast_to_amplitude,
    convolve_at,
    convolve_inhomogeneous,
    hyperfine_contrast,
    total_width_model,
    triple_lorentzian,
)
from odmrkit.spin_models import LineshapeSummary
from oracles import numeric_fwhm


def test_lorentzian_pdf_normalization_and_peak():
    d = InhomogeneousDist("lorentzian", 2.0, center_hz=1.5)
    hwhm = 1.0
    assert abs(d.pdf(np.array([1.5]))[0] - 1.0 / (np.pi * hwhm)) < 1e-14
    assert abs(d.mass_within(-np.inf, np.inf) - 1.0) < 1e-14
    assert abs(d.mass_within(0.5, 2.5) - 0.5) < 1e-14


def test_gaussian_pdf_normalization_and_peak():
    d = InhomogeneousDist("gaussian", 2.3548200450309493)
    sig = 1.0
    assert abs(d.pdf(np.array([0.0]))[0] - 1.0 / (sig * np.sqrt(2 * np.pi))) < 1e-12
    assert abs(d.mass_within(-1.0, 1.0) - 0.6826894921370859) < 1e-12


def test_dist_rejects_unknown_kind():
    with pytest.raises(ValueError):
        InhomogeneousDist("top-hat", 1.0)


def test_delta_limit_recovers_homogeneous_shape():
    # A distribution one millionth as wide as the dip must leave the
    # homogeneous lineshape untouched to well within 0.1%.
    hom = LineshapeSummary(contrast=0.01, fwhm_hz=3.0, baseline=2.0)
    for kind in ("lorentzian", "gaussian"):
        d = InhomogeneousDist(kind, 3e-6)
        w, _ = numeric_fwhm(lambda nu: convolve_at(d, hom, nu), 0.0, 3.0)
        assert abs(w - 3.0) / 3.0 < 1e-3
        on = convolve_at(d, hom, 0.0)
        assert abs(on - 2.0 * (1.0 - 0.01)) < 1e-5


def test_lorentzian_convolution_width_additivity():
    rng = np.random.default_rng(7)
    for _ in range(10):
        w_in = float(rng.uniform(0.2, 5.0))
        w_h = float(rng.uniform(0.2, 5.0))
        d = InhomogeneousDist("lorentzian", w_in)
        hom = LineshapeSummary(
            contrast=float(rng.uniform(0.003, 0.2)), fwhm_hz=w_h, baseline=1.0
        )
        w, _ = numeric_fwhm(lambda nu: convolve_at(d, hom, nu), 0.0, w_in + w_h)
        assert abs(w - (w_in + w_h)) / (w_in + w_h) < 5e-3


def test_lorentzian_convolution_pointwise_closed_form():
    w_in, w_h, c = 1.0, 2.0, 0.04
    d = InhomogeneousDist("lorentzian", w_in)
    hom = LineshapeSummary(contrast=c, fwhm_hz=w_h, baseline=1.0)
    lw = (w_in + w_h) / 2.0
    for nu in (0.0, 0.7, 1.5, 4.0):
        got = convolve_at(d, hom, nu)
        want = 1.0 - c * (w_h / 2.0) * lw / (nu * nu + lw * lw)
        assert abs(got - want) < 1e-8


def test_voigt_width_matches_reference():
    d = InhomogeneousDist("gaussian", 2.0)
    hom = LineshapeSummary(contrast=0.05, fwhm_hz=3.0, baseline=1.0)
    w, _ = numeric_fwhm(lambda nu: convolve_at(d, hom, nu), 0.0, 5.0)
    assert abs(w - 4.043338113110442) / 4.043338113110442 < 1e-8


def test_convolution_center_shift_moves_dip():
    d = InhomogeneousDist("lorentzian", 1.0, center_hz=10.0)
    hom = LineshapeSummary(contrast=0.05, fwhm_hz=1.0, baseline=1.0)
    w, mid = numeric_fwhm(lambda nu: convolve_at(d, hom, nu), 10.0, 2.0)
    assert abs(mid - 10.0) < 1e-8
    assert abs(w - 2.0) / 2.0 < 5e-3


def test_convolve_grid_too_coarse_checks():
    d = InhomogeneousDist("lorentzian", 2.0)
    hom = LineshapeSummary(contrast=0.05, fwhm_hz=1.0, baseline=1.0)
    with pytest.raises(GridTooCoarse):
        convolve_inhomogeneous(d, hom, np.linspace(-10.0, 10.0, 801))
    with pytest.raises(GridTooCoarse):
        convolve_inhomogeneous(d, hom, np.linspace(-40.0, 40.0, 101))
    vals = convolve_inhomogeneous(d, hom, np.linspace(-40.0, 40.0, 2001))
    assert vals.shape == (2001,)
    assert np.argmin(vals) == 1000
    # The largest spacing of this grid rounds to 0.05000000000001137, a few
    # ulp of its endpoints above the 0.05 MHz limit: accepted.
    vals = convolve_inhomogeneous(d, hom, np.linspace(-40.0, 40.0, 1601))
    assert vals.shape == (1601,)
    assert np.argmin(vals) == 800


@pytest.mark.parametrize("kind", ["gaussian", "lorentzian"])
def test_closed_form_convolution_matches_quadrature(kind):
    # w_in / w_h from 1e-6 to 1e2 (both ends plus seeded draws), off-centre
    # distributions. Grids that resolve the extreme ratios would need up to
    # 4e8 points, so the closed form is evaluated at chosen frequencies only.
    rng = np.random.default_rng(3)
    ratios = np.concatenate([[1e-6, 1e2], 10.0 ** rng.uniform(-6.0, 2.0, 6)])
    for ratio in ratios:
        w_h = float(np.exp(rng.uniform(np.log(0.01), np.log(3.0))))
        w_in = w_h * float(ratio)
        d = InhomogeneousDist(kind, w_in, center_hz=float(rng.uniform(-5.0, 5.0)))
        hom = LineshapeSummary(
            contrast=float(rng.uniform(0.003, 0.2)),
            fwhm_hz=w_h,
            baseline=float(rng.uniform(0.5, 2.0)),
        )
        combined = w_in + w_h
        scales = [0.3 * w_h, w_h, 0.3 * w_in, w_in, combined, 3 * combined, 10 * combined]
        nu = d.center_hz + np.concatenate([[0.0], scales, np.negative(scales)])
        depth = hom.baseline * hom.contrast
        for n, got in zip(nu, _convolved_dip(d, hom, nu)):
            want = convolve_at(d, hom, float(n), rtol=1e-12)
            assert abs(got - want) <= 1e-9 * depth


@pytest.mark.parametrize("kind", ["gaussian", "lorentzian"])
def test_convolve_inhomogeneous_on_a_grid_matches_quadrature(kind):
    d = InhomogeneousDist(kind, 3.0, center_hz=1.25)
    hom = LineshapeSummary(contrast=0.02, fwhm_hz=1.0, baseline=1.0)
    grid = 1.25 + np.linspace(-44.0, 44.0, 2001)
    vals = convolve_inhomogeneous(d, hom, grid)
    for i in range(0, 2001, 50):
        want = convolve_at(d, hom, float(grid[i]), rtol=1e-12)
        assert abs(vals[i] - want) <= 1e-9 * 0.02


def test_convolve_at_meets_its_tolerance_where_simpson_stopped_early():
    # A seeded draw found this point: before each initial Simpson panel was
    # split into eight, the quadrature stopped 1e-5 of the depth off.
    w_in, w_h, nu, c = 2.1839319133610635, 1.447207932484929, 28.0, 0.02
    d = InhomogeneousDist("lorentzian", w_in)
    hom = LineshapeSummary(contrast=c, fwhm_hz=w_h, baseline=1.0)
    lw = (w_in + w_h) / 2.0
    want = 1.0 - c * (w_h / 2.0) * lw / (nu * nu + lw * lw)
    assert abs(convolve_at(d, hom, nu) - want) < 1e-7 * c


def test_triple_lorentzian_merges_to_triple_depth_at_zero_splitting():
    # Three lines on top of each other dip exactly 3A at center.
    m = HyperfineModel(amplitude=0.02, center_hz=0.0, hwhm_hz=1.0, splitting_hz=0.0)
    val = triple_lorentzian(m, np.array([0.0]))[0]
    assert abs(val - (1.0 - 0.06)) < 1e-14


def test_triple_lorentzian_resolved_lines():
    m = HyperfineModel(amplitude=0.02, center_hz=0.0, hwhm_hz=0.05, splitting_hz=2.2)
    nu = np.array([-2.2, 0.0, 2.2])
    vals = triple_lorentzian(m, nu)
    # With well-resolved lines each dip bottom is close to a single amplitude.
    assert np.all(np.abs((1.0 - vals) - 0.02) < 0.002)


def test_hyperfine_contrast_and_inverse_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(20):
        amp = float(rng.uniform(1e-4, 0.3)) / 3.0
        hwhm = float(rng.uniform(0.2, 5.0))
        c = hyperfine_contrast(amp, hwhm)
        back = contrast_to_amplitude(c, hwhm)
        assert abs(back - amp) / amp < 1e-12
    # Arrays broadcast element by element, bit for bit equal to scalar calls.
    amps = rng.uniform(1e-4, 0.1, 7)
    hwhms = rng.uniform(0.2, 5.0, 7)
    c = hyperfine_contrast(amps, hwhms)
    assert np.array_equal(c, [hyperfine_contrast(a, h) for a, h in zip(amps, hwhms)])
    assert np.array_equal(
        contrast_to_amplitude(c, hwhms),
        [contrast_to_amplitude(x, h) for x, h in zip(c, hwhms)],
    )


def test_hyperfine_contrast_limits():
    # Merged: depth 3A; resolved: depth A (adjacent lines contribute nothing).
    assert abs(hyperfine_contrast(0.01, 10.0, splitting_hz=0.0) - 0.03) < 1e-14
    assert hyperfine_contrast(0.01, 1e-4) == pytest.approx(0.01, rel=1e-6)


def test_width_surface_microwave_term_quadratic_then_saturating():
    # a fr^2 / (1 + fr^2 / f0^2) is all of denom when gamma1, c and P are 0:
    # hand values.
    denom = _width_terms(0.0, 0.0, 0.1, 0.0, 1.0, 1.0, 0.0, np.sqrt(3.0))[3]
    assert abs(denom - 0.075) < 1e-14
    lo = _width_terms(0.0, 0.0, 0.1, 0.0, 1.0, 1.0, 0.0, 0.01)[3]
    assert abs(lo - 0.1 * 1e-4 / (1.0 + 1e-4)) < 1e-18


def test_a_of_p_hand_values():
    ap = APModelParams(a1=0.5, b1_mw=0.5, c1=0.074)
    assert abs(a_of_p(ap, 0.5) - 0.199) < 1e-14
    assert abs(a_of_p(ap, 0.0) - 0.074) < 1e-14
    # Saturates toward a1 * b1 + c1.
    assert abs(a_of_p(ap, 1e9) - (0.25 + 0.074)) < 1e-6


def width_params(a_value):
    return WidthModelParams(
        dnu_inh_hz=3.08,
        ratio_g1_g2=0.0014,
        a_over_g2=(a_value,),
        c_over_g2=0.018,
        p0_mw=39.0,
        f0_hz=1.0,
    )


def test_total_width_low_power_is_dominated_by_inhomogeneous():
    w = total_width_model(width_params(0.0836), 1e-9, 0, 1e-6)
    assert abs(w - 3.08) / 3.08 < 1e-3


def test_total_width_frozen_narrowing_values():
    w_lo = total_width_model(width_params(0.0836), 0.02, 0, 1.1)
    w_hi = total_width_model(width_params(0.0836), 500.0, 0, 1.1)
    assert abs(w_lo - 13.173486666898565) < 1e-9
    assert abs(w_hi - 5.799119771214869) < 1e-9


def test_total_width_reduces_to_saturating_two_level_form():
    # With a = 0 the width minus the inhomogeneous offset must follow
    # 2 f sqrt(gamma2 (1 + P/P0) / (gamma1 + cP)) exactly.
    p = WidthModelParams(
        dnu_inh_hz=1.0,
        ratio_g1_g2=0.002,
        a_over_g2=(0.0,),
        c_over_g2=0.02,
        p0_mw=10.0,
        f0_hz=1.0,
    )
    for power in (0.05, 1.0, 20.0):
        for fr in (0.1, 0.7, 2.0):
            w = total_width_model(p, power, 0, fr)
            g1, c = 0.002, 0.02
            want = 1.0 + 2.0 * fr * np.sqrt(
                (1.0 + power / 10.0) / (g1 + c * power)
            )
            assert abs(w - want) / want < 1e-12


def test_contrast_model_hand_value_and_saturation():
    cp = ContrastModelParams(theta=22.9e-3, g1_over_c_mw=0.71, g1g2_us2=0.0047)
    # Strong drive and strong pumping approach theta / 4.
    c_inf = contrast_model(cp, 1e9, 1e6)
    assert abs(c_inf - 22.9e-3 / 4.0) / (22.9e-3 / 4.0) < 1e-3
    # Frozen interior value from the same expression evaluated by hand:
    # C = theta/4 * P/(P + (g1/c)(1 - theta)) * fr^2/(fr^2 + g1g2 (1 + P/(g1/c)) / (2 pi)^2)
    power, fr = 10.0, 1.1
    hand = (
        22.9e-3
        / 4.0
        * (power / (power + 0.71 * (1.0 - 22.9e-3)))
        * (fr**2 / (fr**2 + 0.0047 * (1.0 + power / 0.71) / (2.0 * np.pi) ** 2))
    )
    assert abs(contrast_model(cp, power, fr) - hand) < 1e-15


def test_contrast_model_monotone_in_rabi():
    cp = ContrastModelParams(theta=22.9e-3, g1_over_c_mw=0.71, g1g2_us2=0.0047)
    values = [contrast_model(cp, 10.0, fr) for fr in (0.1, 0.3, 1.0, 3.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_width_model_validation():
    with pytest.raises(ValueError):
        WidthModelParams(
            dnu_inh_hz=-1.0,
            ratio_g1_g2=0.01,
            a_over_g2=(0.1,),
            c_over_g2=0.01,
            p0_mw=1.0,
            f0_hz=1.0,
        )
    with pytest.raises(ValueError):
        HyperfineModel(amplitude=0.4, center_hz=0.0, hwhm_hz=1.0)
