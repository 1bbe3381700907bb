"""The quadrature helper and the numeric FWHM oracle of ``tests/oracles.py``."""

import numpy as np
import pytest

from odmrkit._numerics import adaptive_simpson
from oracles import numeric_fwhm


def test_simpson_polynomial_is_exact():
    # Simpson integrates cubics exactly; the adaptive wrapper must too.
    val = adaptive_simpson(lambda x: 3.0 * x**2 - 2.0 * x + 1.0, -1.0, 2.0)
    assert abs(val - (9.0 - 3.0 + 3.0)) < 1e-12


def test_simpson_gaussian_integral():
    sig = 0.7
    val = adaptive_simpson(
        lambda x: np.exp(-0.5 * (x / sig) ** 2), -40.0, 40.0, rtol=1e-12
    )
    assert abs(val - sig * np.sqrt(2.0 * np.pi)) < 1e-12


def test_simpson_breakpoints_isolate_narrow_spike():
    # A Lorentzian 1e6 times narrower than the window still integrates to its
    # analytic mass once the spike is bracketed by breakpoints.
    a = 1e-5
    val = adaptive_simpson(
        lambda x: a / np.pi / (x * x + a * a),
        -10.0,
        10.0,
        rtol=1e-10,
        breakpoints=(-a, 0.0, a, 8 * a, -8 * a),
    )
    want = 2.0 / np.pi * np.arctan(10.0 / a)
    assert abs(val - want) < 1e-9


def test_simpson_rejects_empty_interval():
    with pytest.raises(ValueError):
        adaptive_simpson(lambda x: x, 1.0, 1.0)


def test_simpson_spike_does_not_corrupt_smooth_tail():
    # The unresolved spike must not loosen the error budget for far panels:
    # compare against the analytic two-Lorentzian convolution value.
    a, b, c, nu = 1.5e-6, 1.5, 0.01, 0.1

    def integrand(x):
        pdf = a / np.pi / (x * x + a * a)
        dip = 2.0 * (1.0 - c * b * b / ((nu - x) ** 2 + b * b))
        return pdf * dip

    got = adaptive_simpson(integrand, -150.0, 150.0, rtol=1e-9, breakpoints=(0.0, nu))
    lw = a + b  # hwhm of the convolved Lorentzian
    exact = 2.0 * (1.0 - c * b * lw / (nu * nu + lw * lw))
    tail = 2.0 * (1.0 - 2.0 / np.pi * np.arctan(150.0 / a))
    assert abs(got - (exact - tail)) < 5e-8


def test_numeric_fwhm_recovers_lorentzian_width():
    fwhm = 3.7
    hw2 = (fwhm / 2.0) ** 2

    def dip(nu):
        return 1.0 - 0.05 * hw2 / (nu * nu + hw2)

    w, mid = numeric_fwhm(dip, 0.0, fwhm)
    assert abs(w - fwhm) < 1e-10
    assert abs(mid) < 1e-10


def test_numeric_fwhm_recovers_gaussian_width():
    sig = 1.3
    fwhm = sig * np.sqrt(8.0 * np.log(2.0))

    def peak(nu):
        return 0.2 + np.exp(-0.5 * (nu / sig) ** 2)

    w, _ = numeric_fwhm(peak, 0.0, fwhm)
    assert abs(w - fwhm) / fwhm < 1e-10


def test_numeric_fwhm_center_offset():
    center = 2654.0
    fwhm = 2.0
    hw2 = (fwhm / 2.0) ** 2

    def dip(nu):
        return 2.0 * (1.0 - 0.01 * hw2 / ((nu - center) ** 2 + hw2))

    # Bisection resolves crossings to rtol * |nu|, about 2.7e-9 at this offset.
    w, mid = numeric_fwhm(dip, center, fwhm)
    assert abs(w - fwhm) < 1e-8
    assert abs(mid - center) < 1e-8


def test_numeric_fwhm_flat_signal_raises():
    with pytest.raises(ValueError):
        numeric_fwhm(lambda nu: 1.0, 0.0, 1.0)
