"""Reference computations and file parsers used to check odmrkit's outputs.

Nothing here calls odmrkit code: the formulas are written out in numpy from
the published preset constants, and the files are parsed with plain string
handling, so a fault in the package cannot also hide in its checker.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi

# Preset constants of the high-nitrogen "s5" sample and of the default
# photon budget (odmrkit.presets, odmrkit.sensitivity.PhotonBudget).
DNU_INH = 3.08
RATIO_G1_G2 = 0.0014
C_OVER_G2 = 0.018
P0_MW = 39.0
F0_MHZ = 1.0
AP = {"a1": 0.5, "b1_mw": 0.5, "c1": 0.074}
CONTRAST = {"theta": 22.9e-3, "g1_over_c_mw": 0.71, "g1g2_us2": 0.0047}
HYPERFINE_MHZ = 2.2
K_CONVERSION = 6.21e-3
P_SAT_MW = 4.8e3
WAVELENGTH_NM = 670.0
GYROMAGNETIC = 1.761e11
PLANCK = 6.62607e-34
LIGHT = 2.99792e8
THETA_READOUT = 22.9e-3  # two-level readout weight (alpha - beta) / (2 alpha)

# A fit counts as right when its value lies within K_SIGMA reported 68%
# intervals of the truth; honest intervals miss that by chance about once
# in two million checks.
K_SIGMA = 5.0
# A spectrum whose true component amplitude is below DETECTION_SNR times
# its best attainable 68% interval carries no usable dip.
DETECTION_SNR = 5.0


def a_of_p(power):
    return AP["a1"] * power / (1.0 + power / AP["b1_mw"]) + AP["c1"]


def width_surface(power, rabi):
    """Total FWHM (MHz) of the s5 width surface; broadcasts."""
    u = rabi * rabi / (1.0 + (rabi / F0_MHZ) ** 2)
    denom = RATIO_G1_G2 + a_of_p(power) * u + C_OVER_G2 * power
    return DNU_INH + rabi * np.sqrt(4.0 * (1.0 + power / P0_MW) / denom)


def component_contrast(power, rabi):
    """Single-component ensemble contrast of the s5 sample; broadcasts."""
    theta, g1c, g1g2 = CONTRAST["theta"], CONTRAST["g1_over_c_mw"], CONTRAST["g1g2_us2"]
    pump = power / (power + g1c * (1.0 - theta))
    knee = g1g2 * (1.0 + power / g1c) / TWO_PI**2
    r2 = rabi * rabi
    return 0.25 * theta * pump * r2 / (r2 + knee)


def component_amplitude(power, rabi, fwhm):
    """Depth of one triplet component whose on-resonance sum is the contrast."""
    g2 = (fwhm / 2.0) ** 2
    return component_contrast(power, rabi) / (1.0 + 2.0 * g2 / (HYPERFINE_MHZ**2 + g2))


def amplitude_snr(amplitude, fwhm, detuning, noise, excluded):
    """True amplitude over its Cramer-Rao 68% interval for a triplet fit.

    ``excluded`` lists (lo, hi) detuning windows left out of the fit.
    """
    keep = np.ones(detuning.size, dtype=bool)
    for lo, hi in excluded:
        keep &= ~((detuning >= lo) & (detuning <= hi))
    nu = detuning[keep]
    g = fwhm / 2.0
    d_amp = np.zeros_like(nu)
    d_center = np.zeros_like(nu)
    d_hwhm = np.zeros_like(nu)
    for m in (-1.0, 0.0, 1.0):
        d = nu - m * HYPERFINE_MHZ
        den = d * d + g * g
        d_amp += g * g / den
        d_center += amplitude * g * g * 2.0 * d / den**2
        d_hwhm += amplitude * 2.0 * g * d * d / den**2
    jac = np.column_stack([d_amp, d_center, d_hwhm]) / noise
    cov = np.linalg.inv(jac.T @ jac)
    return amplitude / math.sqrt(cov[0, 0])


def shot_noise_map(power, rabi, contrast_factor=3.0, rate_scale=1.0):
    """Shot-noise sensitivity (T/sqrt(Hz)) over power x Rabi axes."""
    p = np.asarray(power, dtype=float)[:, None]
    f = np.asarray(rabi, dtype=float)[None, :]
    width = width_surface(p, f)
    contrast = contrast_factor * component_contrast(p, f)
    fluo_w = K_CONVERSION * rate_scale * p / (1.0 + p / P_SAT_MW) * 1e-3
    rate = fluo_w / (PLANCK * LIGHT / (WAVELENGTH_NM * 1e-9))
    return TWO_PI / GYROMAGNETIC * (width * 1e6) / (contrast * np.sqrt(rate))


def two_level_reference(detuning, power, rabi, gamma1, gamma2, c_pump):
    """Normalized two-level dip as the closed-form Lorentzian 1 - C h^2/(d^2 + h^2).

    Bloch equations with pumping: the drive moves population at the rate
    R = Omega^2 g2 / (2 (g2^2 + delta^2)), so rho11 and the readout are
    rational of degree one in R, hence Lorentzian in the detuning.
    """
    pump = c_pump * power
    g2 = gamma2 + pump / 2.0
    b = gamma1 + pump
    a = gamma1 / 2.0
    k = (TWO_PI * rabi) ** 2 * g2 / 2.0
    s_far = 1.0 - 2.0 * THETA_READOUT * a / b
    s_center = 1.0 - 2.0 * THETA_READOUT * (k + a * g2 * g2) / (2.0 * k + b * g2 * g2)
    contrast = 1.0 - s_center / s_far
    fwhm = math.sqrt((g2 / math.pi) ** 2 + 4.0 * rabi * rabi * g2 / b)
    h2 = (fwhm / 2.0) ** 2
    return 1.0 - contrast * h2 / (detuning**2 + h2)


def lorentzian_misfit(detuning, dip):
    """Largest deviation of ``dip`` from its best Lorentzian, relative to its depth.

    A Lorentzian y = C h^2/(d^2 + h^2) satisfies y (alpha + beta d^2) = 1,
    which is linear in (alpha, beta).
    """
    d2 = detuning**2
    coef, *_ = np.linalg.lstsq(np.column_stack([dip, dip * d2]), np.ones_like(dip), rcond=None)
    fit = 1.0 / (coef[0] + coef[1] * d2)
    return float(np.max(np.abs(dip - fit)) / np.max(np.abs(dip)))


def lorentz_lorentz(x, contrast, fwhm_hom, fwhm_inh, baseline=1.0):
    """Exact Lorentzian (x) Lorentzian: FWHM adds, depth scales by w_h/(w_h+w_in)."""
    half = (fwhm_hom + fwhm_inh) / 2.0
    depth = contrast * fwhm_hom / (fwhm_hom + fwhm_inh)
    return baseline * (1.0 - depth * half * half / (x * x + half * half))


def gauss_lorentz(x, contrast, fwhm_hom, fwhm_inh, baseline=1.0):
    """Gaussian (x) Lorentzian by dense fixed-step trapezoid quadrature.

    The Gaussian is integrated over +-12 sigma with a step of 1/40 of the
    narrower feature; the integrand is smooth and vanishes at both ends, so
    the trapezoid sum is accurate far beyond the checked tolerance.
    """
    sigma = fwhm_inh / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    step = min(sigma, fwhm_hom / 2.0) / 40.0
    nodes = np.arange(-12.0 * sigma, 12.0 * sigma + step / 2.0, step)
    weights = np.exp(-0.5 * (nodes / sigma) ** 2) / (sigma * math.sqrt(TWO_PI)) * step
    weights[0] *= 0.5
    weights[-1] *= 0.5
    h2 = (fwhm_hom / 2.0) ** 2
    out = np.empty(x.size)
    for start in range(0, x.size, 64):  # small blocks keep the checker's memory low
        d = x[start : start + 64, None] - nodes[None, :]
        out[start : start + 64] = (h2 / (d * d + h2)) @ weights
    return baseline * (1.0 - contrast * out)


def read_table(path):
    """Parse an odmrkit text table: '# key = value' header, column line, rows."""
    header: dict[str, str] = {}
    columns = None
    rows: list[str] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            key, sep, value = text[1:].partition("=")
            if sep:
                header[key.strip()] = value.strip()
        elif columns is None:
            columns = text.split()
        else:
            rows.append(text)
    if columns is None:
        raise ValueError(f"{path}: no column line")
    data = np.array(" ".join(rows).split(), dtype=float).reshape(-1, len(columns))
    return header, dict(zip(columns, data.T))


def read_fit_params(path):
    """name -> (value, ci68) from the [machine] block of a fit report."""
    params = {}
    in_machine = False
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip() == "[machine]":
            in_machine = True
        elif in_machine and line.startswith("param "):
            _, name, value, ci = line.split()
            params[name] = (float(value), float(ci))
    return params


def interval_misses(params, truth):
    """Names whose interval is not finite or misses the truth by > K_SIGMA."""
    missed = []
    for name, true_value in truth.items():
        if name not in params:
            missed.append(f"{name} missing")
            continue
        value, ci = params[name]
        if not (math.isfinite(ci) and abs(value - true_value) <= K_SIGMA * ci):
            missed.append(f"{name} = {value:.4g} ± {ci:.3g} (truth {true_value:.4g})")
    return missed
