"""Ensemble lineshape models layered on top of the single-spin resonance.

This module handles everything between the homogeneous single-orientation
dip and a measured ensemble spectrum: inhomogeneous broadening by
convolution, the empirical power/Rabi dependence of the total width
(including the microwave-induced relaxation through substitutional-nitrogen
spins), the nitrogen hyperfine triplet, and the ensemble contrast model.

The width surface, the triplet and the contrast model are each written once,
in a private core that takes raw numbers and broadcasts over arrays. The
public functions validate their inputs and call it; simulation and the fits
in :mod:`odmrkit.fitting` call it too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._numerics import adaptive_simpson, scalar_or_array
from .constants import GAUSSIAN_FWHM_OVER_SIGMA, HYPERFINE_SPLITTING_MHZ
from .errors import GridTooCoarse
from .spin_models import LineshapeSummary, TWO_PI

if TYPE_CHECKING:
    from .sensitivity import SensitivityModel


@dataclass(frozen=True)
class InhomogeneousDist:
    """Normalized distribution of resonance centers across the ensemble."""

    kind: str
    fwhm_inh_hz: float
    center_hz: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("lorentzian", "gaussian"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if not self.fwhm_inh_hz > 0.0:
            raise ValueError("fwhm_inh_hz must be positive")
        if not math.isfinite(self.center_hz):
            raise ValueError("center_hz must be finite")

    def pdf(self, nu: np.ndarray) -> np.ndarray:
        x = np.asarray(nu, dtype=float) - self.center_hz
        if self.kind == "lorentzian":
            hwhm = self.fwhm_inh_hz / 2.0
            return hwhm / math.pi / (x * x + hwhm * hwhm)
        sigma = self.fwhm_inh_hz / GAUSSIAN_FWHM_OVER_SIGMA
        return np.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))

    def mass_within(self, lo: float, hi: float) -> float:
        """Probability mass on [lo, hi], in closed form."""
        if self.kind == "lorentzian":
            hwhm = self.fwhm_inh_hz / 2.0
            return (
                math.atan((hi - self.center_hz) / hwhm)
                - math.atan((lo - self.center_hz) / hwhm)
            ) / math.pi
        sigma = self.fwhm_inh_hz / GAUSSIAN_FWHM_OVER_SIGMA
        scale = sigma * math.sqrt(2.0)
        return 0.5 * (
            math.erf((hi - self.center_hz) / scale)
            - math.erf((lo - self.center_hz) / scale)
        )


@dataclass(frozen=True)
class HyperfineModel:
    """Symmetric triplet of Lorentzian dips split by the nitrogen hyperfine coupling.

    ``amplitude`` is the depth of one component; the quoted width of the
    spectrum is the FWHM ``2 * hwhm_hz`` of a single component.
    """

    amplitude: float
    center_hz: float
    hwhm_hz: float
    splitting_hz: float = HYPERFINE_SPLITTING_MHZ

    def __post_init__(self) -> None:
        if not 0.0 < self.amplitude <= 1.0 / 3.0:
            raise ValueError("amplitude must lie in (0, 1/3]")
        if not self.hwhm_hz > 0.0:
            raise ValueError("hwhm_hz must be positive")
        if self.splitting_hz < 0.0 or not math.isfinite(self.splitting_hz):
            raise ValueError("splitting_hz must be finite and non-negative")
        if not math.isfinite(self.center_hz):
            raise ValueError("center_hz must be finite")


@dataclass(frozen=True)
class WidthModelParams:
    """Parameters of the global width surface over (power, Rabi frequency).

    ``a_over_g2`` holds one microwave-induced relaxation slope per optical
    power setting, in the same order as the power list the surface is
    evaluated against. All entries are ratios to the intrinsic gamma2, so the
    surface itself is independent of the absolute gamma2 scale.
    """

    dnu_inh_hz: float
    ratio_g1_g2: float
    a_over_g2: tuple[float, ...]
    c_over_g2: float
    p0_mw: float
    f0_hz: float

    def __post_init__(self) -> None:
        if not self.dnu_inh_hz >= 0.0:
            raise ValueError("dnu_inh_hz must be non-negative")
        if not self.ratio_g1_g2 > 0.0:
            raise ValueError("ratio_g1_g2 must be positive")
        object.__setattr__(self, "a_over_g2", tuple(float(a) for a in self.a_over_g2))
        if any(a < 0.0 for a in self.a_over_g2):
            raise ValueError("a_over_g2 entries must be non-negative")
        if not self.c_over_g2 >= 0.0:
            raise ValueError("c_over_g2 must be non-negative")
        if not self.p0_mw > 0.0:
            raise ValueError("p0_mw must be positive")
        if not self.f0_hz > 0.0:
            raise ValueError("f0_hz must be positive")


@dataclass(frozen=True)
class APModelParams:
    """Saturating power dependence of the microwave-induced relaxation slope.

    a(P) = a1 * P / (1 + P / b1) + c1, all in ratio-to-gamma2 units.
    """

    a1: float
    b1_mw: float
    c1: float

    def __post_init__(self) -> None:
        for name in ("a1", "b1_mw", "c1"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and non-negative")
        if self.b1_mw == 0.0:
            raise ValueError("b1_mw must be positive")


@dataclass(frozen=True)
class ContrastModelParams:
    """Parameters of the ensemble contrast model.

    theta is the readout weight asymmetry; g1_over_c_mw = gamma1 / c is the
    power at which pumping overtakes intrinsic longitudinal relaxation;
    g1g2_us2 = gamma1 * gamma2 in 1/us^2.
    """

    theta: float
    g1_over_c_mw: float
    g1g2_us2: float

    def __post_init__(self) -> None:
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must lie in (0, 1]")
        if not self.g1_over_c_mw > 0.0:
            raise ValueError("g1_over_c_mw must be positive")
        if not self.g1g2_us2 > 0.0:
            raise ValueError("g1g2_us2 must be positive")


def _lorentzian_dip(x: np.ndarray, contrast: float, fwhm: float, baseline: float) -> np.ndarray:
    hwhm_sq = (fwhm / 2.0) ** 2
    return baseline * (1.0 - contrast * hwhm_sq / (np.asarray(x) ** 2 + hwhm_sq))


def convolve_at(
    dist: InhomogeneousDist,
    homogeneous: LineshapeSummary,
    nu: float,
    *,
    rtol: float = 1e-9,
) -> float:
    """Ensemble signal at a single frequency: (dist * homogeneous dip)(nu).

    Adaptive Simpson over a window that covers both the distribution core and
    the evaluation point; outside it the dip is treated as flat, so the tail
    contributes baseline times the analytic tail mass. The window reaches
    far enough past ``nu`` that the dip it leaves out, below
    contrast * combined^3 / (27 pi reach^3) of the baseline, is under ``rtol``.
    """
    if not rtol > 0.0:
        raise ValueError("rtol must be positive")
    combined = dist.fwhm_inh_hz + homogeneous.fwhm_hz
    flat = (homogeneous.contrast / (27.0 * math.pi * rtol)) ** (1.0 / 3.0)
    half_window = max(50.0, flat) * combined + abs(nu - dist.center_hz)
    lo = dist.center_hz - half_window
    hi = dist.center_hz + half_window

    def integrand(nu0: np.ndarray) -> np.ndarray:
        return dist.pdf(nu0) * _lorentzian_dip(
            nu - nu0, homogeneous.contrast, homogeneous.fwhm_hz, homogeneous.baseline
        )

    # Bracket both features at their own scales so the initial panels isolate
    # them even when the two widths differ by many orders of magnitude.
    breakpoints = [dist.center_hz, nu]
    for center, width in ((dist.center_hz, dist.fwhm_inh_hz), (nu, homogeneous.fwhm_hz)):
        for k in (1.0, 8.0, 64.0, 512.0, 4096.0):
            breakpoints += [center - k * width, center + k * width]
    core = adaptive_simpson(integrand, lo, hi, rtol=rtol, breakpoints=breakpoints)
    tail_mass = 1.0 - dist.mass_within(lo, hi)
    return core + homogeneous.baseline * tail_mass


@functools.cache
def _weideman_coefficients() -> tuple[float, np.ndarray]:
    """Scale L and polynomial coefficients of Weideman's N = 32 approximation.

    J. A. C. Weideman, SIAM J. Numer. Anal. 31 (1994) 1497, algorithm "cef":
    w(z) = 2 p(Z) / (L - iz)^2 + 1 / (sqrt(pi) (L - iz)) with
    Z = (L + iz) / (L - iz) and p a polynomial of degree N - 1. Its
    coefficients are the real part of a discrete Fourier transform of
    exp(-t^2) (L^2 + t^2) at t = L tan(theta / 2). The transform is written
    out as a cosine sum rather than the paper's FFT, so numpy.fft is not
    imported for one 128-point transform. It runs on first use: the ufunc
    kernels it touches add about 0.8 MB of resident memory, which programs
    that never convolve need not carry.
    """
    n = 32
    m = 2 * n
    scale = math.sqrt(n / math.sqrt(2.0))
    t = scale * np.tan(np.arange(-m + 1, m) * math.pi / m / 2.0)
    f = np.roll(np.concatenate(([0.0], np.exp(-t * t) * (scale * scale + t * t))), m)
    j = np.arange(n, 0, -1)[:, None]
    return scale, np.cos(math.pi * j * np.arange(2 * m) / m) @ f / (2 * m)


def _faddeeva(z: np.ndarray) -> np.ndarray:
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz) for Im z >= 0.

    Weideman's rational approximation with N = 32 terms, accurate to about
    1e-13 in the closed upper half-plane.
    """
    scale, coef = _weideman_coefficients()
    lz = scale - 1j * z
    p = np.polyval(coef, (2.0 * scale - lz) / lz)
    return 2.0 * p / (lz * lz) + 1.0 / (math.sqrt(math.pi) * lz)


def convolve_inhomogeneous(
    dist: InhomogeneousDist,
    homogeneous: LineshapeSummary,
    grid: np.ndarray,
) -> np.ndarray:
    """Sample the inhomogeneously broadened dip on ``grid`` (MHz), in closed form.

    A Lorentzian distribution gives a Lorentzian of FWHM w_h + w_in and depth
    C w_h / (w_h + w_in). A Gaussian distribution of standard deviation
    sigma gives the Voigt profile

        baseline * (1 - C pi gamma Re w(z) / (sigma sqrt(2 pi))),
        z = (nu - center + i gamma) / (sigma sqrt 2),  gamma = w_h / 2,

    with the Faddeeva function w from Weideman's rational approximation.
    :func:`convolve_at` integrates the same convolution numerically and
    serves as the independent check.

    The grid must span at least 20 combined FWHM and resolve the narrower of
    the two widths with at least 20 points per FWHM, else
    :class:`GridTooCoarse` is raised. Both limits allow a few ulp of the
    grid's largest coordinate, so ``np.linspace`` rounding does not reject a
    grid that meets them exactly.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-d array with at least two points")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    slack = 4.0 * float(np.spacing(max(abs(grid[0]), abs(grid[-1]))))
    combined = dist.fwhm_inh_hz + homogeneous.fwhm_hz
    span = grid[-1] - grid[0]
    if span < 20.0 * combined - slack:
        raise GridTooCoarse(
            f"grid spans {span:g} MHz but must cover 20 combined FWHM = {20 * combined:g} MHz"
        )
    narrower = min(dist.fwhm_inh_hz, homogeneous.fwhm_hz)
    spacing = float(np.max(np.diff(grid)))
    if spacing > narrower / 20.0 + slack:
        raise GridTooCoarse(
            f"grid spacing {spacing:g} MHz exceeds (narrower FWHM)/20 = {narrower / 20:g} MHz"
        )
    return _convolved_dip(dist, homogeneous, grid)


def _convolved_dip(
    dist: InhomogeneousDist, homogeneous: LineshapeSummary, nu: np.ndarray
) -> np.ndarray:
    """Closed form of (dist * homogeneous dip) at the frequencies ``nu``."""
    x = nu - dist.center_hz
    contrast = homogeneous.contrast
    if dist.kind == "lorentzian":
        combined = dist.fwhm_inh_hz + homogeneous.fwhm_hz
        depth = contrast * homogeneous.fwhm_hz / combined
        return _lorentzian_dip(x, depth, combined, homogeneous.baseline)
    gamma = homogeneous.fwhm_hz / 2.0
    sigma = dist.fwhm_inh_hz / GAUSSIAN_FWHM_OVER_SIGMA
    voigt = _faddeeva((x + 1j * gamma) / (sigma * math.sqrt(2.0))).real
    dip = contrast * math.pi * gamma * voigt / (sigma * math.sqrt(2.0 * math.pi))
    return homogeneous.baseline * (1.0 - dip)


def a_of_p(params: APModelParams, power_mw: float | np.ndarray) -> float | np.ndarray:
    """Evaluate the saturating slope model a(P) = a1 P / (1 + P / b1) + c1.

    Broadcasts over an array of powers.
    """
    if np.any(np.asarray(power_mw) < 0.0):
        raise ValueError("power_mw must be non-negative")
    return params.a1 * power_mw / (1.0 + power_mw / params.b1_mw) + params.c1


def _width_terms(dnu_inh_hz, ratio_g1_g2, a_over_g2, c_over_g2, p0_mw, f0_hz, power, rabi):
    """The width surface from raw parameters, with the terms its derivatives reuse.

    Returns ``(width, r2, knee, denom, root)``: ``r2`` = f_R^2, ``knee`` =
    1 + f_R^2 / f0^2, ``denom`` = gamma1/gamma2 + a f_R^2 / knee + (c/gamma2) P,
    ``root`` = sqrt(4 (1 + P/P0) / denom) and ``width`` = dnu_inh + f_R root.
    Nothing is validated, so least-squares trial points evaluate as well.
    """
    r2 = rabi * rabi
    knee = 1.0 + r2 / (f0_hz * f0_hz)
    denom = ratio_g1_g2 + a_over_g2 * r2 / knee + c_over_g2 * power
    numer = 4.0 * (1.0 + power / p0_mw)
    root = np.sqrt(numer / denom)
    return dnu_inh_hz + rabi * root, r2, knee, denom, root


def width_surface(
    p: WidthModelParams | SensitivityModel,
    a_over_g2: float | np.ndarray,
    power_mw: float | np.ndarray,
    rabi_hz: float | np.ndarray,
) -> float | np.ndarray:
    """The width surface of :func:`total_width_model` for a given slope a.

    Only the shared fields of ``p`` are read (``dnu_inh_hz``, ``ratio_g1_g2``,
    ``c_over_g2``, ``p0_mw``, ``f0_hz``), so a :class:`SensitivityModel` with
    a(P) from its saturating curve serves as well. ``a_over_g2``,
    ``power_mw`` and ``rabi_hz`` broadcast against each other.
    """
    power = np.asarray(power_mw, dtype=float)
    rabi = np.asarray(rabi_hz, dtype=float)
    if np.any(power < 0.0):
        raise ValueError("power_mw must be non-negative")
    if np.any(rabi < 0.0):
        raise ValueError("rabi_hz must be non-negative")
    width, *_ = _width_terms(
        p.dnu_inh_hz, p.ratio_g1_g2, a_over_g2, p.c_over_g2, p.p0_mw, p.f0_hz, power, rabi
    )
    return scalar_or_array(width)


def total_width_model(
    p: WidthModelParams,
    power_mw: float,
    power_index: int,
    rabi_hz: float,
) -> float:
    """Total ensemble width (MHz) at one (power, Rabi) setting.

    dnu_inh + f_R * sqrt(4 gamma2 (1 + P/P0)
                         / (gamma1 + gamma_mw(f_R) + c P))

    with every rate in the denominator expressed as a ratio to gamma2, which
    therefore cancels. ``gamma_mw`` = a f_R^2 / (1 + f_R^2 / f0^2) is
    quadratic in the Rabi frequency at weak drive and saturates above f0,
    with the slope ``p.a_over_g2[power_index]``.
    """
    return width_surface(p, p.a_over_g2[power_index], power_mw, rabi_hz)


def _subtract_dips(signal, nu, center_hz, offsets, amplitude, hwhm_hz):
    """``signal`` minus one Lorentzian dip at ``center_hz + offset`` per offset.

    Every dip has depth ``amplitude`` and half-width ``hwhm_hz``; they are
    subtracted one at a time in the order given. Nothing is validated, so
    least-squares trial points evaluate as well.
    """
    g_sq = hwhm_hz * hwhm_hz
    depth = amplitude * g_sq
    rel = nu - center_hz
    for offset in offsets:
        d = rel - offset
        signal = signal - depth / (d * d + g_sq)
    return signal


def triple_lorentzian(model: HyperfineModel, grid: np.ndarray) -> np.ndarray:
    """Normalized hyperfine-triplet dip: 1 - sum of three Lorentzian components."""
    nu = np.asarray(grid, dtype=float)
    offsets = (-model.splitting_hz, 0.0, model.splitting_hz)
    return _subtract_dips(
        np.ones_like(nu), nu, model.center_hz, offsets, model.amplitude, model.hwhm_hz
    )


def hyperfine_contrast(
    amplitude: float | np.ndarray,
    hwhm_hz: float | np.ndarray,
    splitting_hz: float = HYPERFINE_SPLITTING_MHZ,
) -> float | np.ndarray:
    """On-resonance depth of the triplet: A * (1 + 2 g^2 / (A_hf^2 + g^2)).

    Approaches 3A once the components are much wider than the splitting.
    Broadcasts over arrays of amplitudes and half-widths.
    """
    hwhm = np.asarray(hwhm_hz, dtype=float)
    if not np.all(hwhm > 0.0):
        raise ValueError("hwhm_hz must be positive")
    g_sq = hwhm * hwhm
    return scalar_or_array(
        amplitude * (1.0 + 2.0 * g_sq / (splitting_hz * splitting_hz + g_sq))
    )


def contrast_to_amplitude(
    contrast: float | np.ndarray,
    hwhm_hz: float | np.ndarray,
    splitting_hz: float = HYPERFINE_SPLITTING_MHZ,
) -> float | np.ndarray:
    """Inverse of :func:`hyperfine_contrast` at fixed component width; broadcasts."""
    return contrast / hyperfine_contrast(1.0, hwhm_hz, splitting_hz)


def _contrast_terms(theta, g1_over_c_mw, g1g2_us2, power, rabi):
    """Single-component contrast from raw parameters, with the terms its
    derivatives reuse.

    Returns ``(contrast, pump, plateau, pump_denom, knee)``: ``pump_denom`` =
    P + (gamma1/c)(1 - theta), ``pump`` = P / pump_denom, ``plateau`` =
    theta/4 * pump, ``knee`` = gamma1 gamma2 (1 + P/(gamma1/c)) / (2 pi)^2
    and ``contrast`` = plateau * f_R^2 / (f_R^2 + knee). Nothing is
    validated, so least-squares trial points evaluate as well.
    """
    pump_denom = power + g1_over_c_mw * (1.0 - theta)
    with np.errstate(invalid="ignore"):  # 0/0 at P = 0 when theta = 1
        pump = power / pump_denom
    plateau = 0.25 * theta * pump
    r2 = rabi * rabi
    knee = g1g2_us2 * (1.0 + power / g1_over_c_mw) / (TWO_PI * TWO_PI)
    return plateau * r2 / (r2 + knee), pump, plateau, pump_denom, knee


def contrast_model(
    p: ContrastModelParams,
    power_mw: float | np.ndarray,
    rabi_hz: float | np.ndarray,
) -> float | np.ndarray:
    """Ensemble single-component contrast at one (power, Rabi) setting.

    C = theta/4 * P / (P + (gamma1/c)(1 - theta))
              * f_R^2 / (f_R^2 + gamma1 gamma2 (1 + P/(gamma1/c)) / (2 pi)^2)

    The 1/4 reflects that one of four NV orientations is driven. Zero power
    or zero drive gives zero contrast. Broadcasts over arrays of powers and
    Rabi frequencies.
    """
    power = np.asarray(power_mw, dtype=float)
    rabi = np.asarray(rabi_hz, dtype=float)
    if np.any(power < 0.0) or np.any(rabi < 0.0):
        raise ValueError("power_mw and rabi_hz must be non-negative")
    contrast, *_ = _contrast_terms(p.theta, p.g1_over_c_mw, p.g1g2_us2, power, rabi)
    return scalar_or_array(np.where((power == 0.0) | (rabi == 0.0), 0.0, contrast))
