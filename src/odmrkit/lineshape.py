"""Ensemble lineshape models layered on top of the single-spin resonance.

This module handles everything between the homogeneous single-orientation
dip and a measured ensemble spectrum: inhomogeneous broadening by
convolution, the empirical power/Rabi dependence of the total width, the
microwave-induced coupling to substitutional-nitrogen spins, the nitrogen
hyperfine triplet, and the ensemble contrast model.
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
    the evaluation point; outside the window the dip is flat to O(1e-4) of its
    depth, so the tail contributes baseline times the analytic tail mass.
    """
    combined = dist.fwhm_inh_hz + homogeneous.fwhm_hz
    half_window = 50.0 * combined + abs(nu - dist.center_hz)
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
        for k in (1.0, 8.0, 64.0):
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


def nv_p1_rate(a_over_g2: float, gamma2: float, rabi_hz: float, f0_hz: float) -> float:
    """Microwave-induced longitudinal relaxation rate (1/us).

    gamma = gamma2 * a_over_g2 * rabi^2 / (1 + rabi^2 / f0^2): quadratic in the
    Rabi frequency at weak drive, saturating to linear growth above f0.
    """
    if a_over_g2 < 0.0 or gamma2 < 0.0:
        raise ValueError("a_over_g2 and gamma2 must be non-negative")
    if not f0_hz > 0.0:
        raise ValueError("f0_hz must be positive")
    r2 = rabi_hz * rabi_hz
    return gamma2 * a_over_g2 * r2 / (1.0 + r2 / (f0_hz * f0_hz))


def a_of_p(params: APModelParams, power_mw: float | np.ndarray) -> float | np.ndarray:
    """Evaluate the saturating slope model a(P) = a1 P / (1 + P / b1) + c1.

    Broadcasts over an array of powers.
    """
    if np.any(np.asarray(power_mw) < 0.0):
        raise ValueError("power_mw must be non-negative")
    return params.a1 * power_mw / (1.0 + power_mw / params.b1_mw) + params.c1


def width_surface(
    p: WidthModelParams | SensitivityModel,
    a_over_g2: float | np.ndarray,
    power_mw: float | np.ndarray,
    rabi_hz: float | np.ndarray,
    gamma2: float = 1.0,
    *,
    printed_rabi_linear: bool = False,
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
    if not gamma2 > 0.0:
        raise ValueError("gamma2 must be positive")
    r2 = rabi * rabi
    drive = rabi if printed_rabi_linear else r2
    mw_term = a_over_g2 * drive / (1.0 + r2 / (p.f0_hz * p.f0_hz))
    denom = gamma2 * (p.ratio_g1_g2 + mw_term + p.c_over_g2 * power)
    numer = 4.0 * gamma2 * (1.0 + power / p.p0_mw)
    return scalar_or_array(p.dnu_inh_hz + rabi * np.sqrt(numer / denom))


def total_width_model(
    p: WidthModelParams,
    power_mw: float,
    power_index: int,
    rabi_hz: float,
    gamma2: float = 1.0,
    *,
    printed_rabi_linear: bool = False,
) -> float:
    """Total ensemble width (MHz) at one (power, Rabi) setting.

    dnu_inh + f_R * sqrt(4 gamma2 (1 + P/P0)
                         / (gamma1 + gamma_mw(f_R) + c P))

    with every rate in the denominator expressed as a ratio to gamma2, which
    therefore cancels; the ``gamma2`` argument is kept for interface symmetry
    and only rescales numerator and denominator together. ``gamma_mw`` uses
    the quadratic-saturating Rabi dependence with the slope
    ``p.a_over_g2[power_index]``; ``printed_rabi_linear`` switches its
    numerator to f_R (a published-form variant kept for comparison only).
    """
    return width_surface(
        p,
        p.a_over_g2[power_index],
        power_mw,
        rabi_hz,
        gamma2,
        printed_rabi_linear=printed_rabi_linear,
    )


def triple_lorentzian(model: HyperfineModel, grid: np.ndarray) -> np.ndarray:
    """Normalized hyperfine-triplet dip: 1 - sum of three Lorentzian components."""
    nu = np.asarray(grid, dtype=float)
    g_sq = model.hwhm_hz**2
    out = np.ones_like(nu)
    for m in (-1.0, 0.0, 1.0):
        d = nu - model.center_hz - m * model.splitting_hz
        out -= model.amplitude * g_sq / (d * d + g_sq)
    return out


def hyperfine_contrast(
    amplitude: float,
    hwhm_hz: float,
    splitting_hz: float = HYPERFINE_SPLITTING_MHZ,
) -> float:
    """On-resonance depth of the triplet: A * (1 + 2 g^2 / (A_hf^2 + g^2)).

    Approaches 3A once the components are much wider than the splitting.
    """
    if not hwhm_hz > 0.0:
        raise ValueError("hwhm_hz must be positive")
    g_sq = hwhm_hz * hwhm_hz
    return amplitude * (1.0 + 2.0 * g_sq / (splitting_hz * splitting_hz + g_sq))


def contrast_to_amplitude(
    contrast: float,
    hwhm_hz: float,
    splitting_hz: float = HYPERFINE_SPLITTING_MHZ,
) -> float:
    """Inverse of :func:`hyperfine_contrast` at fixed component width."""
    return contrast / hyperfine_contrast(1.0, hwhm_hz, splitting_hz)


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
    with np.errstate(invalid="ignore"):  # 0/0 at P = 0 when theta = 1
        pump_term = power / (power + p.g1_over_c_mw * (1.0 - p.theta))
    r2 = rabi * rabi
    knee = p.g1g2_us2 * (1.0 + power / p.g1_over_c_mw) / (TWO_PI * TWO_PI)
    contrast = 0.25 * p.theta * pump_term * r2 / (r2 + knee)
    return scalar_or_array(np.where((power == 0.0) | (rabi == 0.0), 0.0, contrast))
