"""Shot-noise-limited magnetometric sensitivity and its (power, Rabi) map."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .constants import (
    GYROMAGNETIC_S_T,
    PLANCK_J_S,
    SPEED_OF_LIGHT_M_S,
)
from ._numerics import scalar_or_array
from .errors import InsufficientData
from .lineshape import (
    APModelParams,
    ContrastModelParams,
    a_of_p,
    contrast_model,
    total_width_model,  # noqa: F401  re-exported: bench/tracing.py counts calls through this name
    width_surface,
)


@dataclass(frozen=True)
class PhotonBudget:
    """Conversion from pump power to detected fluorescence photon rate.

    Fluorescence power saturates as k * P / (1 + P / p_sat); photons are
    counted at the mean fluorescence wavelength.
    """

    k_conversion: float = 6.21e-3
    p_sat_mw: float = 4.8e3
    wavelength_nm: float = 670.0
    gyromagnetic_s_t: float = GYROMAGNETIC_S_T

    def __post_init__(self) -> None:
        for name in ("k_conversion", "p_sat_mw", "wavelength_nm", "gyromagnetic_s_t"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")


def fluorescence_power(budget: PhotonBudget, pump_mw: float | np.ndarray) -> float | np.ndarray:
    """Detected fluorescence power (mW) at the given pump power (mW); broadcasts."""
    if np.any(np.asarray(pump_mw) < 0.0):
        raise ValueError("pump_mw must be non-negative")
    return budget.k_conversion * pump_mw / (1.0 + pump_mw / budget.p_sat_mw)


def photon_rate(budget: PhotonBudget, pump_mw: float | np.ndarray) -> float | np.ndarray:
    """Detected photon rate (1/s) at the given pump power (mW); broadcasts."""
    power_w = fluorescence_power(budget, pump_mw) * 1e-3
    photon_energy = PLANCK_J_S * SPEED_OF_LIGHT_M_S / (budget.wavelength_nm * 1e-9)
    return power_w / photon_energy


def shot_noise_sensitivity(
    budget: PhotonBudget,
    fwhm_hz: float | np.ndarray,
    contrast: float | np.ndarray,
    rate: float | np.ndarray,
) -> float | np.ndarray:
    """Shot-noise-limited field sensitivity (T per sqrt(Hz)).

    (2 pi / gyromagnetic) * fwhm / (contrast * sqrt(rate)) with the width
    converted from MHz to 1/s; the three inputs broadcast against each
    other. Zero contrast or rate means the resonance carries no information;
    that divergence is reported as +inf with a RuntimeWarning rather than an
    exception so map evaluation can continue.
    """
    fwhm = np.asarray(fwhm_hz, dtype=float)
    contrast = np.asarray(contrast, dtype=float)
    rate = np.asarray(rate, dtype=float)
    if not np.all(fwhm > 0.0):
        raise ValueError("fwhm_hz must be positive")
    if np.any(contrast < 0.0) or np.any(rate < 0.0):
        raise ValueError("contrast and rate must be non-negative")
    diverges = (contrast == 0.0) | (rate == 0.0)
    if np.any(diverges):
        warnings.warn(
            "zero contrast or photon rate: sensitivity diverges, returning inf",
            RuntimeWarning,
            stacklevel=2,
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        value = (
            2.0
            * math.pi
            / budget.gyromagnetic_s_t
            * (fwhm * 1e6)
            / (contrast * np.sqrt(rate))
        )
    return scalar_or_array(np.where(diverges, math.inf, value))


@dataclass(frozen=True)
class SensitivityModel:
    """Everything needed to predict sensitivity at any (power, Rabi) cell.

    The width surface reuses the global width model with a(P) taken from the
    saturating curve so powers between fitted settings are meaningful. The
    measured per-component amplitude model is converted to the full
    on-resonance contrast with ``contrast_factor`` (3 for a fully merged
    hyperfine triplet).
    """

    dnu_inh_hz: float
    ratio_g1_g2: float
    ap: APModelParams
    c_over_g2: float
    p0_mw: float
    f0_hz: float
    contrast: ContrastModelParams
    budget: PhotonBudget = field(default_factory=PhotonBudget)
    contrast_factor: float = 3.0

    def __post_init__(self) -> None:
        if not self.contrast_factor > 0.0:
            raise ValueError("contrast_factor must be positive")

    # Each method takes a scalar (power, Rabi) cell or arrays that broadcast
    # against each other, and returns a float or an array to match.
    def width_at(self, power_mw: float | np.ndarray, rabi_hz: float | np.ndarray):
        return width_surface(self, a_of_p(self.ap, power_mw), power_mw, rabi_hz)

    def contrast_at(self, power_mw: float | np.ndarray, rabi_hz: float | np.ndarray):
        return self.contrast_factor * contrast_model(self.contrast, power_mw, rabi_hz)

    def sensitivity_at(self, power_mw: float | np.ndarray, rabi_hz: float | np.ndarray):
        return shot_noise_sensitivity(
            self.budget,
            self.width_at(power_mw, rabi_hz),
            self.contrast_at(power_mw, rabi_hz),
            photon_rate(self.budget, power_mw),
        )


@dataclass(frozen=True)
class SensitivityMap:
    """Sensitivity over a power x Rabi grid, with the best cell singled out."""

    power_mw: np.ndarray
    rabi_hz: np.ndarray
    sensitivity: np.ndarray
    argmin: tuple[int, int]

    @property
    def best_power_mw(self) -> float:
        return float(self.power_mw[self.argmin[0]])

    @property
    def best_rabi_hz(self) -> float:
        return float(self.rabi_hz[self.argmin[1]])

    @property
    def best_sensitivity(self) -> float:
        return float(self.sensitivity[self.argmin])


def log_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """Logarithmically spaced grid axis."""
    if not 0.0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    if n < 2:
        raise ValueError("need at least 2 grid points")
    return np.geomspace(lo, hi, n)


def sensitivity_map(
    model: SensitivityModel,
    power_mw: np.ndarray,
    rabi_hz: np.ndarray,
) -> SensitivityMap:
    """Evaluate the sensitivity over the grid spanned by the given axes.

    One broadcast call of :meth:`SensitivityModel.sensitivity_at` covers every
    cell. Each cell goes through the same element-wise operations as a scalar
    call, so the map equals a cell-by-cell evaluation bit for bit. Cells
    with zero contrast or photon rate are +inf, without a warning.
    Non-finite cells stay in the matrix (they render as missing values on
    export) and never win the argmin; :class:`InsufficientData` is raised
    when no cell is finite.
    """
    powers = np.asarray(power_mw, dtype=float)
    rabis = np.asarray(rabi_hz, dtype=float)
    if powers.ndim != 1 or rabis.ndim != 1 or powers.size < 1 or rabis.size < 1:
        raise ValueError("power_mw and rabi_hz must be non-empty 1-d arrays")
    if np.any(powers <= 0.0) or np.any(rabis <= 0.0):
        raise ValueError("grid axes must be positive")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        grid = model.sensitivity_at(powers[:, None], rabis[None, :])
    finite = np.isfinite(grid)
    if not np.any(finite):
        raise InsufficientData("no finite sensitivity cell on the grid")
    masked = np.where(finite, grid, math.inf)
    flat = int(np.argmin(masked))
    argmin = (flat // rabis.size, flat % rabis.size)
    return SensitivityMap(
        power_mw=powers, rabi_hz=rabis, sensitivity=grid, argmin=argmin
    )
