"""Independent references the tests check the package against.

``numeric_fwhm`` measures the full width at half depth of any callable line
by a geometric scan and bisection; it knows nothing about the physics.

``two_level_residual`` and ``five_level_residual`` write the rate and
coherence equations out term by term, apart from the matrices that
``odmrkit.spin_models`` solves, and evaluate them at a solution vector ``x``
in the unknown order those matrices document: (rho00, rho11, Re rho01,
Im rho01) for the two-level model, then (ne0, ne1, ns) for the five-level
model. ``steady_state`` returns that vector.

``finite_difference_jacobian`` takes central differences of any residual
vector; every analytic Jacobian of ``odmrkit.fitting`` is checked against it.

``fit_rabi_calibration`` fits the square-root law f_R = k * sqrt(P_mw)
through (power, Rabi) records. Nothing in the package calls it: the CLI
takes Rabi frequencies directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from odmrkit.errors import InsufficientData
from odmrkit.spin_models import (
    FiveLevelParams,
    _five_level_matrix,
    _solve_steady,
    _two_level_matrix,
)

TWO_PI = 2.0 * math.pi


def steady_state(p) -> np.ndarray:
    """Solution vector of the two- or five-level model at ``p``."""
    if isinstance(p, FiveLevelParams):
        return _solve_steady(_five_level_matrix(p))
    return _solve_steady(_two_level_matrix(p))


def two_level_residual(p, x: np.ndarray) -> np.ndarray:
    """Right-hand sides of the two-level equations at ``x`` (all ~0 at steady state)."""
    omega = TWO_PI * p.rabi_hz
    delta = TWO_PI * p.detuning_hz
    g2 = p.gamma2_eff
    n0, n1, u, v = x
    return np.array(
        [
            omega * v - p.gamma1 / 2.0 * (n0 - n1) + p.pump_rate * n1,
            -omega * v + p.gamma1 / 2.0 * (n0 - n1) - p.pump_rate * n1,
            -g2 * u - delta * v,
            -g2 * v + delta * u + omega / 2.0 * (n1 - n0),
        ]
    )


def five_level_residual(p, x: np.ndarray) -> np.ndarray:
    """Right-hand sides of all seven five-level equations at ``x``."""
    omega = TWO_PI * p.rabi_hz
    delta = TWO_PI * p.detuning_hz
    g2 = p.gamma2_eff
    n0, n1, u, v, ne0, ne1, ns = x
    half_g1 = p.gamma1 / 2.0
    return np.array(
        [
            omega * v - half_g1 * (n0 - n1) - p.pump_rate * n0
            + p.gamma_rad * ne0 + p.gamma_singlet / 2.0 * ns,
            -omega * v + half_g1 * (n0 - n1) - p.pump_rate * n1
            + p.gamma_rad * ne1 + p.gamma_singlet / 2.0 * ns,
            -g2 * u - delta * v,
            -g2 * v + delta * u + omega / 2.0 * (n1 - n0),
            p.pump_rate * n0 - p.gamma_rad * ne0,
            p.pump_rate * n1 - (p.gamma_rad + p.gamma_isc) * ne1,
            p.gamma_isc * ne1 - p.gamma_singlet * ns,
        ]
    )


def finite_difference_jacobian(residual, x: np.ndarray, rel: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a residual vector."""
    x = np.asarray(x, dtype=float)
    n = np.asarray(residual(x)).size
    jac = np.empty((n, x.size))
    for j in range(x.size):
        h = rel * max(abs(x[j]), 1e-8)
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        jac[:, j] = (np.asarray(residual(xp)) - np.asarray(residual(xm))) / (2.0 * h)
    return jac


def _bisect_level(
    fn: Callable[[float], float],
    level: float,
    inside: float,
    outside: float,
    rtol: float,
) -> float:
    """Find x between inside/outside where fn crosses ``level`` (fn monotone there)."""
    f_in = fn(inside) - level
    lo, hi = inside, outside
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (fn(mid) - level) * np.sign(f_in) > 0.0:
            lo = mid
        else:
            hi = mid
        if abs(hi - lo) <= rtol * max(abs(hi), abs(lo), 1e-300):
            break
    return 0.5 * (lo + hi)


def numeric_fwhm(
    signal: Callable[[float], float],
    center: float,
    scale: float,
    *,
    baseline: float | None = None,
    rtol: float = 1e-12,
) -> tuple[float, float]:
    """Full width at half extremum of a single symmetric dip or peak.

    Brackets each half-depth crossing with a geometric scan away from
    ``center`` (initial step ``scale``/1000, doubling), then bisects to
    relative precision ``rtol``.  Returns ``(fwhm, midpoint)`` where midpoint
    is the mean of the two crossings; for a symmetric line it equals the
    resonance center to the same precision.
    """
    if not scale > 0.0:
        raise ValueError("scale must be positive")
    s0 = signal(center)
    if baseline is None:
        baseline = signal(center + 1e9 * scale)
    depth = baseline - s0
    if depth == 0.0:
        raise ValueError("signal has no feature at the given center")
    half = baseline - 0.5 * depth

    def crossing(direction: float) -> float:
        step = 1e-3 * scale
        prev = center
        for _ in range(220):
            x = center + direction * step
            d = (baseline - signal(x)) / depth  # 1 at center, -> 0 far away
            if d < 0.5:
                return _bisect_level(signal, half, prev, x, rtol)
            prev = x
            step *= 2.0
        raise ValueError("half-depth crossing not found within scan range")

    right = crossing(+1.0)
    left = crossing(-1.0)
    return right - left, 0.5 * (right + left)


@dataclass(frozen=True)
class RabiCalibration:
    """Square-root calibration f_R = k * sqrt(P_mw) fitted through the origin."""

    k_mhz_per_sqrt_mw: float
    n_records: int
    residual_rms: float
    max_abs_residual: float


def fit_rabi_calibration(records) -> RabiCalibration:
    """Least-squares calibration from (mw_power_mw, rabi_hz) records."""
    data = np.asarray(list(records), dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError("records must be (power, rabi) pairs")
    if data.shape[0] < 2:
        raise InsufficientData("Rabi calibration needs at least 2 records")
    if np.any(data <= 0.0):
        raise ValueError("calibration records must be positive")
    power, rabi = data[:, 0], data[:, 1]
    root = np.sqrt(power)
    k = float(np.sum(rabi * root) / np.sum(power))
    resid = rabi - k * root
    return RabiCalibration(
        k_mhz_per_sqrt_mw=k,
        n_records=int(data.shape[0]),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        max_abs_residual=float(np.max(np.abs(resid))),
    )
