"""Steady-state spin models of the optically pumped NV ground-state resonance.

Two models of a single NV orientation driven by one microwave field:

* a two-level model (ground-state sublevels |0>, |1>) where optical pumping
  enters as an effective rate that polarizes into |0> and broadens the
  coherence, and
* a five-level model that resolves the optical cycle explicitly
  (|0>, |1>, their excited counterparts |e0>, |e1>, and the singlet |s>)
  so fluorescence and singlet-absorption readouts can be compared.

All rates are in 1/us, frequencies in MHz, see :mod:`odmrkit.constants`.
Steady states are computed by a direct linear solve of the real-vectorized
rate/coherence equations with one redundant row replaced by the trace
constraint. ``detuning_hz`` may hold an array: the systems of all detunings
are stacked and solved at once, and the readouts broadcast over them.

The tests check these solves and widths against independent oracles kept
outside the package, in ``tests/oracles.py``: the same equations written out
term by term as residuals, and a numeric FWHM of any callable line.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._numerics import scalar_or_array
from .constants import GAMMA_ISC, GAMMA_RADIATIVE, GAMMA_SINGLET, THETA_DEFAULT
from .errors import DegenerateSystem, RegimeViolation

TWO_PI = 2.0 * math.pi


def _check_rate(name: str, value: float) -> None:
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")


@dataclass(frozen=True)
class _SpinParams:
    """Rates and drive shared by both models.

    ``rabi_hz`` and ``detuning_hz`` are cyclic frequencies in MHz; the
    angular Rabi frequency is ``2 pi * rabi_hz``. ``detuning_hz`` is a float
    or an array of detunings, which the steady states and readouts broadcast
    over.
    """

    gamma1: float
    gamma2: float
    pump_rate: float
    rabi_hz: float
    detuning_hz: float | np.ndarray = 0.0

    def __post_init__(self) -> None:
        for name in ("gamma1", "gamma2", "pump_rate", "rabi_hz"):
            _check_rate(name, getattr(self, name))
        if not np.all(np.isfinite(self.detuning_hz)):
            raise ValueError("detuning_hz must be finite")
        if self.gamma2 < self.gamma1 / 2.0:
            raise ValueError("gamma2 must be at least gamma1 / 2")

    @property
    def gamma2_eff(self) -> float:
        return self.gamma2 + self.pump_rate / 2.0

    def at_detuning(self, detuning_hz: float | np.ndarray):
        return replace(self, detuning_hz=detuning_hz)


@dataclass(frozen=True)
class TwoLevelParams(_SpinParams):
    """Rates and drive of the two-level model.

    ``pump_rate`` is the optical pumping rate into |0>; it adds
    ``pump_rate / 2`` to the transverse relaxation. ``theta`` parameterizes
    the readout weights (alpha - beta) / (2 alpha) of the two populations.
    """

    theta: float = THETA_DEFAULT

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")


@dataclass(frozen=True)
class FiveLevelParams(_SpinParams):
    """Rates and drive of the five-level optical-cycle model.

    ``pump_rate`` is the optical excitation rate |0> -> |e0>, |1> -> |e1>.
    ``gamma_rad`` is the radiative decay of both excited states,
    ``gamma_isc`` the intersystem crossing |e1> -> |s| and ``gamma_singlet``
    the singlet decay, which returns to |0> and |1> with equal weights.
    """

    gamma_rad: float = GAMMA_RADIATIVE
    gamma_isc: float = GAMMA_ISC
    gamma_singlet: float = GAMMA_SINGLET

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("gamma_rad", "gamma_isc", "gamma_singlet"):
            _check_rate(name, getattr(self, name))


@dataclass(frozen=True)
class LineshapeSummary:
    """Contrast, FWHM and far-detuned baseline of a single resonance dip."""

    contrast: float
    fwhm_hz: float
    baseline: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.contrast <= 1.0:
            raise ValueError("contrast must lie in [0, 1]")
        if not self.fwhm_hz > 0.0:
            raise ValueError("fwhm_hz must be positive")
        if not self.baseline > 0.0:
            raise ValueError("baseline must be positive")


def _solve_steady(matrix: np.ndarray) -> np.ndarray:
    """Steady states of the ``(..., k, k)`` stack: ``matrix @ x = e0`` per system.

    Row 0 of every system is the trace constraint, so the right-hand side is
    the first unit vector. Returns ``x`` of shape ``(..., k)``.
    """
    rhs = np.zeros(matrix.shape[:-1] + (1,))
    rhs[..., 0, 0] = 1.0
    try:
        x = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSystem("steady-state system is singular") from exc
    # One step of iterative refinement keeps the trace constraint and the
    # rate-equation residuals at machine precision even for stiff rate ratios.
    # The solve above succeeded on the same matrices, so this one cannot fail.
    x = x + np.linalg.solve(matrix, rhs - matrix @ x)
    # Infinity norms per system: ||matrix|| * ||x|| + 1 against ||rhs - matrix @ x||.
    scale = np.abs(matrix).sum(axis=-1).max(axis=-1) * np.abs(x).max(axis=(-2, -1)) + 1.0
    resid = np.abs(rhs - matrix @ x).max(axis=(-2, -1))
    if not np.all(np.isfinite(x)) or np.any(resid > 1e-8 * scale):
        raise DegenerateSystem("steady-state system is numerically singular")
    return x[..., 0]


def _detuned(p: _SpinParams, rows: list[list[float]]) -> np.ndarray:
    """Stack ``rows`` over ``p``'s detunings; fill in entries [2, 3] and [3, 2]."""
    delta = TWO_PI * np.asarray(p.detuning_hz, dtype=float)
    base = np.array(rows)
    matrix = np.broadcast_to(base, delta.shape + base.shape).copy()
    matrix[..., 2, 3] = -delta
    matrix[..., 3, 2] = delta
    return matrix


def _two_level_matrix(p: TwoLevelParams) -> np.ndarray:
    omega = TWO_PI * p.rabi_hz
    g2 = p.gamma2_eff
    half_g1 = p.gamma1 / 2.0
    # Unknowns x = (rho00, rho11, Re rho01, Im rho01); row 0 is the trace and
    # _detuned fills in the detuning at [2, 3] and [3, 2].
    rows = [
        [1.0, 1.0, 0.0, 0.0],
        [half_g1, -half_g1 - p.pump_rate, 0.0, -omega],
        [0.0, 0.0, -g2, 0.0],
        [-omega / 2.0, omega / 2.0, 0.0, -g2],
    ]
    return _detuned(p, rows)


def two_level_signal(p: TwoLevelParams) -> float | np.ndarray:
    """Readout signal alpha*rho00 + beta*rho11 with alpha = 1, beta = 1 - 2 theta.

    Only theta = (alpha - beta) / (2 alpha) affects the normalized lineshape,
    so alpha is fixed to 1 and the signal is defined up to that overall scale.
    A float for a scalar detuning, an array of its shape otherwise.
    """
    x = _solve_steady(_two_level_matrix(p))
    return scalar_or_array(x[..., 0] + (1.0 - 2.0 * p.theta) * x[..., 1])


def two_level_width(p: TwoLevelParams) -> float:
    """FWHM (MHz) of the two-level resonance.

    sqrt((gamma2_eff / pi)^2 + 4 gamma2_eff / (gamma1 + pump_rate) * rabi^2);
    exact for this model, not an approximation.
    """
    g2 = p.gamma2_eff
    if g2 <= 0.0:
        raise DegenerateSystem("no finite linewidth: gamma2 + pump_rate / 2 is zero")
    first = (g2 / math.pi) ** 2
    if p.rabi_hz == 0.0:
        return math.sqrt(first)
    longitudinal = p.gamma1 + p.pump_rate
    if longitudinal <= 0.0:
        raise DegenerateSystem("no steady state: gamma1 + pump_rate is zero under drive")
    return math.sqrt(first + 4.0 * g2 / longitudinal * p.rabi_hz**2)


def two_level_contrast(p: TwoLevelParams) -> float:
    """On-resonance relative dip depth 1 - S(0)/S(inf) of the two-level signal."""
    if p.pump_rate == 0.0 or p.rabi_hz == 0.0:
        return 0.0
    omega_sq = (TWO_PI * p.rabi_hz) ** 2
    g2 = p.gamma2_eff
    pump_term = p.pump_rate / (p.pump_rate + p.gamma1 * (1.0 - p.theta))
    saturation = omega_sq / (omega_sq + g2 * (p.gamma1 + p.pump_rate))
    return p.theta * pump_term * saturation


def two_level_lineshape(p: TwoLevelParams) -> LineshapeSummary:
    """Contrast / width / baseline summary of the two-level dip."""
    width = two_level_width(p)
    baseline = two_level_signal(p.at_detuning(1e9 * max(width, 1.0)))
    return LineshapeSummary(
        contrast=two_level_contrast(p), fwhm_hz=width, baseline=baseline
    )


def _five_level_matrix(p: FiveLevelParams) -> np.ndarray:
    omega = TWO_PI * p.rabi_hz
    g2 = p.gamma2_eff
    half_g1 = p.gamma1 / 2.0
    gp = p.pump_rate
    g0 = p.gamma_rad
    gf = p.gamma_isc
    gs = p.gamma_singlet
    # Unknowns x = (n0, n1, Re rho01, Im rho01, ne0, ne1, ns); row 0 is the trace
    # and _detuned fills in the detuning at [2, 3] and [3, 2].
    rows = [
        [1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0],
        [half_g1, -half_g1 - gp, 0.0, -omega, 0.0, g0, gs / 2.0],
        [0.0, 0.0, -g2, 0.0, 0.0, 0.0, 0.0],
        [-omega / 2.0, omega / 2.0, 0.0, -g2, 0.0, 0.0, 0.0],
        [gp, 0.0, 0.0, 0.0, -g0, 0.0, 0.0],
        [0.0, gp, 0.0, 0.0, 0.0, -(g0 + gf), 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, gf, -gs],
    ]
    return _detuned(p, rows)


def five_level_fluorescence(p: FiveLevelParams) -> float | np.ndarray:
    """Red fluorescence rate: rho_e0e0 + gamma_rad/(gamma_rad+gamma_isc) * rho_e1e1.

    A float for a scalar detuning, an array of its shape otherwise.
    """
    if p.gamma_rad + p.gamma_isc <= 0.0:
        raise DegenerateSystem("excited states never decay: gamma_rad + gamma_isc is zero")
    x = _solve_steady(_five_level_matrix(p))
    branching = p.gamma_rad / (p.gamma_rad + p.gamma_isc)
    return scalar_or_array(x[..., 4] + branching * x[..., 5])


def five_level_ir_absorption(p: FiveLevelParams) -> float | np.ndarray:
    """Singlet-absorption readout: proportional to the singlet population.

    A float for a scalar detuning, an array of its shape otherwise.
    """
    return scalar_or_array(_solve_steady(_five_level_matrix(p))[..., 6])


def five_level_width(p: FiveLevelParams) -> float:
    """Closed-form FWHM (MHz) of the five-level resonance.

    sqrt((gamma2_eff/pi)^2
         + 4 gamma2_eff (1 + pump/(4 gamma_singlet)) / (gamma1 + pump/4) * rabi^2)

    Valid in the weak-pumping regime pump_rate <= gamma_rad / 100 and slow
    intrinsic relaxation gamma1 <= gamma_singlet / 100; a
    :class:`RegimeViolation` warning is emitted outside those bounds.
    """
    g2 = p.gamma2_eff
    if g2 <= 0.0:
        raise DegenerateSystem("no finite linewidth: gamma2 + pump_rate / 2 is zero")
    for rate, limit in (("pump_rate", "gamma_rad"), ("gamma1", "gamma_singlet")):
        value, bound = getattr(p, rate), getattr(p, limit)
        if bound > 0.0 and value > bound / 100.0:
            warnings.warn(
                RegimeViolation(
                    f"five_level_width assumes {rate} << {limit}; "
                    f"got {rate} = {value:g}, {limit} = {bound:g}"
                ),
                stacklevel=2,
            )
    first = (g2 / math.pi) ** 2
    if p.rabi_hz == 0.0:
        return math.sqrt(first)
    longitudinal = p.gamma1 + p.pump_rate / 4.0
    if longitudinal <= 0.0:
        raise DegenerateSystem("no steady state: gamma1 + pump_rate / 4 is zero under drive")
    if p.gamma_singlet <= 0.0:
        raise DegenerateSystem("gamma_singlet must be positive for a driven five-level line")
    saturation = 1.0 + p.pump_rate / (4.0 * p.gamma_singlet)
    return math.sqrt(first + 4.0 * g2 * saturation / longitudinal * p.rabi_hz**2)


def five_level_lineshape(p: FiveLevelParams) -> LineshapeSummary:
    """Contrast / width / baseline summary of the fluorescence dip.

    Contrast and baseline come from the exact steady state; the width is the
    closed-form expression, adequate in its stated regime.
    """
    far = p.at_detuning(1e9 * max(p.gamma2_eff, p.rabi_hz, 1.0))
    baseline = five_level_fluorescence(far)
    if baseline <= 0.0:
        raise DegenerateSystem("no fluorescence baseline: the optical cycle is not driven")
    on_resonance = five_level_fluorescence(p.at_detuning(0.0))
    return LineshapeSummary(
        contrast=1.0 - on_resonance / baseline,
        fwhm_hz=five_level_width(p),
        baseline=baseline,
    )


def signal_curve(p, detunings, signal) -> np.ndarray:
    """Evaluate a readout over an array of detunings (MHz) in one stacked solve.

    ``signal`` is called once, with ``p`` at all ``detunings``, so it must
    accept parameters whose ``detuning_hz`` is an array and return the
    readout of that shape, as the readouts of this module do.
    """
    return signal(p.at_detuning(np.asarray(detunings, dtype=float)))
