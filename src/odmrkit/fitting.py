"""Weighted nonlinear least squares and the fit campaigns built on it.

The engine is a Levenberg-Marquardt minimizer with an internal log
reparameterization for positivity-constrained parameters (results are
reported in natural units) and one iteration budget. It advances a stack of
problems that share a model and a point count in step, each ending as it
would alone. Every campaign is a stacked model with analytic Jacobians on
that engine: hyperfine-triplet fits with side-resonance exclusion, one
spectrum (``fit_spectrum``) or a stream of them (``fit_spectra``, up to
``_WINDOW`` spectra in flight), the global width surface over a (power,
Rabi) grid, the ensemble contrast model, and the saturating a(P) curve.
``least_squares`` runs a user's closures as a stack of one.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .constants import HYPERFINE_SPLITTING_MHZ, SIDE_RESONANCE_OFFSET_MHZ
from .errors import (
    InsufficientData,
    NoConvergence,
    NonFiniteResidual,
    OdmrError,
    SingularJacobian,
    UnidentifiableParameter,
)
from .lineshape import _contrast_terms, _subtract_dips, _width_terms, hyperfine_contrast
from .spin_models import TWO_PI

_RANK_RCOND = 1e-12  # singular values below rcond * s_max count as null directions
# Convergence: the largest relative parameter step or the relative cost drop
# of an accepted iteration falls below these.
_STEP_RTOL = 1e-10
_COST_RTOL = 1e-12
_BAD_WEIGHTS = "weights must be positive, finite and match the residual"
_MAX_ITER = 200  # the iteration budget of every fit


@dataclass(frozen=True)
class FitReport:
    """Named best-fit parameters with 68% confidence intervals and fit diagnostics."""

    params: dict[str, float]
    ci68: dict[str, float]
    residual_rms: float
    n_points: int
    cost: float
    n_iter: int
    excluded_ranges: tuple[tuple[float, float], ...] = ()
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if set(self.params) != set(self.ci68):
            raise ValueError("params and ci68 must carry the same names")


@dataclass(frozen=True)
class MeasurementGrid:
    """Fitted width/amplitude results over a grid of (power, Rabi) settings."""

    power_mw: np.ndarray
    rabi_hz: np.ndarray
    width_hz: np.ndarray
    width_sigma: np.ndarray
    amplitude: np.ndarray
    amplitude_sigma: np.ndarray

    def __post_init__(self) -> None:
        arrays = {}
        for name in (
            "power_mw",
            "rabi_hz",
            "width_hz",
            "width_sigma",
            "amplitude",
            "amplitude_sigma",
        ):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
            arrays[name] = arr
            object.__setattr__(self, name, arr)
        n = arrays["power_mw"].size
        if any(a.size != n for a in arrays.values()):
            raise ValueError("all grid columns must have equal length")
        if n == 0:
            raise InsufficientData("measurement grid is empty")
        # "not > 0" rather than "<= 0", so that NaN entries are rejected too.
        for name in ("width_sigma", "amplitude_sigma"):
            if not np.all(arrays[name] > 0.0):
                raise ValueError(f"{name} entries must be positive")
        if not np.all(arrays["width_hz"] > 0.0):
            raise ValueError("width_hz entries must be positive")
        if not (np.all(arrays["power_mw"] > 0.0) and np.all(arrays["rabi_hz"] > 0.0)):
            raise ValueError("power_mw and rabi_hz entries must be positive")
        pairs = list(zip(arrays["power_mw"].tolist(), arrays["rabi_hz"].tolist()))
        if len(set(pairs)) != n:
            raise ValueError("grid rows must have unique (power, rabi) pairs")

    @property
    def n_points(self) -> int:
        return int(self.power_mw.size)

    def unique_powers(self) -> np.ndarray:
        return np.unique(self.power_mw)


@dataclass(frozen=True)
class SideResonanceExclusion:
    """Windows around the simultaneous NV/nitrogen spin-flip side resonances.

    Both windows are ``window_hz`` wide and centered ``delta_hz`` above and
    below the fitted line center.
    """

    delta_hz: float = SIDE_RESONANCE_OFFSET_MHZ
    window_hz: float = 20.0

    def __post_init__(self) -> None:
        if not (0.0 < self.delta_hz < math.inf and 0.0 < self.window_hz < math.inf):
            raise ValueError("delta_hz and window_hz must be positive and finite")

    def windows(self, center_hz: float) -> tuple[tuple[float, float], tuple[float, float]]:
        half = self.window_hz / 2.0
        return (
            (center_hz - self.delta_hz - half, center_hz - self.delta_hz + half),
            (center_hz + self.delta_hz - half, center_hz + self.delta_hz + half),
        )


def least_squares(
    residual,
    init: dict[str, float],
    weights: np.ndarray | None = None,
    *,
    jacobian,
    positive: tuple[str, ...] = (),
    absolute_sigma: bool = False,
) -> FitReport:
    """Minimize sum of (weights * residual(x))^2 with Levenberg-Marquardt damping.

    The problem runs as a stack of one in the engine that solves every
    campaign of this module.

    Parameters
    ----------
    residual : callable
        Maps the parameter vector (ordered as ``init``) to a residual array.
    init : dict
        Named starting values; insertion order fixes the parameter order.
    weights : array, optional
        Per-point weights, typically 1/sigma. Defaults to 1.
    jacobian : callable
        Analytic d(residual)/d(params), an (n_points, n_params) array.
    positive : tuple of str
        Parameters constrained positive via an internal log transform.
    absolute_sigma : bool
        When False (default) the covariance is scaled by the reduced
        chi-square, so confidence intervals track the observed scatter; when
        True the supplied weights are taken as exact 1/sigma.

    Raises
    ------
    NonFiniteResidual
        The residual at the starting point holds a NaN or an infinity.
    NoConvergence
        Iteration budget exhausted while the fit was still improving.
    SingularJacobian
        Some parameter has an identically zero residual derivative at the
        starting point (named in the exception).
    ValueError
        Malformed input: unknown or non-positive ``positive`` parameters,
        weights that are not positive, finite and shaped like the residual,
        or a Jacobian of the wrong shape.
    """
    names = list(init)
    x = np.asarray([float(init[k]) for k in names], dtype=float)
    unknown = set(positive) - set(names)
    if unknown:
        raise ValueError(f"positive lists unknown parameters: {sorted(unknown)}")
    r = np.asarray(residual(x), dtype=float)

    def columns(xs):
        jac_x = np.asarray(jacobian(xs[0]), dtype=float)
        if jac_x.shape != (r.size, x.size):
            raise ValueError("jacobian shape does not match residual and parameters")
        return jac_x.T[:, None]

    def residuals(xs):
        return np.asarray(residual(xs[0]), dtype=float)[None]

    w = np.ones_like(r) if weights is None else np.asarray(weights, dtype=float)
    log_mask = np.asarray([k in positive for k in names])
    return _fit_one(residuals, columns, names, log_mask, x, w, (), absolute_sigma, r[None])


def _fit_one(residual, jacobian, names, log_mask, x, w, data, absolute_sigma=False, r=None):
    """Fit one unstacked problem of a stacked model as a stack of one; raise the
    :class:`OdmrError` it ends in, or ValueError for a log parameter not started positive."""
    bad = [k for k, m, v in zip(names, log_mask, x) if m and not v > 0.0]
    if bad:
        raise ValueError(f"positive parameters must start positive: {bad}")
    x, w, data = x[None], w[None], [d[None] for d in data]
    ((_, report),) = _lm(residual, jacobian, names, log_mask, absolute_sigma, x, w, data, r)
    if isinstance(report, OdmrError):
        raise report
    return report


def _rows(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``a[rows]`` for sorted unique ``rows``; ``a`` itself, uncopied, for all."""
    return a if len(rows) == len(a) else a[rows]


def _lm(residual, jacobian, names, log_mask, absolute_sigma, x, w, data, r=None):
    """Levenberg-Marquardt over a stack of problems that share one model and
    one point count. Yields ``(row, outcome)`` as each problem ends: its
    :class:`FitReport`, or the :class:`OdmrError` it raised.

    ``residual(x, *data)`` and ``jacobian(x, *data)`` take parameter rows
    ``x`` (k, p) with the matching rows of each ``data`` array, and return
    the residuals (k, m) and one (k, m) derivative array per parameter; ``r``
    holds the residuals at the start if known. Weights ``w`` that are not
    positive, finite and shaped like them raise ValueError. Each problem keeps
    its own damping, step cap, zero-step rule, acceptance, stall and stop
    tests. Stacked reductions along the last axis, ``matmul``,
    ``np.linalg.solve`` and ``exp`` give each row the bits it gets alone, so
    a problem ends exactly as it does in a stack of one.
    """
    r = residual(x, *data) if r is None else r
    if w.shape != r.shape or not np.all((w > 0.0) & (w < math.inf)):
        raise ValueError(_BAD_WEIGHTS)
    rows = np.arange(len(x))
    good = np.isfinite(r).all(axis=1)
    if not good.all():
        for i in rows[~good]:
            yield i, NonFiniteResidual("residual is not finite at the starting point")
        rows, x, w, r, data = rows[good], x[good], w[good], r[good], [d[good] for d in data]
    q = x.copy()
    q[:, log_mask] = np.log(x[:, log_mask])
    wr = w * r
    del r
    # The rows of each problem's state, in one list so that a problem that
    # ends is dropped from all of them at once.
    state = [rows, x, q, w, wr, (wr**2).sum(axis=-1), np.full(len(rows), 1e-3), *data]
    # Below a finite acceptance bound the cost, and so the residual, is finite.
    check_residual = np.isinf(state[5]).any()
    on_diag = np.arange(log_mask.size)

    def weighted_jacobian(x, w, data):
        # Each column is weighted where it is contiguous, then written in place.
        jac_q = np.empty(w.shape + log_mask.shape)
        for j, column in enumerate(jacobian(x, *data)):
            if log_mask[j]:  # the chain rule of the log transform
                np.multiply(w * column, x[:, j : j + 1], out=jac_q[:, :, j])
            else:
                np.multiply(w, column, out=jac_q[:, :, j])
        return jac_q

    def report(x, wr, cost, jac_q):
        # Covariance from the weighted Jacobian at the optimum.
        _, svals, vt = np.linalg.svd(jac_q, full_matrices=False)
        keep = svals > _RANK_RCOND * (svals[0] if svals.size else 0.0)
        inv_s2 = np.where(keep, 1.0 / np.where(keep, svals, 1.0) ** 2, 0.0)
        dof = wr.size - x.size
        scale = 1.0
        flags: list[str] = []
        if not absolute_sigma:
            scale = cost / dof if dof > 0 else 1.0
            if dof <= 0:
                flags.append("no degrees of freedom: covariance not chi-square scaled")
        cov_q = (vt.T * inv_s2) @ vt * scale
        ci_q = np.sqrt(np.maximum(np.diag(cov_q), 0.0))
        # Parameters with significant weight in a null direction are unbounded.
        if not np.all(keep):
            null_overlap = np.sqrt(np.sum(vt[~keep] ** 2, axis=0))
            for j, name in enumerate(names):
                if null_overlap[j] > 1e-6:
                    ci_q[j] = math.inf
                    flags.append(f"parameter '{name}' unidentifiable: Jacobian rank deficient")
        ci_x = ci_q * np.where(log_mask, x, 1.0)
        return FitReport(
            params={k: float(v) for k, v in zip(names, x)},
            ci68={k: float(c) for k, c in zip(names, ci_x)},
            residual_rms=float(np.sqrt(np.mean(wr**2))),
            n_points=int(wr.size),
            cost=float(cost),
            n_iter=n_iter,
            flags=tuple(flags),
        )

    for n_iter in range(1, _MAX_ITER + 1):
        rows, x, q, w, wr, cost, lam, *data = state
        if not len(rows):
            return
        jac_q = weighted_jacobian(x, w, data)
        if n_iter == 1:
            dead = (jac_q == 0.0).all(axis=1)
            live = ~dead.any(axis=1)
            for i in (~live).nonzero()[0]:
                dead_names = tuple(k for k, d in zip(names, dead[i]) if d)
                message = f"residual does not depend on {dead_names} at the starting point"
                yield rows[i], SingularJacobian(message, dead_names)
            if not live.all():
                state, jac_q = [a[live] for a in state], jac_q[live]
                rows, x, q, w, wr, cost, lam, *data = state
                if not len(rows):
                    return
        jac_t = jac_q.transpose(0, 2, 1)
        grad = (jac_t @ wr[:, :, None])[:, :, 0]
        normal = jac_t @ jac_q
        diag = normal.diagonal(0, 1, 2).copy()
        diag[diag <= 0.0] = 1e-300
        damping = np.zeros(normal.shape)
        damping[:, on_diag, on_diag] = diag

        # Per-component step cap: a factor e^3 per iteration for log-space
        # parameters, a comparable relative move for affine ones.  Uncapped
        # Gauss-Newton steps on weakly constrained parameters can jump to
        # absurd values that still lower the cost (a huge relaxation term
        # just flattens the model) and then poison the next Jacobian.
        cap = np.where(log_mask, 3.0, 3.0 * np.maximum(1.0, np.abs(q)))
        # Tiny relative slack lets a step at the machine-precision optimum
        # count as accepted instead of stalling.
        bound = cost * (1.0 + 1e-15)

        pend = np.arange(len(rows))  # the problems still without a downhill step
        steps = []
        for _ in range(60):
            a = _rows(normal, pend) + _rows(lam, pend)[:, None, None] * _rows(damping, pend)
            b = -_rows(grad, pend)
            try:
                step = np.linalg.solve(a, b[:, :, None])[:, :, 0]
                stuck = pend[:0]
            except np.linalg.LinAlgError:
                # Only the problems whose system is singular raise their damping.
                solved = np.ones(len(b), dtype=bool)
                step = np.zeros_like(b)
                for j in range(len(b)):
                    try:
                        step[j] = np.linalg.solve(a[j], b[j])
                    except np.linalg.LinAlgError:
                        solved[j] = False
                stuck, pend, step = pend[~solved], pend[solved], step[solved]
            overshoot = (np.abs(step) / _rows(cap, pend)).max(axis=1)
            over = overshoot > 1.0
            if over.any():
                step[over] = step[over] / overshoot[over, None]
            q_new = _rows(q, pend) + step
            with np.errstate(all="ignore"):
                x_new = np.where(log_mask, np.exp(q_new), q_new)
                # exp(log x) need not give back x, so a zero step keeps x itself.
                if not step.all():
                    still = ~step.any(axis=1)
                    x_new[still] = _rows(x, pend)[still]
                r_new = residual(x_new, *(_rows(d, pend) for d in data))
            wr_new = _rows(w, pend) * r_new
            cost_new = (wr_new**2).sum(axis=-1)
            ok = np.isfinite(x_new).all(axis=1) & (cost_new <= _rows(bound, pend))
            if check_residual:
                ok &= np.isfinite(r_new).all(axis=1)
            trial = (pend, step, q_new, x_new, wr_new, cost_new)
            steps.append(trial if ok.all() else [part[ok] for part in trial])
            pend = np.sort(np.concatenate([stuck, pend[~ok]]))
            if not pend.size:
                break
            lam[pend] = np.minimum(lam[pend] * 10.0, 1e14)

        for i in pend:
            # Damping maxed out without a downhill step: either we sit at a
            # local optimum to machine precision, or the model is stuck.
            jac_scale = np.linalg.norm(jac_q[i]) * math.sqrt(cost[i])
            if np.linalg.norm(grad[i]) <= 1e-8 * max(jac_scale, 5e-324):
                yield rows[i], report(x[i], wr[i], cost[i], jac_q[i])
            else:
                yield rows[i], NoConvergence(
                    f"stalled after {n_iter} iterations with a non-zero gradient "
                    f"(cost {cost[i]:g})"
                )
        del jac_q, jac_t  # before the next Jacobian is made
        if len(steps[0][0]) == len(rows):  # every problem moved on the first trial
            _, step, q, x, wr, cost_new = steps[0]
        else:
            taken, step, q, x, wr, cost_new = map(np.concatenate, zip(*steps))
            state = [a[taken] for a in state]
        rows, _, _, w, _, cost, lam, *data = state
        rel_step = (np.abs(step) / np.maximum(1.0, np.abs(q))).max(axis=1)
        with np.errstate(invalid="ignore" if check_residual else None):
            # An infinite cost that stays infinite drops by nan, silently.
            rel_drop = (cost - cost_new) / np.maximum(cost, 5e-324)
        state = [rows, x, q, w, wr, cost_new, np.maximum(lam * 0.3, 1e-14), *data]
        done = (rel_step < _STEP_RTOL) | (rel_drop < _COST_RTOL)
        if done.any():
            jac_done = weighted_jacobian(x[done], w[done], [d[done] for d in data])
            for j, i in enumerate(done.nonzero()[0]):
                yield rows[i], report(x[i], wr[i], cost_new[i], jac_done[j])
            state = [a[~done] for a in state]
    for i, cost in zip(state[0], state[5]):
        yield i, NoConvergence(f"no convergence after {_MAX_ITER} iterations (cost {cost:g})")


def _moving_average(y: np.ndarray, width: int) -> np.ndarray:
    """Centered running mean over ``width`` points (at least 3; an even width
    is widened by one), with the end values repeated as padding."""
    if width % 2 == 0:
        width += 1
    kernel = np.ones(width) / width
    padded = np.concatenate([np.full(width // 2, y[0]), y, np.full(width // 2, y[-1])])
    return np.convolve(padded, kernel, mode="valid")


def initial_guess(spec, *, splitting_hz: float = HYPERFINE_SPLITTING_MHZ) -> dict[str, float]:
    """Starting point for a hyperfine-triplet fit from the raw spectrum.

    The signal is smoothed with a moving average, the center taken as the
    argmin, the amplitude as a third of the dip depth and the component
    half-width from the half-depth width of the envelope with the hyperfine
    splitting subtracted to undo the overlap broadening.

    Raises :class:`InsufficientData` when no dip stands out of the noise.
    """
    nu = np.asarray(spec.freq_mhz, dtype=float)
    sig = np.asarray(spec.signal, dtype=float)
    if nu.size < 10:
        raise InsufficientData("need at least 10 points to locate a dip")
    spacing = float(np.median(np.diff(nu)))
    smooth_width = int(round(0.5 / spacing)) if spacing > 0 else 3
    smooth_width = min(max(smooth_width, 3), max(3, nu.size // 10))
    sm = _moving_average(sig, smooth_width)

    i0 = int(np.argmin(sm))
    depth = 1.0 - sm[i0]
    sigma = np.asarray(spec.sigma, dtype=float)
    noise_floor = float(np.median(sigma)) / math.sqrt(smooth_width)
    if depth <= max(4.0 * noise_floor, 1e-12):
        raise InsufficientData("no dip stands out of the noise floor")

    half_level = 1.0 - depth / 2.0

    def crossing(direction: int) -> float:
        idx = range(i0, nu.size) if direction > 0 else range(i0, -1, -1)
        prev = i0
        for i in idx:
            if sm[i] > half_level:
                t = (half_level - sm[prev]) / (sm[i] - sm[prev])
                return float(nu[prev] + t * (nu[i] - nu[prev]))
            prev = i
        return float(nu[-1] if direction > 0 else nu[0])

    half_width = (crossing(+1) - crossing(-1)) / 2.0
    # Overlap with the hyperfine satellites widens the envelope by roughly one
    # splitting; subtracting it beats a fixed divisor across narrow and broad
    # lines, with a floor for the fully resolved regime.
    hwhm = max(half_width - splitting_hz, half_width / 3.0)
    return {
        "amplitude": depth / 3.0,
        "center_hz": float(nu[i0]),
        "hwhm_hz": hwhm,
    }


_TRIPLET_NAMES = ["amplitude", "center_hz", "hwhm_hz"]
_WINDOW = 6  # spectra that fit_spectra takes from its input at a time


def _triplet_model(splitting):
    """Stacked residual and Jacobian of the triplet: rows of parameters
    (amplitude, center, hwhm) against rows of frequencies ``nu`` and data ``y``."""
    offsets = (-splitting, 0.0, splitting)

    def residual(x, nu, y):
        amp, nu0, g = x[:, 0:1], x[:, 1:2], x[:, 2:3]
        return y - _subtract_dips(1.0, nu, nu0, offsets, amp, g)

    def jacobian(x, nu, y):
        amp, nu0, g = x[:, 0:1], x[:, 1:2], x[:, 2:3]
        g_sq = g * g
        d_amp = np.zeros(nu.shape)
        d_nu0 = np.zeros(nu.shape)
        d_g = np.zeros(nu.shape)
        rel = nu - nu0
        for offset in offsets:
            d = rel - offset
            denom = d * d + g_sq
            d_amp += g_sq / denom
            denom **= 2
            d_nu0 += amp * g_sq * (-2.0 * d) / denom
            d_g += amp * 2.0 * g * d * d / denom
        # residual = y - model and model = 1 - sum(...): d(residual)/dp = +d(sum)/dp
        return d_amp, -d_nu0, d_g

    return residual, jacobian


def _triplet_start(spec, splitting_hz, exclusion):
    """Start, weights, frequencies and data of one spectrum's triplet fit
    outside the exclusion windows, with the windows and the flags."""
    nu = np.asarray(spec.freq_mhz, dtype=float)
    sig = np.asarray(spec.signal, dtype=float)
    sigma = np.asarray(spec.sigma, dtype=float)
    flags: list[str] = []

    sm = _moving_average(sig, 5)
    flipped = (np.max(sm) - 1.0) > (1.0 - np.min(sm))
    y = 2.0 - sig if flipped else sig
    if flipped:
        flags.append("peak-shaped trace fitted as its mirror dip")

    try:
        guess = initial_guess(
            dataclasses.replace(spec, signal=y) if flipped else spec,
            splitting_hz=splitting_hz,
        )
    except InsufficientData:
        span = nu[-1] - nu[0]
        guess = {
            "amplitude": 1e-4,
            "center_hz": float(0.5 * (nu[0] + nu[-1])),
            "hwhm_hz": span / 20.0,
        }
        flags.append("no dip detected: fitted from a flat-spectrum fallback guess")

    excluded: tuple[tuple[float, float], ...] = ()
    mask = np.ones(nu.size, dtype=bool)
    if exclusion is not None:
        excluded = exclusion.windows(guess["center_hz"])
        for lo, hi in excluded:
            mask &= ~((nu >= lo) & (nu <= hi))
    if int(np.sum(mask)) < 50:
        raise InsufficientData(
            f"only {int(np.sum(mask))} points outside exclusion windows; need at least 50"
        )
    x0 = np.asarray([float(guess[k]) for k in _TRIPLET_NAMES])
    return x0, 1.0 / sigma[mask], nu[mask], y[mask], excluded, tuple(flags)


def fit_spectrum(
    spec,
    *,
    splitting_hz: float = HYPERFINE_SPLITTING_MHZ,
    exclusion: SideResonanceExclusion | None = SideResonanceExclusion(),
) -> FitReport:
    """Fit the hyperfine triplet to one spectrum, excluding side resonances.

    The exclusion windows are placed once, from the initial center estimate,
    so that adding or removing data inside them cannot move the final fit.
    Spectra whose resonance appears as a peak (singlet-absorption readout)
    are flipped about the unit baseline before fitting; parameters keep the
    same meaning. This is :func:`fit_spectra` of one spectrum.

    Raises :class:`InsufficientData` when fewer than 50 points survive the
    exclusion windows.
    """
    (report,) = fit_spectra([spec], splitting_hz=splitting_hz, exclusion=exclusion)
    if isinstance(report, OdmrError):
        raise report
    return report


def fit_spectra(
    spectra,
    *,
    splitting_hz: float = HYPERFINE_SPLITTING_MHZ,
    exclusion: SideResonanceExclusion | None = SideResonanceExclusion(),
):
    """Fit the hyperfine triplet to each spectrum of an iterable, as
    :func:`fit_spectrum` fits one; yield, in input order, its
    :class:`FitReport` or the :class:`OdmrError` its fit raised.

    The spectra are taken ``_WINDOW`` at a time. Within a window, the fits
    with the same number of points outside the exclusion windows are stacked
    in one engine run; each result is what the spectrum's fit gives alone.
    """
    # amplitude and hwhm_hz are fitted positive.
    log_mask = np.array([True, False, True])
    engine = (*_triplet_model(splitting_hz), _TRIPLET_NAMES, log_mask, False)
    spectra = iter(spectra)
    while True:
        results, groups = [], {}
        for i, spec in zip(range(_WINDOW), spectra):
            try:
                x0, w, nu, y, excluded, flags = _triplet_start(spec, splitting_hz, exclusion)
            except OdmrError as exc:
                results.append(exc)
                continue
            results.append((excluded, flags))
            groups.setdefault(w.size, []).append((i, x0, w, nu, y))
        if not results:
            return
        while groups:
            # Stacked copies replace the per-spectrum arrays, which go at once.
            index, x0, w, nu, y = map(np.array, zip(*groups.popitem()[1]))
            # The engine alone holds the stacked arrays, so that it can drop
            # the problems that end.
            reports = _lm(*engine, x0, w, (nu, y))
            del x0, w, nu, y
            for j, report in reports:
                if isinstance(report, FitReport):
                    excluded, flags = results[index[j]]
                    report = dataclasses.replace(
                        report, excluded_ranges=excluded, flags=flags + report.flags
                    )
                results[index[j]] = report
        yield from results


def _row_power(column, exponent):
    """``column ** exponent`` on each row's numpy scalar: it can round unlike
    array ``**``, and the campaigns' pinned outputs come from it."""
    return np.array([[v**exponent] for v in column.flat])


def _width_model(power, rabi, kidx):
    """Stacked residual and Jacobian of the width surface: rows of parameters
    (dnu, g1/g2, c/g2, p0, f0, a/g2 per power ``kidx``) against widths ``y``."""

    def surface(x):
        dnu, ratio, c, p0, f0 = x.T[:5, :, None]
        return _width_terms(dnu, ratio, x[:, 5:][:, kidx], c, p0, f0, power, rabi)

    def residual(x, y):
        return y - surface(x)[0]

    def jacobian(x, y):
        _, r2, knee, denom, root = surface(x)
        p0, f0 = x.T[3:5, :, None]
        # d(width)/d(denom); every parameter but dnu_inh and p0 acts through denom.
        d_denom = -rabi * root / (2.0 * denom)
        d_a = d_denom * r2 / knee
        columns = [
            np.ones(y.shape),
            d_denom,
            d_denom * power,
            rabi * (-4.0 * power / _row_power(p0, 2)) / (2.0 * root * denom),
            d_denom * x[:, 5:][:, kidx] * 2.0 * r2 * r2 / (_row_power(f0, 3) * knee * knee),
            *(np.where(kidx == k, d_a, 0.0) for k in range(x.shape[1] - 5)),
        ]
        return [-column for column in columns]  # residual = data - model

    return residual, jacobian


def global_width_fit(
    grid: MeasurementGrid,
    init: dict[str, float] | None = None,
) -> FitReport:
    """Fit the width surface over all (power, Rabi) settings at once.

    Shared parameters: inhomogeneous width, gamma1/gamma2, c/gamma2, the
    saturation power p0 and the relaxation knee f0; plus one a(P) value per
    power setting (named ``a_over_g2[k]`` in ascending power order).
    """
    powers = grid.unique_powers()
    if powers.size < 2:
        raise UnidentifiableParameter(
            "width surface needs at least 2 distinct powers to separate "
            "power terms from the Rabi terms"
        )
    if np.unique(grid.rabi_hz).size < 3:
        raise UnidentifiableParameter(
            "width surface needs at least 3 distinct Rabi settings to "
            "separate the inhomogeneous offset, slope and curvature"
        )
    a_names = [f"a_over_g2[{k}]" for k in range(powers.size)]
    names = ["dnu_inh_hz", "ratio_g1_g2", "c_over_g2", "p0_mw", "f0_hz", *a_names]
    if init is None:
        start = [max(0.8 * float(np.min(grid.width_hz)), 1e-3), 0.01, 0.02]
        start += [float(np.median(powers)), float(np.exp(np.mean(np.log(grid.rabi_hz))))]
        init = dict(zip(names, start + [0.1] * powers.size))
    missing = [k for k in names if k not in init]
    if missing:
        raise ValueError(f"init is missing parameters: {missing}")

    report = _fit_one(
        *_width_model(grid.power_mw, grid.rabi_hz, np.searchsorted(powers, grid.power_mw)),
        names,
        np.ones(len(names), dtype=bool),
        np.asarray([float(init[k]) for k in names]),
        1.0 / grid.width_sigma,
        (grid.width_hz,),
    )
    # An infinite or NaN interval is weak too.
    weak = tuple(
        f"{name} weakly identified at power {power:g} mW"
        for name, power in zip(a_names, powers)
        if not report.ci68[name] <= abs(report.params[name])
    )
    return dataclasses.replace(report, flags=report.flags + weak)


def _contrast_model(power, rabi):
    """Stacked residual and Jacobian of the contrast model: rows of parameters
    (theta, gamma1/c, gamma1 gamma2) against rows of contrasts ``y``."""
    r2 = rabi**2

    def residual(x, y):
        return y - _contrast_terms(*x.T[:, :, None], power, rabi)[0]

    def jacobian(x, y):
        theta, g1_over_c, g1g2 = x.T[:, :, None]
        _, pump, plateau, denom_p, knee = _contrast_terms(theta, g1_over_c, g1g2, power, rabi)
        sat = r2 / (r2 + knee)
        m = plateau * sat
        d_theta = 0.25 * pump * sat + m * g1_over_c / denom_p
        dknee_dg = (g1g2 / (TWO_PI * TWO_PI)) * (-power / _row_power(g1_over_c, 2))
        d_g1c = m * (-(1.0 - theta) / denom_p) + m * (-dknee_dg / (r2 + knee))
        dknee_dk = (1.0 + power / g1_over_c) / (TWO_PI * TWO_PI)
        d_k = m * (-dknee_dk / (r2 + knee))
        return -d_theta, -d_g1c, -d_k  # residual = data - model

    return residual, jacobian


def global_contrast_fit(
    grid: MeasurementGrid,
    *,
    splitting_hz: float = HYPERFINE_SPLITTING_MHZ,
) -> FitReport:
    """Fit the ensemble contrast model to the grid's fitted amplitudes.

    Component amplitudes are converted to on-resonance contrasts with the
    hyperfine-overlap factor evaluated at each row's fitted width before
    fitting theta, gamma1/c and gamma1*gamma2.
    """
    if grid.unique_powers().size < 2:
        raise UnidentifiableParameter(
            "contrast model needs at least 2 distinct powers to separate "
            "theta from the pumping saturation"
        )
    conv = hyperfine_contrast(1.0, grid.width_hz / 2.0, splitting_hz)
    c_data = grid.amplitude * conv
    theta = min(0.5, max(8.0 * float(np.max(c_data)), 1e-3))
    return _fit_one(
        *_contrast_model(grid.power_mw, grid.rabi_hz),
        ["theta", "g1_over_c_mw", "g1g2_us2"],
        np.ones(3, dtype=bool),
        np.asarray([theta, float(np.percentile(grid.power_mw, 25)), 0.005]),
        1.0 / (grid.amplitude_sigma * conv),
        (c_data,),
    )


def _ap_model(power):
    """Stacked residual and Jacobian of the saturating a(P) curve: rows of
    parameters (a1, b1, c1) against rows of slopes ``y``."""

    def residual(x, y):
        a1, b1, c1 = x.T[:, :, None]
        return y - (a1 * power / (1.0 + power / b1) + c1)

    def jacobian(x, y):
        a1, b1, _ = x.T[:, :, None]
        sat = 1.0 + power / b1
        d_b1 = a1 * power**2 / (_row_power(b1, 2) * sat**2)
        return -power / sat, -d_b1, np.full(y.shape, -1.0)  # residual = data - model

    return residual, jacobian


def fit_ap_curve(
    power_mw: np.ndarray,
    a_values: np.ndarray,
    a_sigma: np.ndarray,
) -> FitReport:
    """Fit a1 P/(1 + P/b1) + c1 to per-power relaxation slopes.

    Rows with non-finite values or uncertainties are dropped; at least four
    usable powers are required to constrain the three-parameter curve, else
    :class:`UnidentifiableParameter` is raised.
    """
    big_p = np.asarray(power_mw, dtype=float)
    a = np.asarray(a_values, dtype=float)
    s = np.asarray(a_sigma, dtype=float)
    if big_p.shape != a.shape or big_p.shape != s.shape:
        raise ValueError("power_mw, a_values, a_sigma must have equal shapes")
    good = np.isfinite(big_p) & np.isfinite(a) & np.isfinite(s) & (s > 0.0)
    big_p, a, s = big_p[good], a[good], s[good]
    if np.unique(big_p).size < 4:
        raise UnidentifiableParameter(
            "a(P) curve needs at least 4 distinct powers with finite uncertainties"
        )
    order = np.argsort(big_p)
    big_p, a, s = big_p[order], a[order], s[order]

    c1_0 = max(float(a[0]), 1e-6)
    plateau = max(float(np.max(a)), c1_0 * 1.5)
    half = c1_0 + 0.5 * (plateau - c1_0)
    above = np.nonzero(a >= half)[0]
    b1_0 = float(big_p[above[0]]) if above.size else float(np.median(big_p))
    b1_0 = max(b1_0, float(np.min(big_p)))
    a1_0 = max((plateau - c1_0) / b1_0, 1e-6)
    return _fit_one(
        *_ap_model(big_p),
        ["a1", "b1_mw", "c1"],
        np.ones(3, dtype=bool),
        np.asarray([a1_0, b1_0, c1_0]),
        1.0 / s,
        (a,),
    )
