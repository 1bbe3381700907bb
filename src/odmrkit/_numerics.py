"""Internal numerical building blocks: quadrature and scalar-or-array results.

Nothing here knows about spin physics; these helpers operate on plain
callables and arrays, so ``adaptive_simpson`` doubles as an independent
cross-check in tests.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

_MAX_ROUNDS = 96  # refinement rounds before adaptive_simpson returns its estimate


def scalar_or_array(x: np.ndarray) -> float | np.ndarray:
    """A Python float for a 0-d result, the array itself otherwise.

    Lets one broadcasting formula serve scalar callers with the plain float
    they always received.
    """
    return float(x) if np.ndim(x) == 0 else x


def adaptive_simpson(
    fn: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    rtol: float = 1e-10,
    breakpoints: Sequence[float] = (),
) -> float:
    """Integrate ``fn`` over [a, b] with globally adaptive composite Simpson.

    ``fn`` must accept a numpy array of abscissas. ``breakpoints`` seed panel
    edges at known peaks so the refinement starts near the structure. Each
    initial panel is split into 8 equal sub-panels before the first error
    estimate: a single Simpson panel across a wide, flat stretch can sample a
    narrow feature so sparsely that its coarse and fine estimates agree by
    accident, and the loop would then stop above its tolerance.

    Every panel carries a Richardson-extrapolated value and error estimate;
    no panel is ever locked in early.  Each round bisects the panels whose
    error is within a fixed factor of the current worst, and the loop stops
    when the summed error meets the global tolerance derived from the current
    estimate.  Worst-first splitting keeps panels already at the roundoff
    floor from subdividing endlessly, which a fixed per-panel budget would
    force on integrands spanning many orders of magnitude in scale.
    """
    if not b > a:
        raise ValueError("integration interval is empty")
    edges = [a]
    for p in sorted(set(float(x) for x in breakpoints)):
        if a < p < b:
            edges.append(p)
    edges.append(b)
    edges = np.asarray(edges, dtype=float)
    width = np.diff(edges)
    sub = edges[:-1, None] + width[:, None] * (np.arange(8) / 8.0)
    edges = np.append(sub.ravel(), b)
    lo = edges[:-1]
    hi = edges[1:]
    mid = 0.5 * (lo + hi)
    flo = np.asarray(fn(lo), dtype=float)
    fhi = np.asarray(fn(hi), dtype=float)
    fmid = np.asarray(fn(mid), dtype=float)

    def refine(lo, mid, hi, flo, fmid, fhi):
        """Evaluate the two inner midpoints of each panel; return the panel
        state extended with Richardson value and error estimate."""
        m1 = 0.5 * (lo + mid)
        m2 = 0.5 * (mid + hi)
        fm1 = np.asarray(fn(m1), dtype=float)
        fm2 = np.asarray(fn(m2), dtype=float)
        coarse = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
        fine = (mid - lo) / 6.0 * (flo + 4.0 * fm1 + fmid) \
            + (hi - mid) / 6.0 * (fmid + 4.0 * fm2 + fhi)
        value = fine + (fine - coarse) / 15.0
        err = np.abs(fine - coarse) / 15.0
        return m1, m2, fm1, fm2, value, err

    m1, m2, fm1, fm2, value, err = refine(lo, mid, hi, flo, fmid, fhi)
    for _ in range(_MAX_ROUNDS):
        estimate = float(np.sum(value))
        tol_global = max(rtol * abs(estimate), 5e-323)
        if float(np.sum(err)) <= tol_global:
            return estimate
        split = err >= 0.125 * float(np.max(err))
        # Panels at the floating-point subdivision floor cannot be bisected.
        split &= (m1 > lo) & (mid > m1) & (m2 > mid) & (hi > m2)
        if not np.any(split):
            return estimate

        keep = ~split
        c_lo = np.concatenate([lo[split], mid[split]])
        c_mid = np.concatenate([m1[split], m2[split]])
        c_hi = np.concatenate([mid[split], hi[split]])
        c_flo = np.concatenate([flo[split], fmid[split]])
        c_fmid = np.concatenate([fm1[split], fm2[split]])
        c_fhi = np.concatenate([fmid[split], fhi[split]])
        c_m1, c_m2, c_fm1, c_fm2, c_value, c_err = refine(
            c_lo, c_mid, c_hi, c_flo, c_fmid, c_fhi)

        lo = np.concatenate([lo[keep], c_lo])
        mid = np.concatenate([mid[keep], c_mid])
        hi = np.concatenate([hi[keep], c_hi])
        flo = np.concatenate([flo[keep], c_flo])
        fmid = np.concatenate([fmid[keep], c_fmid])
        fhi = np.concatenate([fhi[keep], c_fhi])
        m1 = np.concatenate([m1[keep], c_m1])
        m2 = np.concatenate([m2[keep], c_m2])
        fm1 = np.concatenate([fm1[keep], c_fm1])
        fm2 = np.concatenate([fm2[keep], c_fm2])
        value = np.concatenate([value[keep], c_value])
        err = np.concatenate([err[keep], c_err])
    return float(np.sum(value))
