"""Published parameter presets of the high-nitrogen reference sample ("s5").

It carries the full fitted global-model parameter set: width surface,
saturating a(P) curve, contrast model and photon budget.
"""

from __future__ import annotations

import numpy as np

from .lineshape import APModelParams, ContrastModelParams, WidthModelParams, a_of_p
from .sensitivity import PhotonBudget, SensitivityModel

# Fitted global-model values for the high-nitrogen sample.
S5_DNU_INH_MHZ = 3.08
S5_RATIO_G1_G2 = 0.0014
S5_C_OVER_G2_PER_MW = 0.018
S5_P0_MW = 39.0
S5_F0_MHZ = 1.0
S5_AP = APModelParams(a1=0.5, b1_mw=0.5, c1=0.074)
S5_CONTRAST = ContrastModelParams(theta=22.9e-3, g1_over_c_mw=0.71, g1g2_us2=0.0047)


def s5_width_params(power_mw) -> WidthModelParams:
    """Width-surface parameters of the s5 sample, a(P) evaluated per power."""
    powers = np.atleast_1d(np.asarray(power_mw, dtype=float))
    return WidthModelParams(
        dnu_inh_hz=S5_DNU_INH_MHZ,
        ratio_g1_g2=S5_RATIO_G1_G2,
        a_over_g2=tuple(a_of_p(S5_AP, float(p)) for p in powers),
        c_over_g2=S5_C_OVER_G2_PER_MW,
        p0_mw=S5_P0_MW,
        f0_hz=S5_F0_MHZ,
    )


def s5_sensitivity_model(budget: PhotonBudget | None = None) -> SensitivityModel:
    """Full sensitivity model of the s5 sample."""
    return SensitivityModel(
        dnu_inh_hz=S5_DNU_INH_MHZ,
        ratio_g1_g2=S5_RATIO_G1_G2,
        ap=S5_AP,
        c_over_g2=S5_C_OVER_G2_PER_MW,
        p0_mw=S5_P0_MW,
        f0_hz=S5_F0_MHZ,
        contrast=S5_CONTRAST,
        budget=budget if budget is not None else PhotonBudget(),
    )
