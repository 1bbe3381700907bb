"""Light-narrowed ODMR spectra of NV-center ensembles: models, fits, sensitivity."""

from .errors import (
    DegenerateSystem,
    GridTooCoarse,
    InsufficientData,
    NoConvergence,
    NonFiniteResidual,
    OdmrError,
    ParseError,
    RegimeViolation,
    SchemaError,
    SingularJacobian,
    UnidentifiableParameter,
)
from .spin_models import (
    FiveLevelParams,
    LineshapeSummary,
    TwoLevelParams,
    five_level_fluorescence,
    five_level_ir_absorption,
    five_level_lineshape,
    five_level_width,
    two_level_contrast,
    two_level_lineshape,
    two_level_signal,
    two_level_width,
)
from .lineshape import (
    APModelParams,
    ContrastModelParams,
    HyperfineModel,
    InhomogeneousDist,
    WidthModelParams,
    a_of_p,
    contrast_model,
    contrast_to_amplitude,
    convolve_at,
    convolve_inhomogeneous,
    hyperfine_contrast,
    total_width_model,
    triple_lorentzian,
)
from .fitting import (
    FitReport,
    MeasurementGrid,
    SideResonanceExclusion,
    fit_ap_curve,
    fit_spectrum,
    global_contrast_fit,
    global_width_fit,
    initial_guess,
    least_squares,
)
from .sensitivity import (
    PhotonBudget,
    SensitivityMap,
    SensitivityModel,
    fluorescence_power,
    log_grid,
    photon_rate,
    sensitivity_map,
    shot_noise_sensitivity,
)
from .data_io import (
    SideResonance,
    Spectrum,
    read_fit_report,
    read_grid,
    read_spectrum,
    synth_grid,
    synth_spectrum,
    write_fit_report,
    write_grid,
    write_map_cells,
    write_map_matrix,
    write_spectrum,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
