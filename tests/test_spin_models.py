"""Steady-state spin models: solver correctness and closed-form widths.

Reference values were computed with independent solvers kept outside the
package: a complex Liouvillian SVD-nullspace oracle for the two-level system
and a literal 7x7 rate-equation nullspace for the five-level system.
"""

import warnings

import numpy as np
import pytest

from odmrkit._numerics import numeric_fwhm
from odmrkit.errors import DegenerateSystem, RegimeViolation
from odmrkit.spin_models import (
    FiveLevelParams,
    TwoLevelParams,
    five_level_fluorescence,
    five_level_ir_absorption,
    five_level_lineshape,
    five_level_residual,
    five_level_steady_state,
    five_level_width,
    signal_curve,
    two_level_contrast,
    two_level_lineshape,
    two_level_residual,
    two_level_signal,
    two_level_steady_state,
    two_level_width,
)

GAMMA_RAD = 1.0 / 0.012
GAMMA_SINGLET = 1.0 / 0.200


def draw_two_level(rng):
    g1 = float(rng.uniform(1e-4, 1.0))
    g2 = float(rng.uniform(max(g1 / 2.0, 0.05), 5.0))
    return TwoLevelParams(
        gamma1=g1,
        gamma2=g2,
        pump_rate=float(rng.uniform(1e-3, 10.0)),
        rabi_hz=float(rng.uniform(0.01, 5.0)),
        detuning_hz=float(rng.uniform(-5.0, 5.0)),
        theta=float(rng.uniform(1e-3, 0.5)),
    )


def test_two_level_on_resonance_matches_nullspace_oracle():
    p = TwoLevelParams(gamma1=0.001, gamma2=1.0, pump_rate=0.1, rabi_hz=1.0)
    st = two_level_steady_state(p)
    assert abs(st.populations["0"] - 0.5013262777846282) < 1e-13
    assert abs(st.populations["1"] - 0.49867372221537176) < 1e-13
    assert abs(st.coherence01.real) < 1e-15
    # Drive phase convention: net absorption means Im rho01 < 0 here.
    assert abs(st.coherence01.imag - (-0.007936427704395713)) < 1e-13


def test_two_level_detuned_matches_nullspace_oracle():
    p = TwoLevelParams(
        gamma1=0.02, gamma2=0.7, pump_rate=1.3, rabi_hz=0.45, detuning_hz=0.8
    )
    st = two_level_steady_state(p)
    assert abs(st.populations["0"] - 0.8782565750018627) < 1e-13
    assert abs(st.populations["1"] - 0.12174342499813733) < 1e-13
    assert abs(st.coherence01.real - 0.1984544144823589) < 1e-13
    assert abs(st.coherence01.imag - (-0.053299689260526945)) < 1e-13


def test_two_level_no_drive_no_pump_is_unpolarized():
    p = TwoLevelParams(gamma1=0.1, gamma2=1.0, pump_rate=0.0, rabi_hz=0.0)
    st = two_level_steady_state(p)
    assert abs(st.populations["0"] - 0.5) < 1e-14
    assert abs(st.populations["1"] - 0.5) < 1e-14
    assert abs(st.coherence01) < 1e-14


def test_two_level_trace_and_residual_over_draws():
    rng = np.random.default_rng(101)
    for _ in range(200):
        p = draw_two_level(rng)
        st = two_level_steady_state(p)
        total = sum(st.populations.values())
        assert abs(total - 1.0) < 1e-12
        assert all(-1e-9 <= v <= 1.0 + 1e-9 for v in st.populations.values())
        resid = two_level_residual(p, st)
        assert np.max(np.abs(resid)) < 1e-10


def test_two_level_width_matches_numeric_fwhm():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = draw_two_level(rng).at_detuning(0.0)
        w = two_level_width(p)

        def scan(delta):
            return two_level_signal(p.at_detuning(float(delta)))

        w_num, _ = numeric_fwhm(scan, 0.0, w)
        assert abs(w_num - w) / w < 1e-8


def test_two_level_width_frozen_value():
    p = TwoLevelParams(gamma1=0.001, gamma2=1.0, pump_rate=0.1, rabi_hz=1.0)
    # hand evaluation of sqrt((g2eff/pi)^2 + 4 g2eff fr^2/(g1 + pump))
    g2eff = 1.0 + 0.1 / 2.0
    want = np.sqrt((g2eff / np.pi) ** 2 + 4.0 * g2eff / (0.001 + 0.1))
    assert abs(two_level_width(p) - want) < 1e-14
    assert abs(two_level_width(p) - 6.457233542377669) < 1e-12


def test_two_level_contrast_matches_numeric_depth():
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = draw_two_level(rng).at_detuning(0.0)
        c = two_level_contrast(p)
        summary = two_level_lineshape(p)
        on = two_level_signal(p)
        depth = (summary.baseline - on) / summary.baseline
        assert abs(depth - c) < 1e-12


def test_two_level_contrast_frozen_value():
    p = TwoLevelParams(gamma1=0.001, gamma2=1.0, pump_rate=0.1, rabi_hz=1.0)
    assert abs(two_level_contrast(p) - 0.022617651964889726) < 1e-14


def test_two_level_lineshape_summary_consistency():
    p = TwoLevelParams(gamma1=0.01, gamma2=1.0, pump_rate=0.5, rabi_hz=0.8)
    summary = two_level_lineshape(p)
    assert abs(summary.fwhm_hz - two_level_width(p)) < 1e-12
    assert abs(summary.contrast - two_level_contrast(p)) < 1e-12
    far = two_level_signal(p.at_detuning(1e9 * summary.fwhm_hz))
    assert abs(summary.baseline - far) < 1e-12


def test_two_level_params_validation():
    with pytest.raises(ValueError):
        TwoLevelParams(gamma1=1.0, gamma2=0.1, pump_rate=0.1, rabi_hz=1.0)
    with pytest.raises(ValueError):
        TwoLevelParams(gamma1=0.1, gamma2=1.0, pump_rate=-0.1, rabi_hz=1.0)
    with pytest.raises(ValueError):
        TwoLevelParams(gamma1=0.1, gamma2=1.0, pump_rate=0.1, rabi_hz=1.0, theta=1.5)


def five_level(g1, g2, pump, rabi, det=0.0):
    return FiveLevelParams(
        gamma1=g1,
        gamma2=g2,
        pump_rate=pump,
        rabi_hz=rabi,
        detuning_hz=det,
        gamma_rad=GAMMA_RAD,
        gamma_isc=GAMMA_RAD,
        gamma_singlet=GAMMA_SINGLET,
    )


def test_five_level_matches_rate_equation_oracle():
    p = five_level(0.001, 1.0, 0.04, 0.3)
    st = five_level_steady_state(p)
    want = {
        "0": 0.5002529593901023,
        "1": 0.49739795187344726,
        "e0": 0.00024012142050724834,
        "e1": 0.00011937550844955977,
        "s": 0.0019895918074936594,
    }
    for k, v in want.items():
        assert abs(st.populations[k] - v) < 1e-12
    assert abs(st.coherence01.imag - (-0.0026380207765490478)) < 1e-12
    assert abs(five_level_fluorescence(p) - 0.0002998091747320282) < 1e-12


def test_five_level_detuned_matches_rate_equation_oracle():
    p = five_level(0.003, 0.8, 2.0, 0.7, det=0.5)
    st = five_level_steady_state(p)
    want = {
        "0": 0.5249983582942094,
        "1": 0.38151953886693857,
        "e0": 0.012599960599060976,
        "e1": 0.0045782344664032516,
        "s": 0.07630390777338782,
    }
    for k, v in want.items():
        assert abs(st.populations[k] - v) < 1e-12
    assert abs(st.coherence01.real - 0.07561291714457369) < 1e-12
    assert abs(st.coherence01.imag - (-0.04332301029056495)) < 1e-12
    assert abs(five_level_fluorescence(p) - 0.014889077832262603) < 1e-12
    assert abs(five_level_ir_absorption(p) - 0.07630390777338782) < 1e-12


def test_five_level_no_pump_ground_only():
    p = five_level(0.001, 1.0, 0.0, 0.2)
    st = five_level_steady_state(p)
    assert abs(st.populations["0"] - 0.5) < 1e-12
    assert abs(st.populations["1"] - 0.5) < 1e-12
    assert st.populations["e0"] == pytest.approx(0.0, abs=1e-14)
    assert st.populations["e1"] == pytest.approx(0.0, abs=1e-14)
    assert st.populations["s"] == pytest.approx(0.0, abs=1e-14)


def test_five_level_no_isc_empty_singlet():
    p = FiveLevelParams(
        gamma1=0.001,
        gamma2=1.0,
        pump_rate=0.5,
        rabi_hz=0.2,
        detuning_hz=0.0,
        gamma_rad=GAMMA_RAD,
        gamma_isc=0.0,
        gamma_singlet=GAMMA_SINGLET,
    )
    st = five_level_steady_state(p)
    assert st.populations["s"] == pytest.approx(0.0, abs=1e-14)
    # Without the singlet channel there is no optical spin polarization.
    assert abs(st.populations["0"] - st.populations["1"]) < 1e-12


def test_five_level_trace_and_residual_over_draws():
    rng = np.random.default_rng(31)
    for _ in range(100):
        p = five_level(
            float(rng.uniform(1e-4, 0.05)),
            float(rng.uniform(0.2, 2.0)),
            float(rng.uniform(0.0, 8.0)),
            float(rng.uniform(0.05, 2.0)),
            det=float(rng.uniform(-3.0, 3.0)),
        )
        st = five_level_steady_state(p)
        assert abs(sum(st.populations.values()) - 1.0) < 1e-12
        assert np.max(np.abs(five_level_residual(p, st))) < 1e-10


def test_five_level_width_in_regime():
    # Saturation-corrected width against the numeric FWHM of the exact model,
    # valid when the pump stays well under the radiative rate and gamma1 well
    # under the singlet decay.
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(30):
        p = five_level(
            float(rng.uniform(1e-4, GAMMA_SINGLET / 100.0)),
            float(rng.uniform(0.2, 2.0)),
            float(rng.uniform(GAMMA_RAD / 1e4, GAMMA_RAD / 100.0)),
            float(rng.uniform(0.05, 2.0)),
        )
        w = five_level_width(p)

        def scan(delta):
            return five_level_fluorescence(p.at_detuning(float(delta)))

        w_num, _ = numeric_fwhm(scan, 0.0, w)
        worst = max(worst, abs(w_num - w) / w)
    assert worst < 0.01


def test_five_level_width_warns_outside_regime():
    p = five_level(0.001, 1.0, GAMMA_RAD / 2.0, 0.3)
    with pytest.warns(RegimeViolation):
        five_level_width(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RegimeViolation)
        w_silent = five_level_width(p, warn_regime=False)
    assert w_silent > 0.0


def test_readout_equivalence_fluorescence_vs_ir():
    # The fluorescence dip and the singlet-absorption peak are two readouts
    # of the same resonance; their numeric FWHM and centers must agree.
    rng = np.random.default_rng(47)
    for _ in range(20):
        p = five_level(
            float(rng.uniform(1e-4, 0.03)),
            float(rng.uniform(0.2, 2.0)),
            float(rng.uniform(0.01, 5.0)),
            float(rng.uniform(0.05, 2.0)),
        )
        scale = five_level_width(p, warn_regime=False)
        w_fl, mid_fl = numeric_fwhm(
            lambda d: five_level_fluorescence(p.at_detuning(float(d))), 0.0, scale
        )
        w_ir, mid_ir = numeric_fwhm(
            lambda d: five_level_ir_absorption(p.at_detuning(float(d))), 0.0, scale
        )
        assert abs(w_fl - w_ir) / w_fl < 1e-9
        assert abs(mid_fl - mid_ir) < 1e-9 * w_fl


READOUTS = [
    (TwoLevelParams(gamma1=0.01, gamma2=1.0, pump_rate=0.5, rabi_hz=0.8, theta=0.3),
     two_level_signal),
    (five_level(0.001, 1.0, 0.5, 0.3), five_level_fluorescence),
    (five_level(0.001, 1.0, 0.5, 0.3), five_level_ir_absorption),
]


def test_signal_curve_matches_pointwise_eval():
    detunings = np.linspace(-40.0, 40.0, 1601)
    for p, signal in READOUTS:
        curve = signal_curve(p, detunings, signal)
        pointwise = np.array([signal(p.at_detuning(float(d))) for d in detunings])
        assert curve.shape == (1601,)
        assert np.array_equal(curve, pointwise)


@pytest.mark.parametrize("p, signal", READOUTS)
def test_readouts_broadcast_over_array_detuning(p, signal):
    # Any shape of detuning is one stack of systems; each entry is the scalar
    # call, bit for bit.
    detunings = np.array([[-3.0, -0.25, 0.0], [0.1, 1.7, 25.0]])
    got = signal(p.at_detuning(detunings))
    assert got.shape == detunings.shape
    want = [[signal(p.at_detuning(float(d))) for d in row] for row in detunings]
    assert np.array_equal(got, want)
    assert isinstance(signal(p.at_detuning(0.5)), float)


@pytest.mark.parametrize("p, signal", READOUTS)
def test_signal_curve_rejects_non_finite_detuning(p, signal):
    with pytest.raises(ValueError, match="detuning_hz must be finite"):
        signal_curve(p, np.array([-1.0, np.nan, 1.0]), signal)


def test_degenerate_system_raises():
    p = TwoLevelParams(gamma1=0.0, gamma2=0.0, pump_rate=0.0, rabi_hz=0.0)
    with pytest.raises(DegenerateSystem):
        two_level_steady_state(p)
    with pytest.raises(DegenerateSystem):
        signal_curve(p, np.linspace(-1.0, 1.0, 5), two_level_signal)
