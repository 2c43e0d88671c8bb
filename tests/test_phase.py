import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (d2phase_deta2, dphase_dxi, phase_floor, richardson_d1,
                     richardson_d2)
from reslab.errors import BracketFailure, DegenerateSelfInteraction
from reslab.phase import (PhaseParams, Regime, ResonanceClass, Tag,
                          band_width_probe, band_width_reference, classify,
                          d2_at_stationary, dphase_deta, lambda_coeff, phase,
                          phase_report, sampled_phase_min)
from reslab.triples import (condition_polynomial, enumerate_triples,
                            printed_gate_admissible, sqrt_gate_admissible)


def test_phase_all_plus_at_origin():
    assert phase(PhaseParams(0, 0, 0, 1, 1), 0.0, 0.0) == \
        pytest.approx(3.0 * math.sqrt(2.0), rel=1e-14)


def test_phase_vanishes_on_resonant_line():
    pp = PhaseParams(0, 0, 3, -1, -1)
    for eta in (0.0, 1.0, 5.0):
        assert abs(phase(pp, 2.0 * eta, eta)) <= 1e-12


def test_phase_pairwise_cancellation():
    assert phase(PhaseParams(0, 0, 0, 1, -1), 0.0, 0.0) == \
        pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_dphase_symmetry_zero():
    assert dphase_deta(PhaseParams(0, 0, 5, 1, 1), 2.0, 1.0) == 0.0


def test_d2phase_at_origin():
    assert d2phase_deta2(PhaseParams(0, 0, 7, -1, -1), 0.0, 0.0) == \
        pytest.approx(-math.sqrt(2.0), rel=1e-13)


def test_dphase_dxi_odd_symmetry():
    assert dphase_dxi(PhaseParams(0, 0, 3, -1, -1), 0.0, 0.0) == 0.0


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 1000:
        m, n, p = (int(v) for v in rng.integers(0, 31, 3))
        a, b = (int(v) for v in rng.choice([-1, 1], 2))
        xi, eta = rng.uniform(-50.0, 50.0, 2)
        pp = PhaseParams(m, n, p, a, b)
        h = 1e-3 * (1.0 + abs(xi) + abs(eta))

        d_eta = dphase_deta(pp, xi, eta)
        fd = richardson_d1(lambda e: phase(pp, xi, e), eta, h)
        assert abs(d_eta - fd) <= 1e-6 * (1.0 + abs(d_eta))

        d_xi = dphase_dxi(pp, xi, eta)
        fd = richardson_d1(lambda x: phase(pp, x, eta), xi, h)
        assert abs(d_xi - fd) <= 1e-6 * (1.0 + abs(d_xi))

        d2 = d2phase_deta2(pp, xi, eta)
        fd = richardson_d2(lambda e: phase(pp, xi, e), eta, h)
        assert abs(d2 - fd) <= 1e-6 * (1.0 + abs(d2))
        checked += 1


def test_lambda_symmetric_modes():
    assert lambda_coeff(4, 4, 1, 1) == pytest.approx(0.5, rel=1e-15)
    assert lambda_coeff(4, 4, -1, -1) == pytest.approx(0.5, rel=1e-15)


def test_lambda_direct_value():
    assert lambda_coeff(0, 3, -1, -1) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_lambda_degenerate_self_interaction():
    with pytest.raises(DegenerateSelfInteraction):
        lambda_coeff(2, 2, 1, -1)
    with pytest.raises(DegenerateSelfInteraction):
        d2_at_stationary(2, 2, 1, -1, 0.0)


def test_stationary_point_of_dphase():
    rng = np.random.default_rng(1)
    for _ in range(100):
        m, n = (int(v) for v in rng.integers(0, 31, 2))
        a, b = (int(v) for v in rng.choice([-1, 1], 2))
        if m == n and a == -b:
            continue
        p = int(rng.integers(0, 31))
        lam = lambda_coeff(m, n, a, b)
        xi = rng.uniform(-30.0, 30.0)
        assert abs(dphase_deta(PhaseParams(m, n, p, a, b), xi, lam * xi)) <= 1e-12


def test_d2_at_stationary_values():
    # (0,0) with ab=+1: lambda = 1/2, value 2/(0.5 * 2^(3/2)) = sqrt(2)
    assert d2_at_stationary(0, 0, 1, 1, 0.0) == pytest.approx(math.sqrt(2.0), rel=1e-13)
    assert d2_at_stationary(0, 3, 1, 1, 0.0) == pytest.approx(3.0 / math.sqrt(2.0), rel=1e-13)
    # the sign is alpha's
    assert d2_at_stationary(0, 3, -1, -1, 0.0) == -d2_at_stationary(0, 3, 1, 1, 0.0)
    # value and sign agree with the direct second derivative on the line
    pp = PhaseParams(0, 0, 3, -1, -1)
    assert d2_at_stationary(0, 0, -1, -1, 0.0) == \
        pytest.approx(d2phase_deta2(pp, 0.0, 0.0), rel=1e-13)


def test_d2_decays_in_xi():
    vals = [d2_at_stationary(0, 0, 1, 1, x) for x in (0.0, 10.0, 100.0)]
    assert vals[0] > vals[1] > vals[2] > 0.0


def test_classify_resonant_line():
    cls = classify(PhaseParams(0, 0, 3, -1, -1))
    assert cls.tag is Tag.SPACE_TIME_RESONANT_LINE
    assert cls.resonant_line_slope == pytest.approx(2.0, rel=1e-14)
    assert classify(PhaseParams(0, 0, 3, -1, -1), "sqrt").tag is \
        Tag.SPACE_TIME_RESONANT_LINE


def test_classify_all_plus_never_time_resonant():
    rng = np.random.default_rng(3)
    for _ in range(25):
        m, n, p = (int(v) for v in rng.integers(0, 40, 3))
        assert classify(PhaseParams(m, n, p, 1, 1)).tag is Tag.NO_TIME_RESONANCE


def test_classify_space_resonant_only():
    assert classify(PhaseParams(0, 0, 1, -1, -1)).tag is Tag.SPACE_RESONANT_ONLY


def test_classify_agrees_with_gate_functions():
    gates = (("sqrt", sqrt_gate_admissible), ("printed", printed_gate_admissible))
    for m in range(31):
        for n in range(31):
            for p in range(31):
                for a in (-1, 1):
                    for b in (-1, 1):
                        params = PhaseParams(m, n, p, a, b)
                        for gate, admissible in gates:
                            on_line = classify(params, gate).tag is \
                                Tag.SPACE_TIME_RESONANT_LINE
                            assert on_line == admissible(m, n, p, a, b)


def test_resonant_line_vanishing_all_enumerated():
    for m, n, p in enumerate_triples(50):
        pp = PhaseParams(m, n, p, -1, -1)
        slope = 1.0 / lambda_coeff(m, n, -1, -1)
        for eta in (0.0, 1.0, -1.0, 10.0, -10.0):
            assert abs(phase(pp, slope * eta, eta)) <= 1e-10


def test_dxi_bounded_by_deta_on_resonant_sets():
    triples = enumerate_triples(50)[:10]
    grid = np.linspace(-50.0, 50.0, 200)
    xi, eta = np.meshgrid(grid, grid)
    for m, n, p in triples:
        pp = PhaseParams(m, n, p, -1, -1)
        assert np.all(np.abs(dphase_dxi(pp, xi, eta))
                      <= np.abs(dphase_deta(pp, xi, eta)) + 1e-12)


def test_coresonant_line_coincides():
    for m, n, p in enumerate_triples(50):
        pp = PhaseParams(m, n, p, -1, -1)
        slope = 1.0 / lambda_coeff(m, n, -1, -1)
        for eta in (0.5, 1.0, -2.0, 7.0):
            assert abs(dphase_dxi(pp, slope * eta, eta)) <= 1e-10


def test_phase_floor_values():
    assert phase_floor(0, 0, 1.0) == pytest.approx(0.25, rel=1e-14)
    assert phase_floor(3, 0, 10.0) == pytest.approx(1.0 / 90.0, rel=1e-14)


def test_sampled_phase_min_respects_floor():
    # 20 non-resonant sets share one fitted constant; calibrated c >= 1
    rng = np.random.default_rng(42)
    ratios = []
    while len(ratios) < 20:
        m, n, p = (int(v) for v in rng.integers(0, 30, 3))
        if condition_polynomial(m, n, p) == 0:   # the floor holds off the resonant set
            continue
        ratios.append(sampled_phase_min(PhaseParams(m, n, p, -1, -1), 20.0)
                      / phase_floor(m, n, 20.0))
    fitted_c = min(ratios)
    assert fitted_c >= 1.0


def test_band_width_probe_low_freq():
    width = band_width_probe(100, 100, 3, Regime.LOW_FREQ)
    ref = band_width_reference(100, 100, 3, Regime.LOW_FREQ)
    assert ref / 4.0 <= width <= 4.0 * ref


def test_band_width_probe_rho_large():
    width = band_width_probe(4, 4, 0, Regime.RHO_LARGE, eta_window=50.0)
    ref = band_width_reference(4, 4, 0, Regime.RHO_LARGE)
    assert ref / 4.0 <= width <= 4.0 * ref


def test_band_width_probe_rho_small():
    # eta = sqrt(2) 2^k = 11.3 sits in [sqrt(m), 2 sqrt(m)] with rho = 1/4
    width = band_width_probe(64, 64, 3, Regime.RHO_SMALL, k=3)
    ref = band_width_reference(64, 64, 3, Regime.RHO_SMALL, k=3)
    assert ref / 4.0 <= width <= 4.0 * ref


def test_band_width_probe_rejects_wrong_regime():
    with pytest.raises(ValueError):
        band_width_probe(100, 36, 3, Regime.RHO_SMALL, k=4)  # rho too large


def test_band_width_probe_empty_level_set():
    # |d_eta phi| < 2 everywhere, so the level -2^(-j) with j = -2 is empty
    with pytest.raises(BracketFailure):
        band_width_probe(4, 4, -2, Regime.RHO_LARGE, eta_window=10.0)


def test_phase_report_structure():
    report = phase_report(PhaseParams(0, 0, 3, -1, -1), R=10.0,
                          width_specs=((3, "LowFreq", None),))
    assert report["class"] == "SpaceTimeResonantLine"
    assert report["gates_disagree"] is False
    assert report["lambda"] == pytest.approx(0.5)
    assert report["sampled_phase_min"] <= 1e-8
    assert len(report["width_probes"]) == 1


def test_phase_report_flags_gate_disagreement():
    # sqrt gate: sqrt(m+1) = sqrt(n+1) + sqrt(p+1) with (8, 0, 3); the printed
    # inequalities reject it
    report = phase_report(PhaseParams(8, 0, 3, -1, 1), R=5.0)
    assert report["gates_disagree"] is True


def test_resonance_class_dataclass():
    cls = ResonanceClass(Tag.NO_TIME_RESONANCE)
    assert cls.resonant_line_slope is None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40),
       st.sampled_from([-1, 1]), st.sampled_from([-1, 1]),
       st.floats(-40.0, 40.0, allow_nan=False))
def test_stationary_point_property(m, n, p, a, b, xi):
    if m == n and a == -b:
        with pytest.raises(DegenerateSelfInteraction):
            lambda_coeff(m, n, a, b)
        return
    lam = lambda_coeff(m, n, a, b)
    pp = PhaseParams(m, n, p, a, b)
    assert abs(dphase_deta(pp, xi, lam * xi)) <= 1e-11 * (1.0 + abs(xi))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30),
       st.floats(-30.0, 30.0, allow_nan=False),
       st.floats(-30.0, 30.0, allow_nan=False))
def test_phase_symmetry_property(m, n, p, xi, eta):
    pp = PhaseParams(m, n, p, -1, -1)
    # central symmetry and the m <-> n exchange under eta -> xi - eta
    assert phase(pp, -xi, -eta) == pytest.approx(phase(pp, xi, eta), rel=1e-13)
    swapped = PhaseParams(n, m, p, -1, -1)
    assert phase(swapped, xi, xi - eta) == pytest.approx(phase(pp, xi, eta), rel=1e-13)
