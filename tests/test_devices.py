import math

import numpy as np
import pytest

from tregsim.devices import (BjtParams, Capacitor, CurrentSourceParams,
                             HeaterParams, ImpedanceSensor, PhSensor,
                             Resistor, Series, delta_vbe, i_ctat, i_ptat,
                             sample_cell_mismatch, vbe)
from tregsim.errors import ConfigurationError, DomainError

BJT = BjtParams()
CS = CurrentSourceParams()


def test_vbe_at_reference_is_anchor():
    assert vbe(BJT, 300.0, ic_ratio_to_ref=1.0) == pytest.approx(0.7, abs=1e-15)


def test_vbe_slope_near_300k():
    # evaluated independently from the model terms:
    # 1.156*(-1/30) + (31/30)*0.7 - 4*(k*310/q)*ln(310/300) - 0.7
    diff = vbe(BJT, 310.0) - vbe(BJT, 300.0)
    assert diff == pytest.approx(-0.018703754302817788, abs=1e-12)
    assert -22e-3 <= diff <= -18e-3  # roughly -2 mV/K


def test_vbe_bias_ratio_term():
    # the bias-dependent term adds vt*ln(ratio)
    import tregsim.devices as dev
    vt = dev.K_BOLTZMANN * 320.0 / dev.Q_ELECTRON
    got = vbe(BJT, 320.0, ic_ratio_to_ref=2.0) - vbe(BJT, 320.0)
    assert got == pytest.approx(vt * math.log(2.0), rel=1e-12)


def test_vbe_domain_checks():
    with pytest.raises(DomainError):
        vbe(BJT, 200.0)
    with pytest.raises(DomainError):
        vbe(BJT, 450.0)
    with pytest.raises(DomainError):
        vbe(BJT, 300.0, ic_ratio_to_ref=0.0)


def test_delta_vbe_value_and_linearity():
    # (kT/q)*ln(3) at 300 K
    assert delta_vbe(CS, 300.0) == pytest.approx(0.02840132465202343, abs=1e-15)
    assert delta_vbe(CS, 1e-6) == pytest.approx(0.0, abs=1e-10)  # t -> 0+ limit
    for t in (260.0, 300.0, 350.0):
        assert delta_vbe(CS, 2 * t) / delta_vbe(CS, t) == pytest.approx(2.0, rel=1e-12)


def test_i_ctat_nominal_value():
    # 0.7 V / 1.5 MOhm / 10
    assert i_ctat(CS, BJT, 300.0) == pytest.approx(4.666666666666667e-08, rel=1e-12)


def test_i_ctat_trim_monotone():
    prev = -1.0
    for code in range(0, 64, 7):
        cur = i_ctat(CurrentSourceParams(trim_code=code), BJT, 320.0)
        assert cur > prev
        prev = cur


def test_i_ctat_decreases_with_temperature():
    assert i_ctat(CS, BJT, 360.0) < i_ctat(CS, BJT, 300.0)


def test_i_ptat_nominal_value_and_scaling():
    cs1 = CurrentSourceParams(alpha=1.0)
    assert i_ptat(cs1, 300.0) == pytest.approx(2.840132465202343e-07, rel=1e-12)
    assert i_ptat(cs1, 330.0) / i_ptat(cs1, 300.0) == pytest.approx(1.1, rel=1e-12)
    half = CurrentSourceParams(alpha=0.5)
    for t in (280.0, 300.0, 360.0):
        assert i_ptat(half, t) == pytest.approx(0.5 * i_ptat(cs1, t), rel=1e-12)


def test_monotonicity_over_mismatch_draws():
    # vbe strictly decreasing, delta_vbe strictly increasing on [293, 363]
    # for parameter draws within 3 sigma
    rng = np.random.default_rng(7)
    t = np.linspace(293.0, 363.0, 141)
    for _ in range(25):
        bjt_i, cs_i = sample_cell_mismatch(BJT, CS, rng)
        v = vbe(bjt_i, t)
        assert np.all(np.diff(v) < 0)
        assert np.all(np.diff(delta_vbe(cs_i, t)) > 0)


def test_outputs_reproducible_with_same_seed():
    assert i_ctat(CS, BJT, 320.0) == i_ctat(CS, BJT, 320.0)


def test_param_validation():
    with pytest.raises(ConfigurationError):
        BjtParams(vg0=0.5)  # below vbe_at_tref
    with pytest.raises(ConfigurationError):
        CurrentSourceParams(trim_code=64)
    with pytest.raises(ConfigurationError):
        CurrentSourceParams(bias_current_ratio=1.0)
    with pytest.raises(ConfigurationError):
        HeaterParams(p_max=0.0)


def test_ph_sensor_response():
    s = PhSensor()
    assert s.current(0.3, 0.0, 25.0) == 0.0
    s.ph = 8.0
    assert s.current(0.3, 0.0, 25.0) == pytest.approx(1.8e-9, rel=1e-12)
    # 10 degC above 25 derates the delta by 10 percent
    assert s.current(0.3, 0.0, 35.0) == pytest.approx(0.9 * 1.8e-9, rel=1e-12)
    # no derating below 25
    assert s.current(0.3, 0.0, 20.0) == pytest.approx(1.8e-9, rel=1e-12)


def test_impedance_sensor_sinusoid_amplitude():
    net = Series((Resistor(1e6), Capacitor(1e-6)))
    z = net.impedance(1000.0)
    assert abs(z) == pytest.approx(math.hypot(1e6, 1.0 / (2 * math.pi * 1000 * 1e-6)),
                                   rel=1e-12)
    s = ImpedanceSensor(net)
    s.prepare_sinusoid(1000.0, 0.05)
    t = np.linspace(0.0, 5e-3, 20001)
    i_peak = np.abs(s.currents_at(t)).max()
    assert i_peak == pytest.approx(0.05 / abs(z), rel=1e-4)


def test_sensor_mode_errors():
    s = ImpedanceSensor(Series((Resistor(1e3),)))
    with pytest.raises(ConfigurationError):
        s.current(0.1, 0.0, 25.0)  # sinusoid not prepared
