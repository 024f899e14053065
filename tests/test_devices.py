import math
import re
from dataclasses import replace

import numpy as np
import pytest

from tregsim import array_sim
from tregsim.array_sim import ArrayConfig, TempArray, _fra_grid_point
from tregsim.devices import (BjtParams, CurrentSourceParams, HeaterParams, delta_vbe, i_ctat,
                             i_ptat, ph_current, vbe)
from tregsim.errors import ConfigurationError, DomainError
from tregsim.experiments import FRA_NETWORKS
from tregsim.madc import MadcConfig

BJT = BjtParams()
CS = CurrentSourceParams()


def test_vbe_at_reference_is_anchor():
    assert vbe(BJT, 300.0) == pytest.approx(0.7, abs=1e-15)


def test_vbe_slope_near_300k():
    # evaluated independently from the model terms:
    # 1.156*(-1/30) + (31/30)*0.7 - 4*(k*310/q)*ln(310/300) - 0.7
    diff = vbe(BJT, 310.0) - vbe(BJT, 300.0)
    assert diff == pytest.approx(-0.018703754302817788, abs=1e-12)
    assert -22e-3 <= diff <= -18e-3  # roughly -2 mV/K


def test_vbe_domain_checks():
    with pytest.raises(DomainError):
        vbe(BJT, 200.0)
    with pytest.raises(DomainError):
        vbe(BJT, 450.0)


def test_range_checks_skip_nan_and_pass_empty():
    # as np.any did: a NaN element fails every comparison, so only another
    # element out of range raises, and an empty field passes
    assert vbe(BJT, np.array([])).shape == (0,)
    v = vbe(BJT, np.array([np.nan, 300.0]))
    assert np.isnan(v[0]) and v[1] == vbe(BJT, 300.0)
    for t in (200.0, 450.0):
        with pytest.raises(DomainError, match=re.escape("temperature outside [250 K, 400 K]")):
            vbe(BJT, np.array([np.nan, t]))
    with pytest.raises(DomainError, match="temperature must be positive"):
        delta_vbe(CS, np.array([np.nan, 0.0]))


def test_delta_vbe_value_and_linearity():
    # (kT/q)*ln(3) at 300 K
    assert delta_vbe(CS, 300.0) == pytest.approx(0.02840132465202343, abs=1e-15)
    assert delta_vbe(CS, 1e-6) == pytest.approx(0.0, abs=1e-10)  # t -> 0+ limit
    for t in (260.0, 300.0, 350.0):
        assert delta_vbe(CS, 2 * t) / delta_vbe(CS, t) == pytest.approx(2.0, rel=1e-12)


def test_i_ctat_nominal_value():
    # 0.7 V / 1.5 MOhm / 10
    assert i_ctat(CS, BJT, 300.0) == pytest.approx(4.666666666666667e-08, rel=1e-12)


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
    # for parameter draws within 3 sigma: the 25 cells of a 5x5 array
    arr = TempArray(ArrayConfig(rows=5, cols=5), seed=7)
    t = np.linspace(293.0, 363.0, 141)
    for r, c in np.ndindex(5, 5):
        bjt_i = replace(arr.bjt, vbe_offset=arr.bjt.vbe_offset[r, c])
        cs_i = replace(arr.current_source, r1=arr.current_source.r1[r, c],
                       r2=arr.current_source.r2[r, c],
                       mirror_ratio=arr.current_source.mirror_ratio[r, c])
        v = vbe(bjt_i, t)
        assert np.all(np.diff(v) < 0)
        assert np.all(np.diff(delta_vbe(cs_i, t)) > 0)


def test_outputs_reproducible_with_same_seed():
    assert i_ctat(CS, BJT, 320.0) == i_ctat(CS, BJT, 320.0)


def test_param_validation():
    with pytest.raises(ConfigurationError):
        BjtParams(vg0=0.5)  # below vbe_at_tref
    with pytest.raises(ConfigurationError):
        CurrentSourceParams(bias_current_ratio=1.0)
    with pytest.raises(ConfigurationError):
        HeaterParams(p_max=0.0)


def test_ph_current_response():
    assert ph_current(7.0, 25.0) == 0.0
    assert ph_current(8.0, 25.0) == pytest.approx(1.8e-9, rel=1e-12)
    # 10 degC above 25 derates the delta by 10 percent
    assert ph_current(8.0, 35.0) == pytest.approx(0.9 * 1.8e-9, rel=1e-12)
    # no derating below 25
    assert ph_current(8.0, 20.0) == pytest.approx(1.8e-9, rel=1e-12)


def test_is_response_peaks_at_amplitude_over_impedance(monkeypatch):
    # fra_sweep's networks against their closed forms: 100 kOhm in
    # series with 1 uF, 1 MOhm in parallel with 10 nF
    w = 2 * math.pi * 1000.0
    assert FRA_NETWORKS["series_rc"](1000.0) == pytest.approx(complex(1e5, -1.0 / (w * 1e-6)),
                                                              rel=1e-12)
    assert FRA_NETWORKS["parallel_rc"](1000.0) == pytest.approx(1.0 / (1e-6 + 1j * w * 10e-9),
                                                                rel=1e-12)
    net = FRA_NETWORKS["series_rc"]
    # the response an IS point converts peaks at amplitude / |z|, read
    # off every phase of a period of 4883 conversions near 1 Hz
    responses = []
    real = array_sim.discharge_counts

    def spy(cfg, charge, i_in, *args):
        responses.append(i_in.copy())
        return real(cfg, charge, i_in, *args)

    monkeypatch.setattr(array_sim, "discharge_counts", spy)
    madc = MadcConfig(conversion_noise_counts=0.0)
    m, _ = _fra_grid_point(madc, 1.0)
    ((f, _),) = TempArray.run_is(madc, [net], [1.0], amplitude=0.05)
    (i_abs,) = responses
    assert i_abs.shape == (m,)
    assert i_abs.max() == pytest.approx(0.05 / abs(net(f)), rel=1e-4)
