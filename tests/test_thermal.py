import math

import numpy as np
import pytest

from tregsim.array_sim import ArrayConfig, TempArray
from tregsim.errors import ConfigurationError, FitError
from tregsim.thermal import check_plant, fit_defaults, step_temps

C_TH, G_AMB, G_LAT = fit_defaults()
DT = 1e-3
STABILITY_LIMIT = C_TH / (4 * G_LAT + G_AMB)


def advance(temp, p, n=1, **forced):
    for _ in range(n):
        temp = step_temps(temp, p, C_TH, G_LAT, G_AMB, 25.0, DT, **forced)
    return temp


def ambient(rows=3, cols=3):
    return np.full((rows, cols), 25.0)


def test_equilibrium_at_ambient():
    temp = ambient()
    out = advance(temp, np.zeros((3, 3)))
    assert np.array_equal(out, temp)


def test_single_node_converges_to_power_over_conductance():
    p = np.array([[0.27]])
    temp = advance(ambient(1, 1), p, n=int(12 * (C_TH / G_AMB) / DT))
    assert temp[0, 0] == pytest.approx(25.0 + 0.27 / G_AMB, abs=0.01)


def test_clamped_neighbor_time_constant():
    # single heated node with neighbors held at ambient: 63.2 percent of
    # the final rise at t = c_th/(g_amb + 4*g_lat), within 1 percent
    forced = np.ones((3, 3), dtype=bool)
    forced[1, 1] = False
    p = np.zeros((3, 3))
    p[1, 1] = 0.27
    tau_eff = C_TH / (G_AMB + 4 * G_LAT)
    rise_final = 0.27 / (G_AMB + 4 * G_LAT)
    temp = advance(ambient(), p, n=int(round(tau_eff / DT)),
                   forced=forced, forced_temp=ambient())
    frac = (temp[1, 1] - 25.0) / rise_final
    assert frac == pytest.approx(1 - math.exp(-1), rel=0.01)


def test_heat_balance_per_step():
    rng = np.random.default_rng(5)
    temp = 25.0 + 10.0 * rng.random((3, 3))
    p = 0.1 * rng.random((3, 3))
    out = advance(temp, p)
    lhs = C_TH * (out - temp).sum() / DT
    rhs = p.sum() - G_AMB * (temp - 25.0).sum()
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_maximum_principle_decay():
    rng = np.random.default_rng(6)
    temp = 25.0 + 20.0 * rng.random((3, 3))
    zero = np.zeros((3, 3))
    prev = np.abs(temp - 25.0).max()
    for _ in range(200):
        temp = advance(temp, zero)
        cur = np.abs(temp - 25.0).max()
        assert cur <= prev + 1e-12
        prev = cur


def test_mirror_symmetry_exact():
    rng = np.random.default_rng(8)
    p = 0.2 * rng.random((4, 5))
    t1 = advance(ambient(4, 5), p, n=50)
    t2 = advance(ambient(4, 5), p[:, ::-1], n=50)
    assert np.array_equal(t1[:, ::-1], t2)
    # vertical mirror too
    t3 = advance(ambient(4, 5), p[::-1, :], n=50)
    assert np.array_equal(t1[::-1, :], t3)


def test_stability_bound_enforced():
    check_plant(C_TH, G_AMB, G_LAT, STABILITY_LIMIT)
    with pytest.raises(ConfigurationError, match="stability"):
        check_plant(C_TH, G_AMB, G_LAT, 2.0 * STABILITY_LIMIT)
    # the array runs the check when it is built; 2 s divides the 4 s PID
    # period, so only the stability bound rejects it
    assert 2.0 > STABILITY_LIMIT
    with pytest.raises(ConfigurationError, match="stability"):
        TempArray(ArrayConfig(rows=2, cols=2, thermal_dt=2.0))


def test_plant_parameters_checked():
    check_plant(C_TH, G_AMB, 0.0, DT)  # decoupled cells are supported
    for c_th, g_amb, g_lat, dt in ((0.0, G_AMB, G_LAT, DT),
                                   (C_TH, 0.0, G_LAT, DT),
                                   (C_TH, G_AMB, -G_LAT, DT),
                                   (C_TH, G_AMB, G_LAT, 0.0)):
        with pytest.raises(ConfigurationError):
            check_plant(c_th, g_amb, g_lat, dt)
    with pytest.raises(ConfigurationError):
        TempArray(ArrayConfig(rows=1, cols=1, c_th=-C_TH, g_amb=G_AMB,
                              g_lat=G_LAT))


def test_fit_defaults_values():
    c_th, g_amb, g_lat = fit_defaults(target_rise=65.0, p_at_target=0.27,
                                      step_time=10.0)
    assert g_amb == pytest.approx(0.27 / 65.0, rel=1e-12)      # ~4.15 mW/K
    assert g_lat == pytest.approx(2 * g_amb, rel=1e-12)
    # longer step time grows only the heat capacity
    c2, g2, _ = fit_defaults(step_time=20.0)
    assert g2 == g_amb
    assert c2 == pytest.approx(2 * c_th, rel=1e-12)
    with pytest.raises(FitError):
        fit_defaults(target_rise=-1.0)
