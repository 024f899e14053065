import math

import numpy as np
import pytest

from tregsim import thermal
from tregsim.array_sim import ArrayConfig, TempArray
from tregsim.errors import ConfigurationError
from tregsim.thermal import _lateral_flux, cycle_map, fit_defaults, step_temps

C_TH, G_AMB, G_LAT = fit_defaults(ArrayConfig.p_max)
DT = 1e-3
PERIOD = 4.0


def advance(temp, p, n=1):
    for _ in range(n):
        temp = step_temps(temp, p, C_TH, G_LAT, G_AMB, 25.0, DT)
    return temp


def ambient(rows=3, cols=3):
    return np.full((rows, cols), 25.0)


def test_equilibrium_at_ambient():
    temp = ambient()
    out = advance(temp, np.zeros((3, 3)))
    assert np.array_equal(out, temp)


def test_single_node_converges_to_power_over_conductance():
    # one map over 12 time constants
    p = np.array([[0.27]])
    temp = apply_map(cycle_map((1, 1), C_TH, G_LAT, G_AMB, 12 * C_TH / G_AMB),
                     ambient(1, 1), p)
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
    temp = ambient()
    for _ in range(int(round(tau_eff / DT))):
        temp = np.where(forced, ambient(), advance(temp, p))
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


@pytest.mark.parametrize("shape", [(9, 6), (1, 1), (3, 3), (4, 5), (1, 7),
                                   (2, 2)])
def test_lateral_flux_matches_edge_padding(shape):
    temp = 25.0 + 30.0 * np.random.default_rng(9).random(shape)
    padded = np.pad(temp, 1, mode="edge")
    ref = G_LAT * (padded[:-2, 1:-1] + padded[2:, 1:-1]
                   + padded[1:-1, :-2] + padded[1:-1, 2:] - 4.0 * temp)
    assert np.array_equal(_lateral_flux(temp, G_LAT), ref)


def apply_map(cmap, temp, p, t_ambient=25.0):
    a, b = cmap
    rise = a @ (temp - t_ambient).ravel() + b @ p.ravel()
    return t_ambient + rise.reshape(temp.shape)


def euler_map(shape, dt, n_steps):
    """The affine map (a, b) of n_steps `step_temps` steps of dt under held
    power, read off the stepper by stepping unit fields at zero ambient
    and composed by repeated squaring."""
    n = math.prod(shape)
    unit = np.eye(n).reshape(n, *shape)
    # (pa, pb) maps the next 2**k steps, (a, b) the steps taken so far;
    # running (a, b) and then (pa, pb) is (pa @ a, pa @ b + pb)
    pa = step_temps(unit, 0.0, C_TH, G_LAT, G_AMB, 0.0, dt).reshape(n, n).T
    pb = step_temps(np.zeros_like(unit), unit, C_TH, G_LAT, G_AMB, 0.0,
                    dt).reshape(n, n).T
    a, b = np.eye(n), np.zeros((n, n))
    while n_steps:
        if n_steps & 1:
            a, b = pa @ a, pa @ b + pb
        n_steps >>= 1
        if n_steps:
            pa, pb = pa @ pa, pa @ pb + pb
    return a, b


@pytest.mark.parametrize("n", [1, 7, 4000])
def test_cycle_map_matches_stepper(n):
    rng = np.random.default_rng(10)
    temp = 25.0 + 40.0 * rng.random((9, 6))
    p = 0.27 * rng.random((9, 6))
    mapped = apply_map(euler_map((9, 6), DT, n), temp, p)
    assert np.abs(mapped - advance(temp, p, n=n)).max() <= 1e-9
    # over the same n * DT, the error of Euler's map against the exact
    # one falls 10x with its step: first-order convergence
    exact = cycle_map((9, 6), C_TH, G_LAT, G_AMB, n * DT)
    errors = [[np.abs(e - x).max() for e, x in zip(euler_map((9, 6), dt, n * k), exact)]
              for dt, k in ((DT, 1), (DT / 10, 10))]
    for coarse, fine in zip(*errors):
        assert coarse / fine == pytest.approx(10.0, rel=0.01)


def test_cycle_map_is_a_semigroup():
    # the map over t1 + t2 is the map over t1 followed by the map over t2
    t1, t2 = 1.2345, 2.7183
    a1, b1 = cycle_map((9, 6), C_TH, G_LAT, G_AMB, t1)
    a2, b2 = cycle_map((9, 6), C_TH, G_LAT, G_AMB, t2)
    a, b = cycle_map((9, 6), C_TH, G_LAT, G_AMB, t1 + t2)
    assert np.abs(a2 @ a1 - a).max() <= 1e-12
    assert np.abs(a2 @ b1 + b2 - b).max() <= 1e-12


def test_cycle_map_of_uniform_power_is_the_single_node_rise():
    # uniform power drives no lateral flux: every cell rises as a lone node
    p = np.full((9, 6), 0.27)
    rise = apply_map(cycle_map((9, 6), C_TH, G_LAT, G_AMB, PERIOD),
                     ambient(9, 6), p) - 25.0
    want = 0.27 / G_AMB * -math.expm1(-G_AMB * PERIOD / C_TH)
    assert np.allclose(rise, want, rtol=1e-12, atol=0.0)


def test_cycle_map_decoupled_cells_match_single_cell():
    rng = np.random.default_rng(11)
    temp = 25.0 + 40.0 * rng.random((2, 3))
    p = 0.27 * rng.random((2, 3))
    full = apply_map(cycle_map((2, 3), C_TH, 0.0, G_AMB, PERIOD), temp, p)
    solo_map = cycle_map((1, 1), C_TH, 0.0, G_AMB, PERIOD)
    for r in range(2):
        for c in range(3):
            solo = apply_map(solo_map, temp[r:r + 1, c:c + 1],
                             p[r:r + 1, c:c + 1])
            assert np.array_equal(full[r:r + 1, c:c + 1], solo)


def test_cycle_map_keeps_ambient_at_zero_power():
    cmap = cycle_map((9, 6), C_TH, G_LAT, G_AMB, PERIOD)
    out = apply_map(cmap, ambient(9, 6), np.zeros((9, 6)))
    assert np.array_equal(out, ambient(9, 6))


def test_plant_parameters_checked():
    ArrayConfig(c_th=C_TH, g_amb=G_AMB, g_lat=0.0)  # decoupled cells are supported
    for c_th, g_amb, g_lat, key in ((0.0, G_AMB, G_LAT, "thermal.c_th"),
                                    (C_TH, 0.0, G_LAT, "thermal.g_amb"),
                                    (C_TH, G_AMB, -G_LAT, "thermal.g_lat")):
        with pytest.raises(ConfigurationError, match=key):
            ArrayConfig(c_th=c_th, g_amb=g_amb, g_lat=g_lat)
    with pytest.raises(ConfigurationError):
        TempArray(ArrayConfig(rows=1, cols=1, c_th=-C_TH, g_amb=G_AMB,
                              g_lat=G_LAT), 0)
    # fitted values keep the rules too: this p_max fits c_th and g_amb that round to 0
    with pytest.raises(ConfigurationError, match="thermal.c_th"):
        ArrayConfig(p_max=1e-323)


def test_fit_defaults_values(monkeypatch):
    c_th, g_amb, g_lat = fit_defaults(0.27)
    assert g_amb == pytest.approx(0.27 / 65.0, rel=1e-12)      # ~4.15 mW/K
    assert g_lat == pytest.approx(2 * g_amb, rel=1e-12)
    # longer step time grows only the heat capacity
    monkeypatch.setattr(thermal, "STEP_TIME", 2 * thermal.STEP_TIME)
    c2, g2, _ = fit_defaults(0.27)
    assert g2 == g_amb
    assert c2 == pytest.approx(2 * c_th, rel=1e-12)
