import copy
import math
from dataclasses import replace

import numpy as np
import pytest

from tregsim import array_sim
from tregsim.array_sim import (MAX_FRA_PERIOD, ArrayConfig, Mode, TempArray, WaveformSpec,
                               _fra_grid_point, _ranged, _solve_2x2)
from tregsim.config import SCHEMA
from tregsim.devices import (Capacitor, CurrentSourceParams, CvSensor,
                             HeaterParams, ImpedanceSensor, Parallel, PhSensor,
                             Resistor, Series, i_ctat, i_ptat)
from tregsim.errors import ConfigurationError, DomainError
from tregsim.experiments import _fra_frequencies
from tregsim.madc import MadcConfig, channel_noise, convert, discharge_counts
from tregsim.pwm import duty_of_code
from tregsim.thermal import cycle_map


def small_array(rows=2, cols=2, seed=1, **kw):
    cfg = ArrayConfig(rows=rows, cols=cols, **kw)
    return TempArray(cfg, seed=seed)


def quiet_array(rows=1, cols=1, seed=1, noise=0.0, **kw):
    cfg = ArrayConfig(rows=rows, cols=cols,
                      madc=MadcConfig(conversion_noise_counts=noise),
                      sigma_vbe=0.0, sigma_r1=0.0, sigma_r2=0.0,
                      sigma_mirror=0.0, **kw)
    return TempArray(cfg, seed=seed)


# -- calibration -----------------------------------------------------------

def test_nominal_cell_calibrates_to_zero():
    arr = quiet_array()
    arr.calibrate_one_point()
    assert arr.cal_preload[0, 0] == 0


def test_r1_mismatch_restores_nominal_count():
    # +1 percent r1 lowers the input current, so the charge phase must be
    # extended: the stored preload is negative, and the calibrated count
    # returns to the nominal one within 1 LSB
    arr = quiet_array()
    arr.current_source.r1[0, 0] *= 1.01
    arr.calibrate_one_point(t_known=50.0)
    assert arr.cal_preload[0, 0] < 0
    arr.force_temperature(50.0)
    count = arr.read_counts()[0, 0]
    assert abs(count + 0.5 - arr.temp_map.counts_cont(50.0)) <= 1.0


def test_full_scale_must_exceed_largest_calibration_preload():
    # the largest preload of cal_range (-64, 64) is 63
    with pytest.raises(ConfigurationError, match="madc.n_bits"):
        TempArray(ArrayConfig(rows=1, cols=1, madc=MadcConfig(n_bits=5)))
    arr = TempArray(ArrayConfig(rows=1, cols=1, madc=MadcConfig(n_bits=6)))
    assert arr.cfg.madc.counter_max == 64


@pytest.mark.parametrize("sigmas", [(1e-3, 0.01, 0.01, 0.005), (0.0, 0.02, 0.0, 0.0)])
def test_mismatch_matches_four_scalar_draws_per_cell(sigmas):
    # each cell draws its mismatch on its own stream in the order vbe,
    # r1, r2, mirror ratio, as four scalar Generator.normal draws would;
    # a zero sigma gives +0.0, and the stream is left where they leave it
    cfg = ArrayConfig(rows=3, cols=2, sigma_vbe=sigmas[0], sigma_r1=sigmas[1],
                      sigma_r2=sigmas[2], sigma_mirror=sigmas[3])
    arr = TempArray(cfg, seed=11)
    cs = cfg.current_source
    for r, c in np.ndindex(3, 2):
        child = arr._cell_ss[r * 2 + c]
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=child.entropy, spawn_key=(*child.spawn_key, 0)))
        vbe, d1, d2, dm = (rng.normal(0.0, s) for s in sigmas)
        got = (arr.bjt.vbe_offset[r, c], arr.current_source.r1[r, c],
               arr.current_source.r2[r, c], arr.current_source.mirror_ratio[r, c])
        want = (vbe, cs.r1 * (1.0 + d1), cs.r2 * (1.0 + d2), cs.mirror_ratio * (1.0 + dm))
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert got == want
        assert arr._reg_rng[r][c].standard_normal() == rng.standard_normal()


def test_one_seed_sequence_builds_equal_arrays_without_spawning():
    # each cell's key is derived from the sequence without spawning from
    # it: two builds from one sequence are equal, equal to a build from
    # its integer seed, and leave the caller's sequence unspawned
    ss = np.random.SeedSequence(11)
    arrays = [TempArray(ArrayConfig(rows=3, cols=2), seed=s) for s in (ss, ss, 11)]
    assert ss.n_children_spawned == 0
    states = []
    for arr in arrays:
        cs = arr.current_source
        streams = [(arr._reg_rng[r][c].standard_normal(),
                    arr._meas_rng[r][c].standard_normal())
                   for r, c in np.ndindex(3, 2)]
        states.append((arr.bjt.vbe_offset.tolist(), cs.r1.tolist(), cs.r2.tolist(),
                       cs.mirror_ratio.tolist(), streams))
    assert states[0] == states[1] == states[2]


def test_calibration_failure_reported_when_out_of_range():
    arr = quiet_array()
    arr.current_source.r1[0, 0] *= 1.5
    failures = arr.calibrate_one_point()
    assert (0, 0) in failures
    assert not arr.cal_ok[0, 0]


def per_cell_calibration(arr, t_known, n_avg=8):
    """calibrate_one_point one cell at a time: per cell in row-major order,
    one channel_noise draw on its own stream and one discharge_counts
    call.  Returns the preloads, cal_ok and the failures."""
    madc = arr.cfg.madc
    target = arr.temp_map.counts_cont(t_known)
    cals = np.arange(*arr.cfg.cal_range)
    i_in, i_ref = arr.front_end_currents(t_known)
    preload = np.zeros(i_in.shape, dtype=int)
    ok = np.ones(i_in.shape, dtype=bool)
    failures = []
    for r, c in np.ndindex(i_in.shape):
        noise = channel_noise(madc, arr._reg_rng[r][c], (n_avg, cals.size))
        n2, _ = discharge_counts(madc, (madc.n1_counts - cals)[None, :],
                                 i_in[r, c], i_ref[r, c], noise)
        best = int(np.argmin(np.abs(n2.mean(axis=0) + 0.5 - target)))
        preload[r, c] = cals[best]
        ok[r, c] = 0 < best < cals.size - 1
        if not ok[r, c]:
            failures.append((r, c))
    return preload, ok, failures


@pytest.mark.parametrize("noise", [0.3, 0.0])
def test_calibration_matches_per_cell_reference(noise):
    # the batched calibration converts every cell at once; each cell
    # must still draw its block on its own stream, and the edge hits
    # come back in row-major order
    arr = small_array(rows=3, cols=2, seed=9, madc=MadcConfig(conversion_noise_counts=noise))
    assert arr.cfg.sigma_r1 > 0
    arr.current_source.r1[0, 1] *= 1.5      # needs a preload below the range
    arr.current_source.r1[2, 0] *= 0.7      # and one above it
    ref = copy.deepcopy(arr)
    failures = arr.calibrate_one_point()
    preload, ok, ref_failures = per_cell_calibration(ref, arr.cfg.cal_temperature)
    assert ref_failures == [(0, 1), (2, 0)]
    assert failures == ref_failures
    assert np.array_equal(arr.cal_preload, preload)
    assert np.array_equal(arr.cal_ok, ok)
    for r, c in np.ndindex(3, 2):
        assert arr._reg_rng[r][c].standard_normal() == ref._reg_rng[r][c].standard_normal()


@pytest.mark.parametrize("hd2", [0.01, 0.02])
def test_calibration_matches_converter_under_integrator_curvature(hd2):
    # calibration converts through the same converter as the readout, so
    # the integrator's second-order term is trimmed out with the gain
    cfg = ArrayConfig(rows=1, cols=1,
                      madc=MadcConfig(conversion_noise_counts=0.0, hd2_fraction=hd2),
                      sigma_vbe=0.0, sigma_r1=0.0, sigma_r2=0.0, sigma_mirror=0.0)
    arr = TempArray(cfg, seed=1)
    arr.calibrate_one_point(t_known=50.0)
    arr.force_temperature(50.0)
    count = arr.read_counts()[0, 0]
    assert abs(count + 0.5 - arr.temp_map.counts_cont(50.0)) <= 0.5


def test_channel_spread_after_calibration():
    arr = TempArray(ArrayConfig(), seed=42)
    arr.calibrate_one_point(t_known=50.0)
    arr.force_temperature(50.0)
    reads = arr.temp_map.read_temperature(arr.read_counts()).ravel()
    assert abs(reads.mean() - 50.0) <= 0.3
    assert reads.std() <= 0.25


# -- characterization --------------------------------------------------------

def test_characterize_monotone_and_accurate():
    arr = small_array(rows=3, cols=2, seed=5)
    arr.calibrate_one_point()
    res = arr.characterize_sensor(np.arange(20.0, 91.0, 5.0))
    assert np.all(np.diff(res.counts, axis=1) < 0)
    assert np.abs(res.die_mean_error).max() <= 0.5
    # the straight-line fit shows the curvature honestly
    assert res.fit_resid_celsius.max() > 1.0


def test_characterize_matches_per_cell_scalar_readout():
    # the array readout converts every cell and sweep point in one batch;
    # each cell must still see its own devices and its own noise stream,
    # drawn point by point as a scalar conversion loop would
    arr = small_array(rows=3, cols=2, seed=8)
    arr.calibrate_one_point()
    cfg = arr.cfg.madc
    assert cfg.conversion_noise_counts > 0 and arr.cfg.sigma_r1 > 0
    rngs = {cell.index: copy.deepcopy(arr._reg_rng[cell.index[0]][cell.index[1]])
            for cell in arr.iter_cells()}
    t_values = np.arange(20.0, 91.0, 7.0)
    n_avg = 4
    res = arr.characterize_sensor(t_values, n_avg=n_avg)

    expect = np.empty((6, t_values.size))
    for i, cell in enumerate(arr.iter_cells()):
        rng = rngs[cell.index]
        # this cell's realized devices as scalar parameter sets
        bjt = replace(arr.bjt, vbe_offset=arr.bjt.vbe_offset[cell.index])
        cs = replace(arr.current_source, r1=arr.current_source.r1[cell.index],
                     r2=arr.current_source.r2[cell.index],
                     mirror_ratio=arr.current_source.mirror_ratio[cell.index])
        for j, t_c in enumerate(t_values):
            t_k = t_c + 273.15
            noise = rng.normal(0.0, cfg.conversion_noise_counts, size=n_avg)
            n2, _ = discharge_counts(cfg, np.full(n_avg, cfg.n1_counts
                                                  - arr.cal_preload[cell.index]),
                                     i_ctat(cs, bjt, t_k), i_ptat(cs, t_k), noise)
            expect[i, j] = min(int(round(n2.mean())), cfg.counter_max)
    assert np.array_equal(res.counts, expect)
    assert np.all(arr.temp == t_values[-1])


def test_replaced_current_source_changes_readout():
    # the readout uses the array-held devices as they are at the call:
    # changing one cell's r1 moves that cell's count and no other
    arr = quiet_array(rows=2, cols=1)
    arr.force_temperature(50.0)
    before = arr.read_counts()
    arr.current_source.r1[0, 0] *= 1.05
    after = arr.read_counts()
    assert after[0, 0] < before[0, 0]
    assert after[1, 0] == before[1, 0]


# -- regulation ---------------------------------------------------------------

def test_regulation_at_ambient_settles_dark():
    # heater-only actuation cannot cool: the loop parks the duty at zero
    # with occasional minimum-width kicks, leaving a small warm bias
    arr = quiet_array(seed=3, noise=0.3)
    arr.calibrate_one_point()
    res = arr.run_regulation(25.0, 120.0)
    tail = res.t_true[-10:, 0, 0]
    assert tail.mean() - 25.0 <= 0.5
    assert np.abs(tail - 25.0).max() <= 0.85
    assert res.duty[-10:].mean() <= 0.02


def test_regulation_setpoint_domain():
    arr = quiet_array()
    with pytest.raises(DomainError):
        arr.run_regulation(95.0, 4.0)


def test_regulation_uniform_step_settles():
    arr = small_array(seed=11)
    arr.calibrate_one_point()
    res = arr.run_regulation(45.0, 60.0)
    err = res.t_true[-5:].mean(axis=0) - 45.0
    assert np.abs(err).max() <= 0.5
    assert not res.warnings


def test_persistent_saturation_warnings():
    # a weak heater cannot reach 90 and 85 degC: those cells stay
    # saturated and warn every 12 s, the first 4 s cycle past the 10 s
    # limit; two neighbours saturate later, and saturation carries on
    # into the next call.  Each cycle's warnings are in row-major order.
    arr = small_array(rows=2, cols=3, seed=3, heater=HeaterParams(p_max=0.1))
    arr.calibrate_one_point()
    sp = np.full((2, 3), 40.0)
    sp[0, 1], sp[1, 2] = 90.0, 85.0
    first = arr.run_regulation(sp, 60.0)
    assert first.warnings == [
        ((0, 1), 0.0, 12.0), ((1, 2), 0.0, 12.0),
        ((0, 1), 12.0, 24.0), ((1, 2), 12.0, 24.0),
        ((0, 1), 24.0, 36.0), ((1, 2), 24.0, 36.0),
        ((0, 2), 28.0, 40.0), ((1, 1), 28.0, 40.0),
        ((0, 1), 36.0, 48.0), ((1, 2), 36.0, 48.0),
        ((0, 2), 40.0, 52.0), ((1, 1), 40.0, 52.0),
    ]
    second = arr.run_regulation(40.0, 20.0)
    assert second.warnings == [((0, 0), 48.0, 60.0), ((1, 2), 48.0, 60.0)]
    for index, _, _ in first.warnings + second.warnings:
        assert all(type(i) is int for i in index)


def test_gradient_map_regulates_despite_coupling():
    # per-column targets 40..70 degC; lateral coupling loads the edges
    arr = TempArray(ArrayConfig(), seed=13)
    arr.calibrate_one_point()
    sp = np.tile(np.linspace(40.0, 70.0, arr.cfg.cols), (arr.cfg.rows, 1))
    arr.run_regulation(sp, 60.0)
    res = arr.run_regulation(sp, 32.0)
    err = res.t_true[-5:].mean(axis=0) - sp
    assert np.abs(err).max() <= 0.75


def test_small_step_overshoot_within_one_degree():
    arr = quiet_array(seed=31, noise=0.3)
    arr.calibrate_one_point()
    arr.run_regulation(45.0, 60.0)
    res = arr.run_regulation(50.0, 40.0)  # 5 degC step
    assert res.t_true[:, 0, 0].max() - 50.0 <= 1.0


def test_doubled_kp_still_stable():
    base = quiet_array(seed=31, noise=0.3)
    kp, ki, kd = (base.pid_coeffs.kp, base.pid_coeffs.ki, base.pid_coeffs.kd)
    arr = quiet_array(seed=31, noise=0.3, pid_gains=(2 * kp, ki, kd))
    arr.calibrate_one_point()
    arr.run_regulation(45.0, 80.0)
    res = arr.run_regulation(45.0, 40.0)
    tail = res.t_true[-10:, 0, 0] - 45.0
    assert np.abs(tail).max() <= 1.0  # converged, no sustained oscillation
    assert res.t_true.max() < 90.0


def test_pid_period_must_be_whole_thermal_steps():
    # 4.0005 s would run 4000 plant steps while the clock moved 4.0005 s
    with pytest.raises(ConfigurationError, match="thermal step"):
        small_array(pid_ts=4.0005)


def test_regulation_duration_must_be_whole_cycles():
    arr = quiet_array()
    with pytest.raises(ConfigurationError, match="PID period"):
        arr.run_regulation(45.0, 42.0)
    assert arr.run_regulation(45.0, 8.0).time.size == 2


def test_three_conversions_per_cycle_from_trace():
    arr = small_array(seed=9)
    arr.calibrate_one_point()
    res = arr.run_regulation(40.0, 20.0, trace_conversions=True)
    trace = res.conv_trace
    by_cell_cycle = {}
    for (cycle, r, c, slot, mag, preload, n_chg, n2, product) in trace:
        by_cell_cycle.setdefault((cycle, r, c), []).append(slot)
    n_cycles = int(20.0 / arr.cfg.pid_ts)
    assert len(by_cell_cycle) == n_cycles * 4
    for slots in by_cell_cycle.values():
        assert slots == [0, 1, 2]


def test_quantized_products_track_float_shadow():
    # the banked products, scaled back through the shared exponent, stay
    # within the documented rounding slack of the exact coefficient
    # products for the true count error
    arr = quiet_array(seed=21)
    arr.calibrate_one_point()
    res = arr.run_regulation(45.0, 40.0, trace_conversions=True)
    coeffs = arr.pid_coeffs
    tm = arr.temp_map
    scale = arr.cfg.madc.pid_charge_scale
    r_set = tm.counts_cont(45.0) / tm.cfg.n1_counts
    n_cycles = res.time.size
    for (cycle, r, c, slot, mag, preload, n_chg, n2, product) in res.conv_trace:
        if cycle >= n_cycles - 1:
            break
        t_cycle_start = res.t_true[cycle - 1, r, c] if cycle else arr.cfg.t_ambient
        t_k = t_cycle_start + 273.15
        ratio = (tm.counts_cont(t_cycle_start) / tm.cfg.n1_counts)
        exact = n_chg * ratio - (preload + 0.5)
        # product = floor-quantized measurement minus dithered preload
        assert abs(product - exact) <= 2.0


def test_determinism_same_seed_same_u():
    r1 = small_array(seed=7)
    r1.calibrate_one_point()
    a = r1.run_regulation(42.0, 20.0)
    r2 = small_array(seed=7)
    r2.calibrate_one_point()
    b = r2.run_regulation(42.0, 20.0)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.t_true, b.t_true)


def test_zero_lateral_coupling_matches_independent_cells():
    full = small_array(seed=19, g_lat=0.0)
    full.calibrate_one_point()
    res = full.run_regulation(48.0, 20.0)
    for r in range(2):
        for c in range(2):
            solo = full.single_cell_array(r, c)
            solo.calibrate_one_point()
            sres = solo.run_regulation(48.0, 20.0)
            assert np.array_equal(res.u[:, r, c], sres.u[:, 0, 0])
            assert np.array_equal(res.t_true[:, r, c], sres.t_true[:, 0, 0])


def scalar_regulation(arr, sp, duration):
    """run_regulation of a fresh array, one cell and one conversion at a time.

    Each cell runs the count-domain PID on Python scalars: sigma-delta
    preloads, one convert call and one noise draw per active slot, then
    its plain measurement conversion, all on its own stream.  Returns
    u, t_meas, t_true, duty, time, setpoint, warnings and the conversion
    trace.
    """
    cfg, madc, coeffs = arr.cfg, arr.cfg.madc, arr.pid_coeffs
    n1, scale = madc.n1_counts, madc.pid_charge_scale
    n_cycles = int(round(duration / cfg.pid_ts))
    cells = list(np.ndindex(sp.shape))
    cal = {rc: int(arr.cal_preload[rc]) for rc in cells}
    target, sd, bank, u_prev, since = {}, {}, {}, {}, {}
    for rc in cells:
        r_set = arr.temp_map.counts_cont(sp[rc]) / (n1 - cal[rc])
        target[rc] = [(round(m * n1 * scale) - round(m * cal[rc] * scale)) * r_set - 0.5
                      for m in coeffs.magnitudes]
        sd[rc], bank[rc], u_prev[rc], since[rc] = [0.0] * 3, [[0] * 3] * 3, 0, None
    a, b = cycle_map(sp.shape, cfg.c_th, cfg.g_lat, cfg.g_amb, cfg.thermal_dt,
                     int(round(cfg.pid_ts / cfg.thermal_dt)))
    temp, now = arr.temp.copy(), 0.0
    u, t_meas, t_true, duty, setpoint = (np.empty((n_cycles,) + sp.shape) for _ in range(5))
    time = np.empty(n_cycles)
    warnings, trace = [], []
    for k in range(n_cycles):
        i_in, i_ref = arr.front_end_currents(temp)
        powers = np.zeros(sp.shape)
        for rc in cells:
            rng = arr._reg_rng[rc[0]][rc[1]]
            products = [0, 0, 0]
            for n, mag in enumerate(coeffs.magnitudes):
                if coeffs.mantissas[n] == 0:
                    continue
                base = math.floor(target[rc][n])
                sd[rc][n] += target[rc][n] - base
                preload = base + (sd[rc][n] >= 1.0)
                sd[rc][n] -= sd[rc][n] >= 1.0
                conv = convert(madc, i_in[rc], i_ref[rc], mag,
                               round(mag * cal[rc] * scale), preload,
                               noise=channel_noise(madc, rng, ()),
                               n1_counts=madc.pid_n1_counts)
                trace.append((k, *rc, n, mag, preload, conv.n_charge,
                              conv.n_discharge, -conv.out_count))
                products[n] = max(-127, min(127, -conv.out_count))
            s0, s1, s2 = coeffs.signs
            inc = s0 * products[0] + s1 * bank[rc][0][1] + s2 * bank[rc][1][2]
            inc = (inc * 2 ** coeffs.exponent if coeffs.exponent >= 0
                   else math.floor(inc * 2.0 ** coeffs.exponent))
            raw = u_prev[rc] + inc
            u[k][rc] = u_prev[rc] = max(0, min(4095, raw))
            bank[rc] = [products, bank[rc][0], bank[rc][1]]
            duty[k][rc] = duty_of_code(cfg.pwm, u_prev[rc]) if u_prev[rc] > 0 else 0.0
            powers[rc] = duty[k][rc] * cfg.heater.p_max
            if u_prev[rc] != raw or any(abs(p) >= 127 for p in products):
                if since[rc] is None:
                    since[rc] = now
                elif now - since[rc] > 10.0:
                    warnings.append((rc, since[rc], now))
                    since[rc] = now
            else:
                since[rc] = None
            n2, _ = discharge_counts(madc, n1 - cal[rc], i_in[rc], i_ref[rc],
                                     channel_noise(madc, rng, ()))
            t_meas[k][rc] = arr.temp_map.read_temperature(min(round(n2), madc.counter_max))
        rise = a @ (temp - cfg.t_ambient).ravel() + b @ powers.ravel()
        temp = cfg.t_ambient + rise.reshape(temp.shape)
        now += cfg.pid_ts
        t_true[k], time[k], setpoint[k] = temp, now, sp
    return u, t_meas, t_true, duty, time, setpoint, warnings, trace


def test_regulation_matches_per_cell_scalar_loop():
    # the loop converts every cell of a slot in one call and runs one
    # array-valued PID cycle; it must match a per-cell scalar loop under
    # mismatch and noise, with a zero tap (kd = 0) and a saturating cell
    base = small_array(rows=3, cols=2, seed=6)
    gains = (base.pid_coeffs.kp, base.pid_coeffs.ki, 0.0)
    arr = small_array(rows=3, cols=2, seed=6, pid_gains=gains,
                      heater=HeaterParams(p_max=0.1))
    assert arr.pid_coeffs.mantissas[2] == 0 and 0 not in arr.pid_coeffs.mantissas[:2]
    assert arr.cfg.madc.conversion_noise_counts > 0 and arr.cfg.sigma_r1 > 0
    arr.calibrate_one_point()
    sp = np.full((3, 2), 40.0)
    sp[1, 0] = 90.0
    ref = copy.deepcopy(arr)
    res = arr.run_regulation(sp, 48.0, trace_conversions=True)
    u, t_meas, t_true, duty, time, setpoint, warnings, trace = scalar_regulation(ref, sp, 48.0)
    assert np.array_equal(res.u, u)
    assert np.array_equal(res.t_meas, t_meas)
    assert np.array_equal(res.t_true, t_true)
    assert np.array_equal(res.duty, duty)
    assert np.array_equal(res.time, time)
    assert np.array_equal(res.setpoint, setpoint)
    assert res.warnings == warnings and len(warnings) >= 2
    assert len(res.conv_trace) == 12 * 6 * 2
    assert np.array_equal(res.conv_trace, trace)


def test_null_controller_still_measures_every_cycle():
    # with no active tap a cycle's batch is the plain measurement alone
    arr = quiet_array(seed=3, pid_gains=(0.0, 0.0, 0.0))
    assert arr.pid_coeffs.mantissas == (0, 0, 0)
    arr.calibrate_one_point()
    res = arr.run_regulation(40.0, 20.0, trace_conversions=True)
    assert np.all(res.u == 0) and res.conv_trace == []
    assert np.all(np.abs(res.t_meas - 25.0) <= 0.5)


def test_measurement_does_not_perturb_regulation():
    a1 = quiet_array(seed=23)
    a1.calibrate_one_point()
    first = a1.run_regulation(40.0, 20.0)
    a1.set_mode((0, 0), Mode.CPA, PhSensor())
    a1.run_cpa((0, 0), WaveformSpec(kind="constant", v_low=0.3), 0.5)
    a1.set_mode((0, 0), Mode.TEMP_REG)
    second = a1.run_regulation(40.0, 20.0)

    b = quiet_array(seed=23)
    b.calibrate_one_point()
    b.run_regulation(40.0, 20.0)
    second_ref = b.run_regulation(40.0, 20.0)
    assert np.array_equal(second.u, second_ref.u)


def test_mode_switch_preserves_calibration_and_loop_state():
    arr = quiet_array(seed=4, noise=0.3)
    arr.calibrate_one_point()
    arr.run_regulation(40.0, 20.0)
    state = arr.pid_state
    cal, u, bank = arr.cal_preload[0, 0], state.u_prev.copy(), state.bank.copy()
    arr.set_mode((0, 0), Mode.CPA, PhSensor())
    arr.set_mode((0, 0), Mode.TEMP_REG)
    assert arr.cal_preload[0, 0] == cal
    assert np.array_equal(arr.pid_state.u_prev, u)
    assert np.array_equal(arr.pid_state.bank, bank)


def test_thermal_field_csv_format():
    from tregsim.thermal import field_csv_rows
    rows = field_csv_rows(np.array([[25.0, 30.123456789], [40.5, 55.0]]))
    assert rows == ["25.000000,30.123457", "40.500000,55.000000"]


def test_mode_model_mismatch_rejected():
    arr = quiet_array()
    with pytest.raises(ConfigurationError):
        arr.set_mode((0, 0), Mode.CPA, CvSensor(lambda v, t: 0.0))
    with pytest.raises(ConfigurationError):
        arr.set_mode((0, 0), Mode.IS, PhSensor())
    arr.set_mode((0, 0), Mode.CPA, PhSensor())
    with pytest.raises(ConfigurationError):
        arr.run_cv((0, 0), WaveformSpec(kind="ramp_cyclic", v_low=-0.7,
                                        v_high=0.0, scan_rate=0.1))


# -- measurement modes --------------------------------------------------------

def test_cpa_ph_step_response():
    arr = quiet_array(seed=2)
    sensor = PhSensor()
    arr.set_mode((0, 0), Mode.CPA, sensor)
    arr.force_temperature(25.0)
    wave = WaveformSpec(kind="constant", v_low=0.3)
    sensor.ph = 7.0
    _, counts0, _ = arr.run_cpa((0, 0), wave, 0.2)
    assert np.all(counts0 == 0)
    sensor.ph = 8.0
    _, _, i_est = arr.run_cpa((0, 0), wave, 0.2)
    assert np.mean(i_est) == pytest.approx(1.8e-9, rel=0.02)


def test_cv_ohmic_line_within_one_lsb():
    arr = quiet_array(seed=2)
    r_test = 1e6
    arr.set_mode((0, 0), Mode.CV, CvSensor(lambda v, t: v / r_test))
    wave = WaveformSpec(kind="ramp_cyclic", v_low=-0.7, v_high=0.0,
                        scan_rate=0.1, cycles=1)
    v, i_est = arr.run_cv((0, 0), wave)
    i_ref = 1.25 * np.abs(v / r_test).max()
    lsb = i_ref / arr.cfg.madc.n1_counts
    assert np.abs(i_est - v / r_test).max() <= lsb * (1 + 1e-9)


def test_cv_network_time_stepping():
    arr = quiet_array(seed=2)
    net = Series((Resistor(1e6), Capacitor(1e-3)))  # slow RC, nearly ohmic
    arr.set_mode((0, 0), Mode.CV, ImpedanceSensor(net))
    wave = WaveformSpec(kind="ramp_cyclic", v_low=-0.2, v_high=0.0,
                        scan_rate=0.1, cycles=1)
    v, i_est = arr.run_cv((0, 0), wave)
    assert np.isfinite(i_est).all()


def test_is_pure_resistor():
    arr = quiet_array(seed=2)
    arr.set_mode((0, 0), Mode.IS, ImpedanceSensor(Series((Resistor(4.7e5),))))
    for res in arr.run_is((0, 0), [1.0, 100.0, 5000.0]):
        assert res.z_real == pytest.approx(4.7e5, rel=0.02)
        assert abs(res.z_imag) <= 0.02 * 4.7e5


def test_is_series_rc_against_analytic():
    arr = quiet_array(seed=2)
    net = Series((Resistor(100e3), Capacitor(1e-6)))
    arr.set_mode((0, 0), Mode.IS, ImpedanceSensor(net))
    for res in arr.run_is((0, 0), [0.1, 1.59, 40.0, 2000.0]):
        z_ref = net.impedance(res.freq)
        z_est = complex(res.z_real, res.z_imag)
        assert abs(abs(z_est) - abs(z_ref)) / abs(z_ref) <= 0.02
        rot = z_est * z_ref.conjugate()
        assert abs(math.degrees(math.atan2(rot.imag, rot.real))) <= 2.0


def test_is_frequency_domain_checked():
    arr = quiet_array(seed=2)
    arr.set_mode((0, 0), Mode.IS, ImpedanceSensor(Series((Resistor(1e5),))))
    with pytest.raises(DomainError):
        arr.run_is((0, 0), [0.01])
    with pytest.raises(ConfigurationError):
        arr.run_is((0, 0), [10.0], n_periods=1.5)


def test_is_noise_variance_halves_with_periods():
    # doubling the integration periods halves the variance of the
    # impedance estimate under front-end noise
    net = Series((Resistor(2e5),))
    var = {}
    for n_per in (2, 4):
        vals = []
        for seed in range(10):
            arr = quiet_array(seed=seed)
            arr.set_mode((0, 0), Mode.IS, ImpedanceSensor(net))
            res = arr.run_is((0, 0), [50.0], n_periods=n_per,
                             noise_rms=3e-9)[0]
            vals.append(res.z_real)
        var[n_per] = np.var(vals)
    ratio = var[2] / var[4]
    assert 1.2 <= ratio <= 3.5


def per_sample_fra_point(arr, cell, f_req, n_periods, amplitude, rng, noise_rms):
    """Reference FRA point: digitizes every sample of both windows."""
    cfg = arr.cfg.madc
    f_conv = cfg.conversion_rate
    if f_req <= f_conv / 8.0:
        m = int(round(f_conv / f_req))
        cycles_per_window = 1
    else:
        m = 64
        cycles_per_window = max(1, int(round(f_req * m / f_conv)))
        while math.gcd(cycles_per_window, m) != 1:
            cycles_per_window += 1
    f_act = cycles_per_window * f_conv / m
    cell.sensor.prepare_sinusoid(f_act, amplitude)
    i_ref = max(cell.sensor._i_mag, 1e-15) * cfg.n1_counts / 380.0
    run_cfg = replace(cfg, c_int=max(cfg.c_int,
                                     1.2 * i_ref * cfg.n1_counts / cfg.f_clk / cfg.v_full))
    w = m * n_periods
    dt_conv = cfg.slot_clocks / cfg.f_clk
    sums = []
    mats = []
    for widx, table_fn in enumerate((np.sin, np.cos)):
        t_k = (widx * w + np.arange(w)) * dt_conv
        theta = 2.0 * math.pi * f_act * t_k
        table = np.round(table_fn(theta) * 128) / 128.0
        live = table != 0.0
        i_t = cell.sensor._i_mag * np.sin(theta + cell.sensor._i_phase)
        if noise_rms:
            i_t = i_t + noise_rms * rng.standard_normal(w)
        counts = np.zeros(w)
        scaled = np.abs(table[live]) * cfg.n1_counts
        n2, _ = discharge_counts(run_cfg, np.round(scaled), np.abs(i_t[live]), i_ref,
                                 channel_noise(run_cfg, rng, scaled.shape))
        counts[live] = np.sign(table[live]) * np.sign(i_t[live]) * n2
        sums.append(counts.sum() * i_ref / cfg.n1_counts)
        mats.append((np.dot(table, np.sin(theta)), np.dot(table, np.cos(theta))))
    sol = np.linalg.solve(np.array(mats), np.array(sums))
    i_phasor = complex(sol[0], sol[1])
    return f_act, amplitude * i_phasor.conjugate() / abs(i_phasor) ** 2


def default_fra_grid():
    return _fra_frequencies(copy.deepcopy(SCHEMA))


@pytest.mark.parametrize("noise, noise_rms, rel", [
    (0.0, None, 1e-12),
    (0.3, 3e-9, 1e-9),
])
def test_is_one_period_fold_matches_per_sample(noise, noise_rms, rel):
    # low frequencies snap to one sine cycle per period, high ones to
    # several cycles in 64 conversions; both must match the per-sample
    # computation and consume each stream exactly as it did.  The
    # default grid's ends are included: 0.1 Hz (m = 48828), its last
    # one-cycle point below f_conv / 8, and 10 kHz.
    grid = default_fra_grid()
    last_one_cycle = grid[grid <= MadcConfig().conversion_rate / 8.0][-1]
    freqs = [grid[0], 1.59, 50.0, last_one_cycle, 2000.0, 7000.0, grid[-1]]
    arr = quiet_array(seed=5, noise=noise)
    arr.set_mode((0, 0), Mode.IS, ImpedanceSensor(Series((Resistor(100e3),
                                                          Capacitor(1e-6)))))
    cell = arr.cells[0][0]
    start = arr._meas_rng[0][0]
    ref_rng = copy.deepcopy(start)
    arr._meas_rng[0][0] = copy.deepcopy(start)
    results = arr.run_is((0, 0), freqs, noise_rms=noise_rms)
    for f_req, res in zip(freqs, results):
        f_act, z_ref = per_sample_fra_point(arr, cell, f_req, 4, 0.01, ref_rng,
                                            noise_rms)
        assert res.freq == f_act
        assert abs(complex(res.z_real, res.z_imag) - z_ref) <= rel * abs(z_ref)
    assert arr._meas_rng[0][0].standard_normal() == ref_rng.standard_normal()


def test_is_closed_form_solve_matches_linalg():
    # the 2x2 systems of the default sweep, one per (network, grid point),
    # on its 39 projection matrices: the 13 points with m = 64 share one
    nets = [Series((Resistor(100e3), Capacitor(1e-6))),
            Series((Parallel((Resistor(1e6), Capacitor(10e-9))),))]
    arr = quiet_array()
    cell = arr.cells[0][0]
    mats, sums = [], []
    for f in default_fra_grid():
        for net in nets:
            arr.set_mode((0, 0), Mode.IS, ImpedanceSensor(net))
            _, mat, rhs = arr._fra_point(cell, float(f), 4, 0.01, None, None)
            mats.append(mat)
            sums.append(rhs)
    assert len({tuple(map(tuple, mat)) for mat in mats}) == 39
    want = np.linalg.solve(np.array(mats), np.array(sums)[..., None])[..., 0]
    got = np.array([_solve_2x2(mat, rhs) for mat, rhs in zip(mats, sums)])
    err = np.linalg.norm(got - want, axis=-1)
    assert (err <= 1e-13 * np.linalg.norm(want, axis=-1)).all()


def test_is_half_cycle_tables_match_direct_evaluation():
    # every default grid point: the charge and sign tables equal those
    # rounded from a direct full-period evaluation, and the basis agrees
    # with it within a few ulp.  The identities that complete the cycle
    # hold bit for bit in conversion order: the antiperiod for even m
    # (m = 64 with an odd cycle count included), the mirror for odd m.
    arr = quiet_array()
    cfg = arr.cfg.madc
    bits = lambda a: a.view(np.int64)
    for f in default_fra_grid():
        m, c = _fra_grid_point(cfg, float(f))
        tables = arr._fra_tables(m, c)
        theta = 2 * np.pi * ((c * np.arange(m)) % m) / m
        direct = np.stack((np.sin(theta), np.cos(theta)))
        q = np.round(direct * 128)
        assert np.array_equal(tables.sign, np.sign(q))
        assert np.array_equal(tables.charge, np.round(np.abs(q) * cfg.n1_counts / 128))
        # a direct phase near 2*pi carries that angle's rounding
        np.testing.assert_allclose(tables.basis, direct, rtol=0,
                                   atol=4 * np.spacing(2 * np.pi))
        if m % 2 == 0:
            h = m // 2
            assert np.array_equal(bits(tables.basis[:, h:]), bits(-tables.basis[:, :h]))
            assert np.array_equal(tables.charge[:, h:], tables.charge[:, :h])
            assert np.array_equal(tables.sign[:, h:], -tables.sign[:, :h])
        else:
            # conversion m - j mirrors conversion j, for j = 1 .. m - 1
            mirror = m - np.arange(1, m)
            basis, charge, sign = (t[:, 1:] for t in (tables.basis, tables.charge, tables.sign))
            assert np.array_equal(bits(tables.basis[0, mirror]), bits(-basis[0]))
            assert np.array_equal(bits(tables.basis[1, mirror]), bits(basis[1]))
            assert np.array_equal(tables.charge[:, mirror], charge)
            assert np.array_equal(tables.sign[:, mirror], sign * [[-1], [1]])


@pytest.mark.parametrize("net", [
    Series((Resistor(100e3), Capacitor(1e-6))),
    Series((Parallel((Resistor(1e6), Capacitor(10e-9))),)),
])
def test_is_folded_sums_equal_full_period_conversion(net):
    # a noiseless even period converts only its first half; its sums must
    # equal, exactly, one discharge_counts call over the whole period on
    # the same tables through the ranged config
    arr = quiet_array()
    cfg = arr.cfg.madc
    cell = arr.cells[0][0]
    arr.set_mode((0, 0), Mode.IS, ImpedanceSensor(net))
    for f in default_fra_grid():
        _, _, sums = arr._fra_point(cell, float(f), 4, 0.01, None, None)
        tables = arr._fra_tables(*_fra_grid_point(cfg, float(f)))
        i_ref = max(cell.sensor._i_mag, 1e-15) * cfg.n1_counts / 380.0
        i_t = cell.sensor.response(*tables.basis)
        n2, _ = discharge_counts(_ranged(cfg, i_ref), tables.charge, np.abs(i_t), i_ref)
        totals = (np.sign(i_t) * n2 * tables.sign).sum(axis=1).tolist()
        assert sums == [t * 4 * i_ref / cfg.n1_counts for t in totals]


@pytest.mark.parametrize("f_req, m", [(50.0, 98), (2000.0, 64)])
@pytest.mark.parametrize("noise, noise_rms", [(0.0, None), (0.3, None), (0.0, 3e-9)])
def test_is_noise_turns_the_fold_off(monkeypatch, f_req, m, noise, noise_rms):
    # any noise converts, and draws for, every sample of every period
    sizes = []

    def spy(*args, **kwargs):
        n2, clipped = discharge_counts(*args, **kwargs)
        sizes.append(n2.size)
        return n2, clipped

    monkeypatch.setattr(array_sim, "discharge_counts", spy)
    arr = quiet_array(noise=noise)
    arr.set_mode((0, 0), Mode.IS, ImpedanceSensor(Series((Resistor(100e3),))))
    ref = copy.deepcopy(arr._meas_rng[0][0])
    arr.run_is((0, 0), [f_req], n_periods=4, noise_rms=noise_rms)
    noisy = noise or noise_rms
    assert sizes == [2 * 4 * m if noisy else m]
    live = np.count_nonzero(arr._fra_memo[1].sign)
    ref.standard_normal(2 * 4 * m if noise_rms else 4 * live if noise else 0)
    assert arr._meas_rng[0][0].standard_normal() == ref.standard_normal()


def test_is_period_bound():
    # the longest period passes; one conversion more is rejected before
    # any table is built, naming the keys that set it
    cfg = MadcConfig()
    f_longest = cfg.conversion_rate / MAX_FRA_PERIOD
    assert _fra_grid_point(cfg, f_longest) == (MAX_FRA_PERIOD, 1)
    with pytest.raises(ConfigurationError) as err:
        _fra_grid_point(cfg, cfg.conversion_rate / (MAX_FRA_PERIOD + 1))
    for key in ("madc.f_clk", "madc.n_bits", "is_mode.f_lo"):
        assert key in str(err.value)


@pytest.mark.parametrize("f_a, f_b, hit", [
    (50.0, 50.0, True),
    # both snap to m = 64, with 27 and 67 cycles: a memo keyed by m alone
    # would hand the second point the first one's tables
    (2000.0, 5000.0, False),
])
def test_is_table_memo_hit_matches_fresh_build(f_a, f_b, hit):
    # array x measures network A on cell (0, 0) at f_a, then network B on
    # cell (0, 1) at f_b; array y, on the same seed, measures only the
    # latter.  B's result and cell (0, 1)'s stream must not depend on
    # which tables were kept from A's point.
    net_a = Series((Resistor(100e3), Capacitor(1e-6)))
    net_b = Series((Parallel((Resistor(1e6), Capacitor(10e-9))),))
    x = quiet_array(cols=2, seed=4, noise=0.3)
    y = quiet_array(cols=2, seed=4, noise=0.3)
    x.set_mode((0, 0), Mode.IS, ImpedanceSensor(net_a))
    x.run_is((0, 0), [f_a], noise_rms=3e-9)
    kept = x._fra_memo[1]
    results = []
    for arr in (x, y):
        arr.set_mode((0, 1), Mode.IS, ImpedanceSensor(net_b))
        results.append(arr.run_is((0, 1), [f_b], noise_rms=3e-9))
    assert (x._fra_memo[1] is kept) is hit
    assert results[0] == results[1]
    assert x._meas_rng[0][1].standard_normal() == y._meas_rng[0][1].standard_normal()


def test_waveform_validation():
    with pytest.raises(ConfigurationError):
        WaveformSpec(kind="ramp_cyclic", v_low=0.5, v_high=0.0, scan_rate=0.1)
    with pytest.raises(ConfigurationError):
        WaveformSpec(kind="sinusoid")
    with pytest.raises(ConfigurationError):
        WaveformSpec(kind="sawtooth")
