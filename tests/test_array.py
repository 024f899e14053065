import math
from dataclasses import replace

import numpy as np
import pytest

from tregsim.array_sim import ArrayConfig, Mode, TempArray, WaveformSpec
from tregsim.devices import (Capacitor, CurrentSourceParams, CvSensor,
                             ImpedanceSensor, Parallel, PhSensor, Resistor,
                             Series)
from tregsim.errors import ConfigurationError, DomainError
from tregsim.madc import MadcConfig


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
    assert arr.cell(0, 0).cal_preload == 0


def test_r1_mismatch_restores_nominal_count():
    # +1 percent r1 lowers the input current, so the charge phase must be
    # extended: the stored preload is negative, and the calibrated count
    # returns to the nominal one within 1 LSB
    arr = quiet_array()
    cell = arr.cell(0, 0)
    cell.current_source = replace(cell.current_source,
                                  r1=cell.current_source.r1 * 1.01)
    arr.calibrate_one_point(t_known=50.0)
    assert cell.cal_preload < 0
    arr.force_temperature(50.0)
    count = arr._measure_count(cell)
    assert abs(count + 0.5 - arr.temp_map.counts_cont(50.0)) <= 1.0


def test_calibration_failure_reported_when_out_of_range():
    arr = quiet_array()
    cell = arr.cell(0, 0)
    cell.current_source = replace(cell.current_source,
                                  r1=cell.current_source.r1 * 1.5)
    failures = arr.calibrate_one_point()
    assert (0, 0) in failures
    assert not cell.cal_ok


def test_channel_spread_after_calibration():
    arr = TempArray(ArrayConfig(), seed=42)
    arr.calibrate_one_point(t_known=50.0)
    arr.force_temperature(50.0)
    reads = np.array([float(arr.temp_map.read_temperature(arr._measure_count(c)))
                      for c in arr.iter_cells()])
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
    cell = arr.cell(0, 0)
    cal, u, bank = cell.cal_preload, cell.pid_state.u_prev, [list(b) for b in cell.pid_state.bank]
    arr.set_mode((0, 0), Mode.CPA, PhSensor())
    arr.set_mode((0, 0), Mode.TEMP_REG)
    assert cell.cal_preload == cal
    assert cell.pid_state.u_prev == u
    assert [list(b) for b in cell.pid_state.bank] == bank


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


def test_waveform_validation():
    with pytest.raises(ConfigurationError):
        WaveformSpec(kind="ramp_cyclic", v_low=0.5, v_high=0.0, scan_rate=0.1)
    with pytest.raises(ConfigurationError):
        WaveformSpec(kind="sinusoid", freq=0.01)
    with pytest.raises(ConfigurationError):
        WaveformSpec(kind="sawtooth")
