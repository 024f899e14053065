"""Named experiments: each maps one measured characteristic of the system
onto CSV outputs plus machine-checkable pass/fail summaries."""

import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

from .array_sim import ArrayConfig, Mode, TempArray, WaveformSpec
from .devices import (BjtParams, Capacitor, CurrentSourceParams, CvSensor,
                      HeaterParams, ImpedanceSensor, Parallel, PhSensor,
                      Resistor, Series, gaussian_peak_response)
from .errors import ConfigurationError
from .madc import MadcConfig, MadcConversion, convert, snr_test
from .pid import (PidCoefficients, quantization_deviation_bound,
                  transfer_function_response, velocity_response)
from .pwm import PwmConfig, duty_of_code, pulse_train, sample_tap_delays
from .thermal import field_csv_rows as thermal_field_rows


@dataclass
class CheckResult:
    name: str
    value: float
    bound: str
    passed: bool


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def check_le(name, value, bound):
    return CheckResult(name, value, f"<= {bound}", bool(value <= bound))


def check_ge(name, value, bound):
    return CheckResult(name, value, f">= {bound}", bool(value >= bound))


def check_in(name, value, lo, hi):
    return CheckResult(name, value, f"in [{lo}, {hi}]", bool(lo <= value <= hi))


def check_true(name, flag):
    return CheckResult(name, 1.0 if flag else 0.0, "== 1", bool(flag))


def build_array(settings, seed=None, conversion_noise=None):
    """Assemble an ArrayConfig / TempArray from validated settings."""
    dev = settings["devices"]
    mm = settings["mismatch"]
    th = settings["thermal"]
    md = settings["madc"]
    pw = settings["pwm"]
    ar = settings["array"]
    noise = md["conversion_noise_counts"] if conversion_noise is None else conversion_noise
    cfg = ArrayConfig(
        rows=int(ar["rows"]),
        cols=int(ar["cols"]),
        t_ambient=ar["t_ambient"],
        bjt=BjtParams(vg0=dev["vg0"], n_proc=dev["n_proc"], t_ref=dev["t_ref"],
                      vbe_at_tref=dev["vbe_at_tref"],
                      mismatch_sigma_vbe=mm["sigma_vbe"]),
        current_source=CurrentSourceParams(
            r1=dev["r1"], r2=dev["r2"], mirror_ratio=dev["mirror_ratio"],
            bias_current_ratio=dev["bias_current_ratio"], alpha=dev["alpha"]),
        heater=HeaterParams(p_max=dev["p_max"]),
        madc=MadcConfig(n_bits=int(md["n_bits"]), f_clk=md["f_clk"],
                        c_int=md["c_int"], v_full=md["v_full"],
                        pid_charge_scale=int(md["pid_charge_scale"]),
                        conversion_noise_counts=noise),
        pwm=PwmConfig(duty_min=pw["duty_min"], duty_max=pw["duty_max"],
                      tap_mismatch_sigma=pw["tap_mismatch_sigma"]),
        c_th=th["c_th"], g_amb=th["g_amb"], g_lat=th["g_lat"],
        thermal_dt=th["dt"],
        pid_ts=settings["pid"]["ts"],
        pid_gains=(None if settings["pid"]["kp"] is None else
                   (settings["pid"]["kp"], settings["pid"]["ki"] or 0.0,
                    settings["pid"]["kd"] or 0.0)),
        sigma_vbe=mm["sigma_vbe"], sigma_r1=mm["sigma_r1"],
        sigma_r2=mm["sigma_r2"], sigma_mirror=mm["sigma_mirror"],
    )
    seed = settings["experiment"]["seed"] if seed is None else seed
    return TempArray(cfg, seed=seed)


# --------------------------------------------------------------------------
# sensing characterization

def exp_characterize_sensor(settings, outdir):
    """Single-die transfer sweep: counts vs temperature, map errors, line fit."""
    ch = settings["characterize"]
    t_values = np.arange(ch["t_lo"], ch["t_hi"] + ch["t_step"] / 2, ch["t_step"])
    array = build_array(settings)
    array.calibrate_one_point()
    res = array.characterize_sensor(t_values)

    rows = []
    for i, cell in enumerate(array.iter_cells()):
        for j, t in enumerate(t_values):
            rows.append((i, cell.index[0], cell.index[1], t, int(res.counts[i, j]),
                         res.t_read[i, j], res.map_error[i, j]))
    write_csv(os.path.join(outdir, "transfer.csv"),
              ["cell", "row", "col", "t_true_c", "count", "t_read_c", "error_c"], rows)
    write_csv(os.path.join(outdir, "linear_fit.csv"),
              ["cell", "slope_counts_per_c", "intercept_counts",
               "max_resid_counts", "max_resid_c"],
              [(i, res.fit_slope[i], res.fit_intercept[i], res.fit_resid_counts[i],
                res.fit_resid_celsius[i]) for i in range(res.counts.shape[0])])

    mono = bool(np.all(np.diff(res.counts, axis=1) < 0))
    checks = [
        check_true("counts_monotone_decreasing_all_cells", mono),
        check_le("die_mean_abs_error_c", float(np.abs(res.die_mean_error).max()), 0.5),
    ]
    return checks


def exp_die_error_sweep(settings, outdir):
    """Seven fresh-mismatch dies, one-point calibrated, swept 20-90 degC."""
    ch = settings["characterize"]
    t_values = np.arange(ch["t_lo"], ch["t_hi"] + ch["t_step"] / 2, ch["t_step"])
    seed = settings["experiment"]["seed"]
    die_seeds = np.random.SeedSequence(seed).spawn(int(ch["n_dies"]))
    rows = []
    checks = []
    for d, dseed in enumerate(die_seeds):
        array = build_array(settings, seed=dseed)
        failures = array.calibrate_one_point()
        res = array.characterize_sensor(t_values)
        for j, t in enumerate(t_values):
            rows.append((d, t, res.die_mean_error[j]))
        checks.append(check_le(f"die{d}_max_abs_error_c",
                               float(np.abs(res.die_mean_error).max()), 0.5))
        checks.append(check_true(f"die{d}_all_cells_calibrated", not failures))
    write_csv(os.path.join(outdir, "die_errors.csv"),
              ["die", "t_true_c", "mean_error_c"], rows)
    return checks


def exp_channel_spread(settings, outdir):
    """54 calibrated channels forced to one temperature, over several seeds."""
    sp = settings["spread"]
    t_force = sp["t_force"]
    seeds = np.random.SeedSequence(settings["experiment"]["seed"]).spawn(int(sp["n_seeds"]))
    rows = []
    checks = []
    for s, sseed in enumerate(seeds):
        array = build_array(settings, seed=sseed)
        array.calibrate_one_point(t_known=t_force)
        array.force_temperature(t_force)
        reads = np.array([float(array.temp_map.read_temperature(
            array._measure_count(cell))) for cell in array.iter_cells()])
        for i, t in enumerate(reads):
            rows.append((s, i, t))
        checks.append(check_in(f"seed{s}_mean_c", float(reads.mean()),
                               t_force - 0.3, t_force + 0.3))
        checks.append(check_le(f"seed{s}_sigma_c", float(reads.std()), 0.25))
    write_csv(os.path.join(outdir, "channel_spread.csv"),
              ["seed", "cell", "t_read_c"], rows)
    return checks


# --------------------------------------------------------------------------
# PWM

def exp_pwm_sweep(settings, outdir):
    """Full 4096-code duty transfer, nominal and with seeded tap mismatch."""
    pw = settings["pwm"]
    cfg = PwmConfig(duty_min=pw["duty_min"], duty_max=pw["duty_max"],
                    tap_mismatch_sigma=pw["tap_mismatch_sigma"])
    codes = np.arange(cfg.codes)
    nominal = duty_of_code(cfg, codes)
    rng = np.random.default_rng(settings["experiment"]["seed"])
    taps = sample_tap_delays(cfg, rng)
    mismatched = duty_of_code(cfg, codes, taps)
    write_csv(os.path.join(outdir, "pwm_transfer.csv"),
              ["code", "duty_nominal", "duty_mismatch"],
              list(zip(codes.tolist(), nominal, mismatched)))

    in_band = (codes / cfg.codes >= cfg.duty_min) & (codes / cfg.codes <= cfg.duty_max)
    lin_err = np.abs(nominal[in_band] - codes[in_band] / cfg.codes)
    mis_err = np.abs(mismatched - nominal)
    train_lo = pulse_train(cfg, 2048, cfg.period)
    train_hi = pulse_train(cfg, 2049, cfg.period)
    step = (train_hi[0, 1] - train_hi[0, 0]) - (train_lo[0, 1] - train_lo[0, 0])
    checks = [
        check_le("nominal_linearity_error_lsb", float(lin_err.max() * cfg.codes), 1.0),
        check_true("all_codes_swept", nominal.size == cfg.codes),
        CheckResult("min_high_time_step_s", step, "== 1e-07",
                    bool(abs(step - cfg.cell_time) < 1e-12)),
        check_le("duty_at_code0", float(duty_of_code(cfg, 0)), cfg.duty_min),
        check_ge("duty_at_full_code", float(duty_of_code(cfg, cfg.codes - 1)),
                 cfg.duty_max),
        check_le("mismatch_max_error_frac", float(mis_err.max()), 0.0082),
    ]
    return checks


# --------------------------------------------------------------------------
# regulation

def plateau_metrics(time, t_mean, setpoint, ts):
    """Per-plateau rise/settle metrics on the array temperature trace.

    rise5 is the time from crossing (setpoint - 5) to the final entry
    into the +-0.75 band; steady-state error is the mean error over the
    last quarter of the plateau.
    """
    metrics = []
    for sp in dict.fromkeys(setpoint.tolist()):
        seg = setpoint == sp
        tt = time[seg] - time[seg][0] + ts
        T = t_mean[seg]
        err = T - sp
        bad = np.where(np.abs(err) > 0.75)[0]
        t_settle = tt[bad[-1]] + ts if bad.size else tt[0]
        idx5 = np.where(T >= sp - 5.0)[0]
        t5 = tt[idx5[0]] if idx5.size else math.inf
        ss = err[int(err.size * 0.75):]
        post = err[tt >= min(t_settle, tt[-1])]
        metrics.append({
            "setpoint": sp,
            "rise5_s": float(t_settle - t5),
            "ss_error_c": float(ss.mean()),
            "inst_error_c": float(np.abs(post).max()) if post.size else math.nan,
            "overshoot_c": float(err.max()),
            "settled": bool(t_settle < tt[-1]),
        })
    return metrics


def exp_regulation_steps(settings, outdir):
    """Closed-loop setpoint schedule on the fitted plant."""
    reg = settings["regulation"]
    trace_on = bool(reg["trace_conversions"])
    array = build_array(settings)
    array.calibrate_one_point()
    results = []
    for sp in reg["setpoints"]:
        results.append(array.run_regulation(sp, reg["plateau_s"],
                                            trace_conversions=trace_on))
    time = np.concatenate([r.time for r in results])
    spt = np.concatenate([r.setpoint[:, 0, 0] for r in results])
    t_true = np.concatenate([r.t_true for r in results])
    t_meas = np.concatenate([r.t_meas for r in results])
    u = np.concatenate([r.u for r in results])
    mean_t = t_true.mean(axis=(1, 2))

    write_csv(os.path.join(outdir, "regulation.csv"),
              ["t_s", "setpoint_c", "mean_t_c", "min_t_c", "max_t_c",
               "mean_t_meas_c", "mean_u"],
              [(time[k], spt[k], mean_t[k], t_true[k].min(), t_true[k].max(),
                t_meas[k].mean(), u[k].mean()) for k in range(time.size)])
    with open(os.path.join(outdir, "final_field.csv"), "w", newline="\n") as fh:
        fh.write("\n".join(thermal_field_rows(array.temp)) + "\n")
    if trace_on:
        rows = [t for r in results for t in r.conv_trace]
        write_csv(os.path.join(outdir, "pid_trace.csv"),
                  ["cycle", "row", "col", "slot", "coeff_mag", "target_preload",
                   "n_charge", "n_discharge", "product"], rows)

    checks = []
    for m in plateau_metrics(time, mean_t, spt, settings["pid"]["ts"]):
        tag = f"sp{m['setpoint']:g}"
        checks.append(check_in(f"{tag}_rise5_s", m["rise5_s"], 7.0, 13.0))
        checks.append(check_le(f"{tag}_ss_abs_error_c", abs(m["ss_error_c"]), 0.5))
        checks.append(check_le(f"{tag}_inst_error_c", m["inst_error_c"], 0.75))
        checks.append(check_true(f"{tag}_settled", m["settled"]))
    n_warn = sum(len(r.warnings) for r in results)
    checks.append(check_le("persistent_saturation_warnings", n_warn, 0))
    return checks


# --------------------------------------------------------------------------
# converter and controller oracles

def madc_oracle_reference(n_charge, p_in, p_ref, sign, preload, counter_max):
    """Exact integer model of one conversion on rational currents.

    Counts whole discharge clocks while the integrated charge remains
    non-negative, then applies the preload subtraction and the counter
    clamp.  Pure integer arithmetic throughout.
    """
    n2 = (n_charge * p_in) // p_ref
    raw = preload - sign * n2
    return max(-counter_max, min(counter_max, raw))


def madc_oracle_slow(n_charge, p_in, p_ref):
    """Clock-by-clock discharge count; independent of the closed form."""
    q = n_charge * p_in
    n2 = 0
    while (n2 + 1) * p_ref <= q:
        n2 += 1
    return n2


def exp_madc_oracle(settings, outdir):
    """Randomized equivalence of convert() against the integer oracle."""
    n_draws = int(settings["oracle"]["n_draws"])
    rng = np.random.default_rng(settings["experiment"]["seed"])
    cfg = MadcConfig(c_int=1e-6, conversion_noise_counts=0.0)
    scale = 2.0 ** -40

    p_ref = rng.integers(1, 1_000_000, n_draws)
    p_in = np.minimum(rng.integers(1, 2 * p_ref + 1), 1_000_000)
    k = rng.integers(1, 129, n_draws)
    # keep the charge phase positive: the preload may not consume it
    cal = np.minimum(rng.integers(-64, 64, n_draws), 4 * k - 1)
    preload = rng.integers(0, 601, n_draws)
    sign = np.where(rng.random(n_draws) < 0.5, 1, -1)

    mismatches = []
    n_checked = 0
    for i in range(n_draws):
        coeff = int(k[i]) / 128.0
        n_charge = round(coeff * cfg.n1_counts) - int(cal[i])
        if n_charge <= 0:
            continue
        n_checked += 1
        conv = MadcConversion(coeff_mag=coeff, coeff_sign=int(sign[i]),
                              cal_preload=int(cal[i]),
                              target_preload=int(preload[i]),
                              subtract_from_target=True)
        convert(cfg, conv, float(p_in[i]) * scale, float(p_ref[i]) * scale)
        expect = madc_oracle_reference(n_charge, int(p_in[i]), int(p_ref[i]),
                                       int(sign[i]), int(preload[i]),
                                       cfg.counter_max)
        if conv.out_count != expect:
            mismatches.append((i, int(p_in[i]), int(p_ref[i]), int(k[i]),
                               int(cal[i]), int(preload[i]), int(sign[i]),
                               conv.out_count, expect))
    write_csv(os.path.join(outdir, "madc_oracle_mismatches.csv"),
              ["draw", "p_in", "p_ref", "coeff_k", "cal", "preload", "sign",
               "got", "expected"], mismatches)
    return [
        check_ge("draws_checked", n_checked, n_draws),
        check_le("mismatches", len(mismatches), 0),
    ]


def exp_pid_oracle(settings, outdir):
    """Velocity recurrence vs direct transfer-function simulation."""
    n_tuples = int(settings["oracle"]["n_tuples"])
    n_steps = int(settings["oracle"]["n_steps"])
    rng = np.random.default_rng(settings["experiment"]["seed"])
    rows = []
    checks = []
    for i in range(n_tuples):
        kp = 10.0 ** rng.uniform(-1, 1.7)
        ti = rng.uniform(0.5, 20.0)
        ts = rng.uniform(0.1, 5.0)
        ki = kp / ti
        kd = rng.uniform(0.0, kp * ts / 4.0)
        coeffs = PidCoefficients.derive(kp, ki, kd, ts)
        errors = rng.uniform(-1.0, 1.0, n_steps)
        u_ref = transfer_function_response(kp, ki, kd, ts, errors)
        u_exact = velocity_response(coeffs.c0, coeffs.c1, coeffs.c2, errors)
        u_quant = velocity_response(*coeffs.quantized, errors)
        exact_dev = float(np.abs(u_exact - u_ref).max())
        exact_tol = 1e-9 * max(1.0, float(np.abs(u_ref).max()))
        bound = quantization_deviation_bound(coeffs, errors)
        quant_dev = np.abs(u_quant - u_ref)
        ok = bool(np.all(quant_dev <= bound)) and exact_dev <= exact_tol
        rows.append((i, kp, ki, kd, ts, exact_dev, float(quant_dev.max()),
                     float(bound[-1])))
        checks.append(check_true(f"tuple{i}_within_bound", ok))
    write_csv(os.path.join(outdir, "pid_oracle.csv"),
              ["tuple", "kp", "ki", "kd", "ts", "exact_dev", "quant_dev_max",
               "bound_final"], rows)
    return checks


# --------------------------------------------------------------------------
# measurement modes

def _fra_networks():
    return [
        ("series_rc", Series((Resistor(100e3), Capacitor(1e-6)))),
        ("parallel_rc", Series((Parallel((Resistor(1e6), Capacitor(10e-9))),))),
    ]


def exp_fra_sweep(settings, outdir):
    """Impedance extraction vs the closed-form network impedance."""
    ism = settings["is_mode"]
    n_dec = math.log10(ism["f_hi"] / ism["f_lo"])
    n_pts = int(round(n_dec * ism["points_per_decade"])) + 1
    freqs = ism["f_lo"] * 10.0 ** (np.arange(n_pts) / ism["points_per_decade"])
    array = build_array(settings, conversion_noise=0.0)
    rows = []
    worst_mag = 0.0
    worst_phase = 0.0
    for name, net in _fra_networks():
        array.set_mode((0, 0), Mode.IS, ImpedanceSensor(net))
        results = array.run_is((0, 0), freqs, n_periods=int(ism["n_periods"]),
                               amplitude=ism["amplitude"])
        for res in results:
            z_ref = net.impedance(res.freq)
            z_est = complex(res.z_real, res.z_imag)
            mag_err = abs(abs(z_est) - abs(z_ref)) / abs(z_ref)
            dphase = math.degrees(math.atan2((z_est * z_ref.conjugate()).imag,
                                             (z_est * z_ref.conjugate()).real))
            worst_mag = max(worst_mag, mag_err)
            worst_phase = max(worst_phase, abs(dphase))
            rows.append((name, res.freq, res.z_real, res.z_imag,
                         z_ref.real, z_ref.imag, mag_err * 100.0, dphase))
    write_csv(os.path.join(outdir, "fra_sweep.csv"),
              ["network", "freq_hz", "z_real", "z_imag", "z_real_ref",
               "z_imag_ref", "mag_err_pct", "phase_err_deg"], rows)
    return [
        check_le("max_mag_error_pct", worst_mag * 100.0, 2.0),
        check_le("max_phase_error_deg", worst_phase, 2.0),
    ]


def exp_cpa_ph(settings, outdir):
    """pH transfer in constant-potential mode, plus thermal derating."""
    cpa = settings["cpa"]
    array = build_array(settings, conversion_noise=0.0)
    sensor = PhSensor()
    array.set_mode((0, 0), Mode.CPA, sensor)
    array.force_temperature(25.0)
    wave = WaveformSpec(kind="constant", v_low=0.3)
    phs = np.linspace(cpa["ph_lo"], cpa["ph_hi"], int(cpa["ph_steps"]))
    currents = []
    for ph in phs:
        sensor.ph = float(ph)
        _, _, i_est = array.run_cpa((0, 0), wave, duration=0.2)
        currents.append(float(np.mean(i_est)))
    write_csv(os.path.join(outdir, "cpa_ph.csv"), ["ph", "mean_current_a"],
              list(zip(phs, currents)))
    slope = float(np.polyfit(phs, currents, 1)[0])

    sensor.ph = 8.0
    array.force_temperature(25.0)
    _, _, i25 = array.run_cpa((0, 0), wave, duration=0.2)
    array.force_temperature(35.0)
    _, _, i35 = array.run_cpa((0, 0), wave, duration=0.2)
    derate = float(np.mean(i35) / np.mean(i25))
    return [
        check_in("slope_a_per_ph", slope, 1.71e-9, 1.89e-9),
        check_in("derating_10c", derate, 0.88, 0.92),
    ]


def exp_cv_scan(settings, outdir):
    """Voltammetry signal chain: ohmic recovery and peak localization."""
    cv = settings["cv"]
    array = build_array(settings, conversion_noise=0.0)
    wave = WaveformSpec(kind="ramp_cyclic", v_low=cv["v_low"], v_high=cv["v_high"],
                        scan_rate=cv["scan_rate"], cycles=1)

    r_test = 1e6
    array.set_mode((0, 0), Mode.CV, CvSensor(lambda v, t: v / r_test))
    v, i_est = array.run_cv((0, 0), wave)
    i_ref = 1.25 * max(np.abs(v / r_test).max(), 1e-12)
    lsb = i_ref / array.cfg.madc.n1_counts
    ohmic_err = float(np.abs(i_est - v / r_test).max())

    array.set_mode((0, 0), Mode.CV, CvSensor(gaussian_peak_response()))
    v2, i2 = array.run_cv((0, 0), wave)
    span = cv["v_high"] - cv["v_low"]
    tails = (v2 > cv["v_high"] - 0.15 * span) | (v2 < cv["v_low"] + 0.15 * span)
    baseline = np.polyfit(v2[tails], i2[tails], 1)
    excess = i2 - np.polyval(baseline, v2)
    j = int(np.argmax(excess))
    lo, hi = max(j - 10, 0), min(j + 11, v2.size)
    quad = np.polyfit(v2[lo:hi], excess[lo:hi], 2)
    v_peak = float(-quad[1] / (2 * quad[0]))
    step_v = cv["scan_rate"] * 0.01

    rev = WaveformSpec(kind="ramp_cyclic", v_low=cv["v_low"], v_high=cv["v_high"],
                       scan_rate=cv["scan_rate"], cycles=1)
    array.set_mode((0, 0), Mode.CV, CvSensor(lambda v, t: v / r_test))
    v3, i3 = array.run_cv((0, 0), rev)
    mirror_exact = bool(np.array_equal(sorted(zip(v, i_est)), sorted(zip(v3, i3))))

    write_csv(os.path.join(outdir, "cv_scan.csv"), ["v", "i_a"],
              list(zip(v2, i2)))
    return [
        check_le("ohmic_error_a", ohmic_err, lsb * (1 + 1e-9)),
        check_le("peak_position_error_v", abs(v_peak - (-0.35)), step_v),
        check_true("reverse_scan_mirrors", mirror_exact),
    ]


def exp_snr_test(settings, outdir):
    """Quantization-limited SNR of a full-scale digitized sine."""
    sn = settings["snr"]
    cfg = MadcConfig(c_int=3e-9, conversion_noise_counts=0.0)
    snr = snr_test(cfg, freq=sn["freq"], amplitude=sn["amplitude"],
                   i_ref=sn["amplitude"], n_samples=int(sn["n_samples"]))
    write_csv(os.path.join(outdir, "snr.csv"),
              ["freq_hz", "amplitude_a", "snr_db"],
              [(sn["freq"], sn["amplitude"], snr)])
    return [check_ge("snr_db", snr, 56.0)]


EXPERIMENTS = {
    "characterize_sensor": (exp_characterize_sensor,
                            "single-die count-vs-temperature transfer sweep, design-map errors and straight-line fit"),
    "die_error_sweep": (exp_die_error_sweep,
                        "seven seeded dies, one-point calibration, 20-90 degC error curves"),
    "pwm_sweep": (exp_pwm_sweep,
                  "duty-ratio transfer across all 4096 codes with the 4%/96% clamps and tap-mismatch error"),
    "regulation_steps": (exp_regulation_steps,
                         "closed-loop setpoint schedule 35/45/55/65 degC: rise, settling and plateau errors"),
    "channel_spread": (exp_channel_spread,
                       "54 calibrated channels forced to 50 degC: mean and spread over seeds"),
    "madc_oracle": (exp_madc_oracle,
                    "randomized converter equivalence against the exact integer oracle"),
    "pid_oracle": (exp_pid_oracle,
                   "velocity-form recurrence against the direct transfer-function simulation"),
    "fra_sweep": (exp_fra_sweep,
                  "impedance extraction on RC networks vs closed-form impedance, 0.1 Hz - 10 kHz"),
    "cpa_ph": (exp_cpa_ph,
               "constant-potential pH transfer (nA per pH) and thermal derating"),
    "cv_scan": (exp_cv_scan,
                "cyclic-voltammetry chain: ohmic line recovery and redox-peak localization"),
    "snr_test": (exp_snr_test,
                 "digitized full-scale 15 Hz sine: quantization-limited SNR"),
}


def list_experiments():
    lines = ["available experiments:"]
    for name in sorted(EXPERIMENTS):
        lines.append(f"  {name:20s} {EXPERIMENTS[name][1]}")
    return "\n".join(lines) + "\n"


def _outermost_missing_dir(path):
    """The outermost directory on `path` that does not exist yet, or None."""
    path = os.path.abspath(path)
    missing = None
    while not os.path.exists(path):
        missing, path = path, os.path.dirname(path)
    return missing


def run_experiment(settings, outdir):
    """Run the configured experiment; write its CSVs plus summary.csv.

    A run that raises removes the directories it created for its outputs.
    """
    name = settings["experiment"]["name"]
    if name not in EXPERIMENTS:
        raise ConfigurationError(f"unknown experiment {name!r}")
    created = _outermost_missing_dir(outdir)
    os.makedirs(outdir, exist_ok=True)
    try:
        checks = EXPERIMENTS[name][0](settings, outdir)
        write_csv(os.path.join(outdir, "summary.csv"),
                  ["check", "value", "bound", "passed"],
                  [(c.name, c.value, c.bound, c.passed) for c in checks])
    except BaseException:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        raise
    return checks
