"""Named experiments: each maps one measured characteristic of the system
onto CSV outputs plus machine-checkable pass/fail summaries."""

import math
import os
import shutil
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .array_sim import CPA_I_REF, SAMPLE_PERIOD, ArrayConfig, TempArray, run_cpa, run_cv
from .config import checked, from_settings
from .devices import PEAK_V, BjtParams, CurrentSourceParams, gaussian_peak_response, ph_current
from .errors import ConfigurationError, require
from .madc import MadcConfig, charge_phase, convert, ranged, snr_test
from .pid import (PidCoefficients, quantization_deviation_bound,
                  transfer_function_response, velocity_response)
from .pwm import CELL_TIME, CODES, PwmConfig, duty_of_code, high_time, sample_tap_delays

# write_csv formats and writes this many rows at a time
CSV_CHUNK_ROWS = 2 ** 16


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    value: float
    bound: str
    passed: bool

    def __post_init__(self):
        # callers may keep the checks of many runs: equal names and
        # bounds share one string
        object.__setattr__(self, "name", sys.intern(self.name))
        object.__setattr__(self, "bound", sys.intern(self.bound))


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _column_text(column):
    """The CSV text of each item of a column.

    An array is formatted once by its dtype, over .tolist(): a bool as
    1/0, an integer by int.__repr__, a float by float.__repr__.  Any
    other column goes through _fmt item by item.
    """
    kind = column.dtype.kind if isinstance(column, np.ndarray) else None
    if kind == "f":
        return list(map(float.__repr__, column.tolist()))
    # int.__repr__ writes a bool as 1 or 0
    if kind in ("b", "i", "u"):
        return list(map(int.__repr__, column.tolist()))
    return [_fmt(x) for x in column]


def write_csv(path, header, *columns):
    """Write equal-length columns under a header that names each once."""
    if len(header) != len(columns) or len({len(c) for c in columns}) > 1:
        raise ValueError(f"{len(header)} names for columns of {[len(c) for c in columns]} rows")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, len(columns[0]) if columns else 0, CSV_CHUNK_ROWS):
            chunk = (c[i:i + CSV_CHUNK_ROWS] for c in columns)
            fh.write("\n".join(map(",".join, zip(*map(_column_text, chunk)))) + "\n")


def write_field(path, temp):
    """A temperature field as CSV rows without a header: row-major,
    Celsius, 6 decimals."""
    with open(path, "w", newline="\n") as fh:
        fh.write("".join(",".join(f"{x:.6f}" for x in row) + "\n" for row in temp.tolist()))


def check_le(name, value, bound):
    return CheckResult(name, value, f"<= {bound}", bool(value <= bound))


def check_ge(name, value, bound):
    return CheckResult(name, value, f">= {bound}", bool(value >= bound))


def check_in(name, value, lo, hi):
    return CheckResult(name, value, f"in [{lo}, {hi}]", bool(lo <= value <= hi))


def check_true(name, flag):
    return CheckResult(name, 1.0 if flag else 0.0, "== 1", bool(flag))


def build_array(settings):
    """The configured TempArray, on the configured seed."""
    return TempArray(array_config(settings), settings["experiment"]["seed"])


def array_config(settings):
    """The configured ArrayConfig: one serves every die built on the settings."""
    pid = settings["pid"]
    unset = [f"pid.{k}" for k in ("kp", "ki", "kd") if pid[k] is None]
    if 0 < len(unset) < 3:
        raise ConfigurationError(
            f"{', '.join(unset)} unset: give all three of pid.kp, pid.ki and "
            "pid.kd, or none for the default tuning")
    return from_settings(
        ArrayConfig, settings,
        bjt=from_settings(BjtParams, settings),
        current_source=from_settings(CurrentSourceParams, settings),
        madc=from_settings(MadcConfig, settings), pwm=from_settings(PwmConfig, settings),
        pid_gains=None if unset else (pid["kp"], pid["ki"], pid["kd"]))


# --------------------------------------------------------------------------
# sensing characterization

# A characterization sweep holds at most MAX_SWEEP_POINTS points, 58x the
# default sweep's 71.  At the budget a `characterize_sensor` run peaked at
# about 52 MB under tracemalloc (99 MB RSS untraced)
MAX_SWEEP_POINTS = 2 ** 12


def _sweep_temperatures(settings):
    """The characterization sweep t_lo..t_hi (inclusive) in steps of t_step."""
    ch = settings["characterize"]
    require(ch["t_lo"] < ch["t_hi"], "characterize.t_lo", f"below characterize.t_hi "
            f"({ch['t_hi']!r})", ch["t_lo"])
    stop = ch["t_hi"] + ch["t_step"] / 2
    # np.arange makes ceil(q) points of this quotient q, at most the budget
    # exactly when q is; q is compared as it is, as a subnormal t_step
    # makes it inf, on which ceil overflows
    require((stop - ch["t_lo"]) / ch["t_step"] <= MAX_SWEEP_POINTS,
            "characterize.t_step", f"coarse enough for at most {MAX_SWEEP_POINTS} sweep "
            "points from characterize.t_lo to characterize.t_hi", ch["t_step"])
    t_values = np.arange(ch["t_lo"], stop, ch["t_step"])
    require(t_values.size >= 2, "characterize.t_step", "fine enough for two sweep points "
            "from characterize.t_lo to characterize.t_hi", ch["t_step"])
    return t_values


def exp_characterize_sensor(settings, outdir):
    """Single-die transfer sweep: counts vs temperature, map errors, line fit."""
    t_values = _sweep_temperatures(settings)
    array = build_array(settings)
    array.calibrate_one_point()
    counts = array.characterize_sensor(t_values)
    t_read = array.cfg.temp_map.read_temperature(counts)
    map_error = t_read - t_values
    # each cell's straight-line fit, its residuals in counts and in Celsius
    a = np.vstack([t_values, np.ones_like(t_values)]).T
    coef, *_ = np.linalg.lstsq(a, counts.T, rcond=None)
    resid = counts.T - a @ coef
    slope_local = np.gradient(array.cfg.temp_map.counts_cont(t_values), t_values)
    resid_c = resid / np.abs(slope_local)[:, None]

    # one row per cell and sweep point, cell-major
    cells = np.arange(counts.shape[0])
    cell = np.repeat(cells, t_values.size)
    write_csv(os.path.join(outdir, "transfer.csv"),
              ["cell", "row", "col", "t_true_c", "count", "t_read_c", "error_c"],
              cell, *np.divmod(cell, array.cfg.cols), np.tile(t_values, cells.size),
              counts.ravel(), t_read.ravel(), map_error.ravel())
    write_csv(os.path.join(outdir, "linear_fit.csv"),
              ["cell", "slope_counts_per_c", "intercept_counts",
               "max_resid_counts", "max_resid_c"],
              cells, coef[0], coef[1], np.abs(resid).max(axis=0), np.abs(resid_c).max(axis=0))

    mono = bool(np.all(np.diff(counts, axis=1) < 0))
    checks = [
        check_true("counts_monotone_decreasing_all_cells", mono),
        check_le("die_mean_abs_error_c", float(np.abs(map_error.mean(axis=0)).max()), 0.5),
    ]
    return checks


def exp_die_error_sweep(settings, outdir):
    """Seven fresh-mismatch dies, one-point calibrated, swept 20-90 degC."""
    t_values = _sweep_temperatures(settings)
    n_dies = settings["characterize"]["n_dies"]
    die_seeds = np.random.SeedSequence(settings["experiment"]["seed"]).spawn(n_dies)
    cfg = array_config(settings)
    errors = []
    checks = []
    for d, dseed in enumerate(die_seeds):
        array = TempArray(cfg, seed=dseed)
        failures = array.calibrate_one_point()
        counts = array.characterize_sensor(t_values)
        error = (cfg.temp_map.read_temperature(counts) - t_values).mean(axis=0)
        errors.append(error)
        checks.append(check_le(f"die{d}_max_abs_error_c", float(np.abs(error).max()), 0.5))
        checks.append(check_true(f"die{d}_all_cells_calibrated", not failures))
    write_csv(os.path.join(outdir, "die_errors.csv"),
              ["die", "t_true_c", "mean_error_c"], np.repeat(np.arange(n_dies), t_values.size),
              np.tile(t_values, n_dies), np.concatenate(errors))
    return checks


def exp_channel_spread(settings, outdir):
    """54 calibrated channels forced to one temperature, over several seeds."""
    t_force, n_seeds = settings["spread"]["t_force"], settings["spread"]["n_seeds"]
    seeds = np.random.SeedSequence(settings["experiment"]["seed"]).spawn(n_seeds)
    cfg = array_config(settings)
    reads_by_seed = []
    checks = []
    for s, sseed in enumerate(seeds):
        array = TempArray(cfg, seed=sseed)
        array.calibrate_one_point(t_known=t_force)
        reads = cfg.temp_map.read_temperature(array.read_counts(t_force)).ravel()
        reads_by_seed.append(reads)
        checks.append(check_in(f"seed{s}_mean_c", float(reads.mean()),
                               t_force - 0.3, t_force + 0.3))
        checks.append(check_le(f"seed{s}_sigma_c", float(reads.std()), 0.25))
    write_csv(os.path.join(outdir, "channel_spread.csv"),
              ["seed", "cell", "t_read_c"], np.repeat(np.arange(n_seeds), reads.size),
              np.tile(np.arange(reads.size), n_seeds), np.concatenate(reads_by_seed))
    return checks


# --------------------------------------------------------------------------
# PWM

def exp_pwm_sweep(settings, outdir):
    """Full 4096-code duty transfer, nominal and with seeded tap mismatch."""
    cfg = from_settings(PwmConfig, settings)
    codes = np.arange(CODES)
    nominal = duty_of_code(cfg, codes)
    rng = np.random.default_rng(settings["experiment"]["seed"])
    taps = sample_tap_delays(cfg, rng)
    mismatched = duty_of_code(cfg, codes, taps)
    write_csv(os.path.join(outdir, "pwm_transfer.csv"),
              ["code", "duty_nominal", "duty_mismatch"], codes, nominal, mismatched)

    in_band = (codes / CODES >= cfg.duty_min) & (codes / CODES <= cfg.duty_max)
    lin_err = np.abs(nominal[in_band] - codes[in_band] / CODES)
    mis_err = np.abs(mismatched - nominal)
    step = high_time(cfg, 2049) - high_time(cfg, 2048)
    checks = [
        check_le("nominal_linearity_error_lsb", float(lin_err.max() * CODES), 1.0),
        check_true("all_codes_swept", nominal.size == CODES),
        CheckResult("min_high_time_step_s", step, "== 1e-07",
                    bool(abs(step - CELL_TIME) < 1e-12)),
        check_le("duty_at_code0", float(duty_of_code(cfg, 0)), cfg.duty_min),
        check_ge("duty_at_full_code", float(duty_of_code(cfg, CODES - 1)),
                 cfg.duty_max),
        check_le("mismatch_max_error_frac", float(mis_err.max()), 0.0082),
    ]
    return checks


# --------------------------------------------------------------------------
# regulation

def plateau_metrics(time, t_mean, sp, ts):
    """Rise/settle metrics of one plateau at setpoint sp, on its cycle end
    times and array mean temperatures.

    rise5 is the time from crossing (setpoint - 5) to the final entry
    into the +-0.75 band; steady-state error is the mean error over the
    last quarter of the plateau.
    """
    tt = time - time[0] + ts
    err = t_mean - sp
    bad = np.where(np.abs(err) > 0.75)[0]
    t_settle = tt[bad[-1]] + ts if bad.size else tt[0]
    idx5 = np.where(t_mean >= sp - 5.0)[0]
    t5 = tt[idx5[0]] if idx5.size else math.inf
    ss = err[int(err.size * 0.75):]
    post = err[tt >= min(t_settle, tt[-1])]
    return {
        "rise5_s": float(t_settle - t5),
        "ss_error_c": float(ss.mean()),
        "inst_error_c": float(np.abs(post).max()) if post.size else math.nan,
        "settled": bool(t_settle < tt[-1]),
    }


def exp_regulation_steps(settings, outdir):
    """Closed-loop setpoint schedule on the fitted plant."""
    reg = settings["regulation"]
    trace_on = bool(reg["trace_conversions"])
    # the heater cannot cool: a plateau below the ambient never settles
    t_ambient = settings["array"]["t_ambient"]
    require(min(reg["setpoints"]) >= t_ambient, "regulation.setpoints",
            f"at or above array.t_ambient ({t_ambient!r} degC): the heater cannot cool",
            reg["setpoints"])
    array = build_array(settings)
    array.calibrate_one_point()
    results = []
    for sp in reg["setpoints"]:
        results.append(array.run_regulation(sp, reg["plateau_s"],
                                            trace_conversions=trace_on))
    time = np.concatenate([r.time for r in results])
    spt = np.repeat(np.array(reg["setpoints"], dtype=float), [r.time.size for r in results])
    t_true = np.concatenate([r.t_true for r in results])
    t_meas = np.concatenate([r.t_meas for r in results])
    u = np.concatenate([r.u for r in results])

    cells = (1, 2)
    write_csv(os.path.join(outdir, "regulation.csv"),
              ["t_s", "setpoint_c", "mean_t_c", "min_t_c", "max_t_c",
               "mean_t_meas_c", "mean_u"],
              time, spt, t_true.mean(axis=cells), t_true.min(axis=cells),
              t_true.max(axis=cells), t_meas.mean(axis=cells), u.mean(axis=cells))
    write_field(os.path.join(outdir, "final_field.csv"), array.temp)
    if trace_on:
        header = list(results[0].conv_trace)
        write_csv(os.path.join(outdir, "pid_trace.csv"), header,
                  *(np.concatenate([r.conv_trace[key] for r in results]) for key in header))

    checks = []
    # a setpoint the schedule returns to is checked on each of its
    # plateaus, the second under sp<setpoint>_2 and so on
    tags = Counter()
    for sp, res in zip(reg["setpoints"], results):
        m = plateau_metrics(res.time, res.t_true.mean(axis=cells), sp, settings["pid"]["ts"])
        tag = f"sp{sp:g}"
        tags[tag] += 1
        tag += f"_{tags[tag]}" if tags[tag] > 1 else ""
        checks.append(check_in(f"{tag}_rise5_s", m["rise5_s"], 7.0, 13.0))
        checks.append(check_le(f"{tag}_ss_abs_error_c", abs(m["ss_error_c"]), 0.5))
        checks.append(check_le(f"{tag}_inst_error_c", m["inst_error_c"], 0.75))
        checks.append(check_true(f"{tag}_settled", m["settled"]))
    n_warn = sum(len(r.warnings) for r in results)
    checks.append(check_le("persistent_saturation_warnings", n_warn, 0))
    return checks


# --------------------------------------------------------------------------
# converter and controller oracles

MADC_ORACLE_MAX_BITS = 21   # the widest converter madc_oracle checks exactly


def madc_oracle_reference(n_charge, p_in, p_ref, sign, preload, counter_max):
    """Exact integer model of conversions on rational currents.

    Counts whole discharge clocks while the integrated charge remains
    non-negative, then applies the preload subtraction and the counter
    clamp.  Pure integer arithmetic throughout, on ints or integer arrays.
    """
    n2 = (n_charge * p_in) // p_ref
    raw = preload - sign * n2
    return np.clip(raw, -counter_max, counter_max)


def exp_madc_oracle(settings, outdir):
    """Randomized equivalence of convert() against the integer oracle."""
    n_draws = settings["oracle"]["n_draws"]
    rng = np.random.default_rng(settings["experiment"]["seed"])
    # the configured converter, which draws no noise unless handed it,
    # with an integrator cap above every draw's charge (the integer
    # oracle models no clip)
    cfg = from_settings(MadcConfig, settings, c_int=1e-6)
    # a draw counts up to 2 * (2**n_bits + 64) in float64, with an error
    # below the 1e-9-count crossing guard only up to 21 bits
    top = MADC_ORACLE_MAX_BITS
    require(cfg.n_bits <= top, "madc.n_bits", f"<= {top} for madc_oracle", cfg.n_bits)
    scale = 2.0 ** -40

    p_ref = rng.integers(1, 1_000_000, n_draws)
    p_in = np.minimum(rng.integers(1, 2 * p_ref + 1), 1_000_000)
    k = rng.integers(1, 129, n_draws)
    coeff = k / 128.0
    n_full = np.round(coeff * cfg.n1_counts).astype(int)
    # keep the charge phase positive at any n_bits: the preload may not
    # consume it
    cal = np.minimum(rng.integers(-64, 64, n_draws), n_full - 1)
    preload = rng.integers(0, 601, n_draws)
    sign = np.where(rng.random(n_draws) < 0.5, 1, -1)

    # every draw in one batch of conversions
    n_charge = n_full - cal
    i_in = p_in * scale
    # 1e-6 F holds every draw's charge at the default clock.  A slower
    # clock integrates longer: ranged raises the cap then, as for the
    # measurement modes, with the largest draw's charge as full scale
    cfg = ranged(cfg, np.max(n_charge * i_in) / cfg.n1_counts)
    got = convert(cfg, i_in, p_ref * scale, charge_phase(cfg, coeff, cal, sign),
                  preload).out_count
    expect = madc_oracle_reference(n_charge, p_in, p_ref, sign, preload, cfg.counter_max)
    bad = np.flatnonzero(got != expect)
    write_csv(os.path.join(outdir, "madc_oracle_mismatches.csv"),
              ["draw", "p_in", "p_ref", "coeff_k", "cal", "preload", "sign",
               "got", "expected"],
              bad, *(v[bad] for v in (p_in, p_ref, k, cal, preload, sign, got, expect)))
    return [
        check_ge("draws_checked", got.size, n_draws),
        check_le("mismatches", bad.size, 0),
    ]


def exp_pid_oracle(settings, outdir):
    """Velocity recurrence vs direct transfer-function simulation."""
    n_tuples, n_steps = settings["oracle"]["n_tuples"], settings["oracle"]["n_steps"]
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
        rows.append((i, kp, ki, kd, ts, exact_dev, float(quant_dev.max()), float(bound[-1])))
        checks.append(check_true(f"tuple{i}_within_bound", ok))
    write_csv(os.path.join(outdir, "pid_oracle.csv"),
              ["tuple", "kp", "ki", "kd", "ts", "exact_dev", "quant_dev_max",
               "bound_final"], *map(np.array, zip(*rows)))
    return checks


# --------------------------------------------------------------------------
# measurement modes

# the narrowest converter each measurement mode's experiment runs on: one bit
# narrower, it fails a check at the defaults (cpa_ph reads a derating of 0.857
# at 5 bits, bound [0.88, 0.92]; fra_sweep a magnitude error of 2.48 / 1.65 /
# 0.68 % at 6 / 7 / 8 bits, bound 2 %; cv_scan a peak error of 4.96 / 1.022 /
# 0.342 mV at 6 / 7 / 8 bits, bound 1 mV)
MODE_MIN_BITS = {"cpa_ph": 6, "fra_sweep": 7, "cv_scan": 8}


def _mode_channel(settings, experiment):
    """The configured channel of a measurement mode's experiment, checked
    against its MODE_MIN_BITS."""
    madc = from_settings(MadcConfig, settings)
    least = MODE_MIN_BITS[experiment]
    require(madc.n_bits >= least, "madc.n_bits", f">= {least} for {experiment}", madc.n_bits)
    return madc


# An IS sweep holds at most MAX_FRA_POINTS points, 80x the default sweep's
# 51.  At the budget a `fra_sweep` run over the default 0.1 Hz to 10 kHz
# took 0.85 s and 42 MB RSS, and one crowded into 0.1-0.2 Hz, where every
# period is longest, 5.6 s and 42 MB (33 MB at the defaults; 2 cores,
# Python 3.11, numpy 2.4)
MAX_FRA_POINTS = 2 ** 12

# fra_sweep's networks, each its impedance (ohm) as a function of the
# frequency (Hz): a series network sums its elements' impedances, a
# parallel one takes the reciprocal of the sum of their reciprocals, and a
# capacitor C is 1 / (2j*pi*f*C)
FRA_NETWORKS = {
    "series_rc": lambda f: 100e3 + 1.0 / (2j * math.pi * f * 1e-6),
    "parallel_rc": lambda f: 1.0 / (1.0 / 1e6 + 1.0 / (1.0 / (2j * math.pi * f * 10e-9))),
}


def _fra_frequencies(settings):
    """The IS sweep from f_lo, points_per_decade per decade (log-spaced), none above f_hi."""
    ism = settings["is_mode"]
    per_decade = ism["points_per_decade"]
    require(ism["f_lo"] <= ism["f_hi"], "is_mode.f_lo",
            f"at most is_mode.f_hi ({ism['f_hi']!r})", ism["f_lo"])
    # the last whole step at or below f_hi; the tolerance keeps a span of
    # whole decades from losing its end point to rounding
    n_dec = math.log10(ism["f_hi"] / ism["f_lo"])
    steps = n_dec * per_decade + 1e-9
    # floor(steps) + 1 points, at most the budget exactly when steps is
    # below it; compared before the floor, so no array is made first
    require(steps < MAX_FRA_POINTS, "is_mode.points_per_decade",
            f"coarse enough for at most {MAX_FRA_POINTS} IS points from is_mode.f_lo "
            "to is_mode.f_hi", per_decade)
    n_pts = math.floor(steps) + 1
    freqs = ism["f_lo"] * 10.0 ** (np.arange(n_pts) / per_decade)
    return np.minimum(freqs, ism["f_hi"])


def exp_fra_sweep(settings, outdir):
    """Impedance extraction vs the closed-form network impedance."""
    freqs = _fra_frequencies(settings)
    madc = _mode_channel(settings, "fra_sweep")
    # one sweep over both networks: every frequency of the first, then the second
    results = TempArray.run_is(madc, list(FRA_NETWORKS.values()), freqs,
                               settings["is_mode"]["amplitude"])
    rows = []
    worst_mag = 0.0
    worst_phase = 0.0
    for name, (f, z_est) in zip([name for name in FRA_NETWORKS for _ in freqs], results):
        z_ref = FRA_NETWORKS[name](f)
        mag_err = abs(abs(z_est) - abs(z_ref)) / abs(z_ref)
        dphase = math.degrees(math.atan2((z_est * z_ref.conjugate()).imag,
                                         (z_est * z_ref.conjugate()).real))
        worst_mag = max(worst_mag, mag_err)
        worst_phase = max(worst_phase, abs(dphase))
        rows.append((name, f, z_est.real, z_est.imag,
                     z_ref.real, z_ref.imag, mag_err * 100.0, dphase))
    names, *numbers = zip(*rows)
    write_csv(os.path.join(outdir, "fra_sweep.csv"),
              ["network", "freq_hz", "z_real", "z_imag", "z_real_ref",
               "z_imag_ref", "mag_err_pct", "phase_err_deg"], names, *map(np.array, numbers))
    return [
        check_le("max_mag_error_pct", worst_mag * 100.0, 2.0),
        check_le("max_phase_error_deg", worst_phase, 2.0),
    ]


def exp_cpa_ph(settings, outdir):
    """pH transfer in constant-potential mode, plus thermal derating."""
    cpa = settings["cpa"]
    require(cpa["ph_lo"] < cpa["ph_hi"], "cpa.ph_lo", f"below cpa.ph_hi ({cpa['ph_hi']!r})",
            cpa["ph_lo"])
    # a current at the full scale saturates the channel: the slope fit
    # then collapses
    for key in ("ph_lo", "ph_hi"):
        require(abs(ph_current(cpa[key], 25.0)) < CPA_I_REF, f"cpa.{key}",
                f"a pH whose front-end current stays inside the {CPA_I_REF:g} A full scale",
                cpa[key])
    madc = _mode_channel(settings, "cpa_ph")
    phs = np.linspace(cpa["ph_lo"], cpa["ph_hi"], cpa["ph_steps"])
    currents = []
    for ph in phs.tolist():
        i_est = run_cpa(madc, ph_current(ph, 25.0), duration=0.2)
        currents.append(float(np.mean(i_est)))
    write_csv(os.path.join(outdir, "cpa_ph.csv"), ["ph", "mean_current_a"],
              phs, np.array(currents))
    slope = float(np.polyfit(phs, currents, 1)[0])

    i25 = run_cpa(madc, ph_current(8.0, 25.0), duration=0.2)
    i35 = run_cpa(madc, ph_current(8.0, 35.0), duration=0.2)
    derate = float(np.mean(i35) / np.mean(i25))
    return [
        check_in("slope_a_per_ph", slope, 1.71e-9, 1.89e-9),
        check_in("derating_10c", derate, 0.88, 0.92),
    ]


def reverse_scan_mirrors(v, i):
    """True when a scan's first down-sweep retraces its up-sweep.

    v and i are a run_cv scan.  The down-sweep visits the up-sweep's
    voltages in reverse; a sensor that depends on the voltage alone
    gives the same current at each of them, bit for bit.
    """
    top = int(np.argmax(v))
    return all(np.array_equal(x[:top + 1], x[top:2 * top + 1][::-1]) for x in (v, i))


def exp_cv_scan(settings, outdir):
    """Voltammetry signal chain: ohmic recovery and peak localization."""
    cv = settings["cv"]
    madc = _mode_channel(settings, "cv_scan")
    scan = cv["v_low"], cv["v_high"], cv["scan_rate"]

    r_test = 1e6
    v, i_est, i_ref = run_cv(madc, lambda v, t: v / r_test, *scan)
    lsb = i_ref / madc.n1_counts
    ohmic_err = float(np.abs(i_est - v / r_test).max())

    v2, i2, _ = run_cv(madc, gaussian_peak_response, *scan)
    span = cv["v_high"] - cv["v_low"]
    tails = (v2 > cv["v_high"] - 0.15 * span) | (v2 < cv["v_low"] + 0.15 * span)
    baseline = np.polyfit(v2[tails], i2[tails], 1)
    excess = i2 - np.polyval(baseline, v2)
    j = int(np.argmax(excess))
    lo, hi = max(j - 10, 0), min(j + 11, v2.size)
    quad = np.polyfit(v2[lo:hi], excess[lo:hi], 2)
    v_peak = float(-quad[1] / (2 * quad[0]))
    step_v = cv["scan_rate"] * SAMPLE_PERIOD

    write_csv(os.path.join(outdir, "cv_scan.csv"), ["v", "i_a"], v2, i2)
    return [
        check_le("ohmic_error_a", ohmic_err, lsb * (1 + 1e-9)),
        check_le("peak_position_error_v", abs(v_peak - PEAK_V), step_v),
        check_true("reverse_scan_mirrors", reverse_scan_mirrors(v, i_est)),
    ]


def exp_snr_test(settings, outdir):
    """Quantization-limited SNR of a full-scale digitized sine."""
    sn = settings["snr"]
    # the configured converter, with an integrator cap far above a
    # full-scale charge (2e-11 C at the defaults), so no sample clips.
    # convert_signed is noiseless: the test measures the quantization limit
    cfg = from_settings(MadcConfig, settings, c_int=3e-9)
    snr = snr_test(cfg, freq=sn["freq"], amplitude=sn["amplitude"],
                   n_samples=sn["n_samples"])
    write_csv(os.path.join(outdir, "snr.csv"),
              ["freq_hz", "amplitude_a", "snr_db"], [sn["freq"]], [sn["amplitude"]], [snr])
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

# experiments whose results depend on random draws: a seed is mandatory
STOCHASTIC_EXPERIMENTS = {
    "characterize_sensor", "die_error_sweep", "channel_spread", "pwm_sweep",
    "madc_oracle", "pid_oracle", "regulation_steps",
}


def list_experiments():
    lines = ["available experiments:"]
    for name in sorted(EXPERIMENTS):
        lines.append(f"  {name:20s} {EXPERIMENTS[name][1]}")
    return "\n".join(lines) + "\n"


def _outermost_missing_dir(path):
    """The outermost directory on `path` that does not exist yet, or None.
    Rejects a path whose longest existing prefix is not a directory."""
    path = os.path.abspath(path)
    missing = None
    while not os.path.exists(path):
        missing, path = path, os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigurationError(f"output.dir must be a directory path, but {path} "
                                 "is not a directory")
    return missing


def run_experiment(settings, outdir):
    """Run the configured experiment; write its CSVs plus summary.csv.

    Every key's rule (config.RULES) holds before the experiment runs, and
    a stochastic one has its seed.  A run that raises removes the
    directories it created for its outputs.
    """
    name = settings["experiment"]["name"]
    if name not in EXPERIMENTS:
        raise ConfigurationError(f"unknown experiment {name!r}")
    if name in STOCHASTIC_EXPERIMENTS and settings["experiment"]["seed"] is None:
        raise ConfigurationError(f"experiment.seed is required for {name}")
    settings = checked(settings)
    created = _outermost_missing_dir(outdir)
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"output.dir {outdir}: {exc.strerror}") from exc
    try:
        checks = EXPERIMENTS[name][0](settings, outdir)
        write_csv(os.path.join(outdir, "summary.csv"),
                  ["check", "value", "bound", "passed"], [c.name for c in checks],
                  [c.value for c in checks], [c.bound for c in checks],
                  [c.passed for c in checks])
    except BaseException:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        raise
    return checks
