"""Every config that `sim` must reject with exit 2, as one table that
tests/test_cli.py runs in process and README's "Rejected configs" lists.
Run as a script (`python tests/rejections.py`), it sends every case
through the installed `sim` and exits 1 if any is not rejected."""

import os
import subprocess
import sys
import tempfile
from typing import NamedTuple

CONFIG = "case.cfg"
OUTPUT = "out/run"


class Case(NamedTuple):
    id: str
    experiment: str
    # {"section.key": value} on the template (experiment.name, experiment.seed = 1
    # and output.dir = OUTPUT; None drops a key), or a file body to which
    # the template's [output] section is appended
    config: object
    keys: tuple     # what the one-line message names: keys, or a file's line
    reason: str


def row(id, experiment, config, reason, keys=None):
    """A case whose message names keys, by default the keys config sets."""
    return Case(id, experiment, config, keys or tuple(config), reason)


CASES = [row(*fields) for fields in (
    # files that do not parse: the message names the file and line
    ("percent", "pwm_sweep", b"[experiment]\nname = pwm_sweep\nseed = 7%\n",
     "a `%` is literal", ("experiment.seed: expected an integer, got '7%'",)),
    ("duplicate_key", "pwm_sweep", b"[experiment]\nname = pwm_sweep\nseed = 7\nseed = 8\n",
     "a key given twice", ("case.cfg, line 4: duplicate key experiment.seed",)),
    ("duplicate_section", "pwm_sweep",
     b"[experiment]\nname = pwm_sweep\nseed = 7\n[experiment]\nseed = 8\n",
     "a section given twice", ("case.cfg, line 4: duplicate section [experiment]",)),
    ("no_section_header", "pwm_sweep", b"name = pwm_sweep\n[experiment]\nseed = 7\n",
     "a line before the first `[section]`", ("case.cfg, line 1: 'name = pwm_sweep'",)),
    ("no_equals", "pwm_sweep", b"[experiment]\nname = pwm_sweep\nseed 7\n",
     "a line without `=`", ("case.cfg, line 3: expected key = value",)),
    ("invalid_utf8", "pwm_sweep", b"[experiment]\nname = pwm_sweep\nseed = 7\n# \xff\xfe\n",
     "bytes 0xff 0xfe in a comment", ("case.cfg, byte 41: not UTF-8 text",)),
    # names the schema does not hold, the seed and the output directory
    ("unknown_experiment", "not_a_thing", {}, "no such experiment", ("not_a_thing",)),
    ("unknown_key", "pwm_sweep", {"pwm.dooty_min": 0.04}, "a misspelt key"),
    ("old_key_t_rd_counts", "pwm_sweep", {"madc.t_rd_counts": 16},
     "a removed key: it changed no output"),
    ("old_key_chopper_on", "pwm_sweep", {"devices.chopper_on": "true"},
     "a removed key: it changed no output"),
    ("old_key_thermal_dt", "regulation_steps", {"thermal.dt": 1},
     "a removed key: the plant advances by its exact map"),
    ("no_seed", "pwm_sweep", {"experiment.seed": None}, "a stochastic run on OS entropy"),
    ("negative_seed", "pwm_sweep", {"experiment.seed": -1}, "numpy takes no negative seed"),
    ("output_dir_is_a_file", "pwm_sweep", {"output.dir": CONFIG}, "a file"),
    ("output_dir_under_a_file", "pwm_sweep", {"output.dir": CONFIG + "/sub"}, "under a file"),
    # values outside a key's own rule (config.RULES)
    ("plateau_nan", "regulation_steps", {"regulation.plateau_s": "nan"}, "not finite"),
    ("plateau_inf", "regulation_steps", {"regulation.plateau_s": "inf"}, "not finite"),
    ("setpoint_nan", "regulation_steps", {"regulation.setpoints": "nan 45"}, "not finite"),
    ("no_setpoints", "regulation_steps", {"regulation.setpoints": ""}, "an empty schedule"),
    ("setpoint_above_90", "regulation_steps", {"regulation.setpoints": 95}, "above 90 degC"),
    ("is_f_hi_above_10k", "fra_sweep", {"is_mode.f_hi": 20000}, "above 10 kHz"),
    ("is_f_lo_below_0p1", "fra_sweep", {"is_mode.f_lo": 0.05}, "below 0.1 Hz"),
    ("is_f_lo_zero", "fra_sweep", {"is_mode.f_lo": 0}, "below 0.1 Hz"),
    ("is_amplitude_zero", "fra_sweep", {"is_mode.amplitude": 0}, "no excitation"),
    ("is_amplitude_negative", "fra_sweep", {"is_mode.amplitude": -0.01}, "a negative excitation"),
    ("is_no_points", "fra_sweep", {"is_mode.points_per_decade": 0}, "no points per decade"),
    ("is_no_periods", "fra_sweep", {"is_mode.n_periods": 0}, "no periods"),
    ("sweep_step_zero", "characterize_sensor", {"characterize.t_step": 0}, "a step of 0"),
    ("sweep_step_negative", "characterize_sensor", {"characterize.t_step": -1}, "a negative step"),
    ("sweep_above_90", "characterize_sensor", {"characterize.t_hi": 94.5}, "above 90 degC"),
    ("sweep_below_20", "die_error_sweep", {"characterize.t_lo": 15}, "below 20 degC"),
    ("no_dies", "die_error_sweep", {"characterize.n_dies": 0}, "no dies"),
    ("no_seeds", "channel_spread", {"spread.n_seeds": 0}, "no seeds"),
    ("force_above_90", "channel_spread", {"spread.t_force": 95}, "above 90 degC"),
    ("no_rows", "characterize_sensor", {"array.rows": 0}, "an empty array"),
    ("no_cols", "channel_spread", {"array.cols": 0}, "an empty array"),
    ("negative_noise", "characterize_sensor", {"madc.conversion_noise_counts": -1},
     "a negative noise level"),
    ("negative_sigma_r1", "die_error_sweep", {"mismatch.sigma_r1": -0.01}, "a negative sigma"),
    ("negative_tap_sigma", "pwm_sweep", {"pwm.tap_mismatch_sigma": -1}, "a negative sigma"),
    ("one_ph_step", "cpa_ph", {"cpa.ph_steps": 1}, "a line fit needs two pH points"),
    ("snr_one_sample", "snr_test", {"snr.n_samples": 1}, "a window of one sample"),
    ("snr_negative_freq", "snr_test", {"snr.freq": -15}, "a negative tone"),
    ("no_draws", "madc_oracle", {"oracle.n_draws": 0}, "no draws"),
    ("no_tuples", "pid_oracle", {"oracle.n_tuples": 0}, "no tuples"),
    ("no_steps", "pid_oracle", {"oracle.n_steps": 0}, "no steps"),
    ("snr_negative_bits", "snr_test", {"madc.n_bits": -1}, "a negative width"),
    ("oracle_zero_bits", "madc_oracle", {"madc.n_bits": 0}, "no bits"),
    ("snr_zero_clock", "snr_test", {"madc.f_clk": 0}, "a clock of 0 Hz"),
    ("wide_counter", "regulation_steps", {"madc.n_bits": 63}, "counts past float64's 2**52"),
    ("wide_counter_sweep", "characterize_sensor", {"madc.n_bits": 63},
     "counts past float64's 2**52"),
    ("pid_period_below_floor", "characterize_sensor", {"pid.ts": 0.0005}, "below 1 ms"),
    ("pid_period_tiny", "characterize_sensor", {"pid.ts": 1e-21}, "the tuning divided by 0"),
    # rules that tie keys together, or a key to the model
    ("sweep_reversed", "die_error_sweep", {"characterize.t_lo": 90, "characterize.t_hi": 20},
     "`t_lo` not below `t_hi`", ("characterize.t_lo",)),
    ("sweep_one_point", "characterize_sensor",
     {"characterize.t_hi": 21, "characterize.t_step": 5}, "fewer than two points",
     ("characterize.t_step",)),
    ("sweep_over_budget", "characterize_sensor", {"characterize.t_step": 1e-6},
     "70000001 points, over `experiments.MAX_SWEEP_POINTS`"),
    ("subnormal_step", "die_error_sweep", {"characterize.t_step": 1e-320},
     "a subnormal step: inf points"),
    ("subnormal_step_sweep", "characterize_sensor", {"characterize.t_step": 1e-320},
     "a subnormal step: inf points"),
    ("is_span_reversed", "fra_sweep", {"is_mode.f_lo": 100, "is_mode.f_hi": 10},
     "`f_lo` above `f_hi`", ("is_mode.f_lo",)),
    ("is_budget", "fra_sweep", {"is_mode.points_per_decade": 10 ** 12},
     "5e12 points, over `experiments.MAX_FRA_POINTS`"),
    ("is_period_too_long", "fra_sweep", {"madc.f_clk": 1e10},
     "48.8M conversions, over `array_sim.MAX_FRA_PERIOD`",
     ("madc.f_clk", "madc.n_bits", "is_mode.f_lo")),
    ("is_tiny_clock", "fra_sweep", {"madc.f_clk": 5e-324}, "inf cycles in 64 conversions"),
    ("tiny_clock", "fra_sweep", {"madc.f_clk": 1e-300}, "inf cycles in 64 conversions"),
    ("partial_gains_no_kp", "regulation_steps", {"pid.ki": 50, "pid.kd": 30},
     "some PID gains, not all three", ("pid.kp",)),
    ("partial_gains_kp_only", "regulation_steps", {"pid.kp": 20},
     "some PID gains, not all three", ("pid.ki",)),
    ("setpoints_below_ambient", "regulation_steps", {"regulation.setpoints": "20 21"},
     "the heater cannot cool"),
    ("plateau_not_whole_periods", "regulation_steps", {"regulation.plateau_s": 41},
     "not whole PID periods"),
    ("ph_span_empty", "cpa_ph", {"cpa.ph_lo": 7, "cpa.ph_hi": 7}, "`ph_lo` not below `ph_hi`",
     ("cpa.ph_lo",)),
    ("ph_saturates", "cpa_ph", {"cpa.ph_lo": 20, "cpa.ph_hi": 30},
     "currents at CPA's 4 nA full scale", ("cpa.ph_lo",)),
    ("oracle_22_bits", "madc_oracle", {"madc.n_bits": 22}, "above the oracle's 21 bits"),
    ("array_zero_bits", "characterize_sensor", {"madc.n_bits": 0}, "`2**n_bits` <= preload 63"),
    ("array_3_bits", "regulation_steps", {"madc.n_bits": 3}, "`2**n_bits` <= preload 63"),
    ("array_5_bits", "regulation_steps", {"madc.n_bits": 5}, "`2**n_bits` <= preload 63"),
    ("cpa_5_bits", "cpa_ph", {"madc.n_bits": 5}, "below `experiments.MODE_MIN_BITS`"),
    ("fra_5_bits", "fra_sweep", {"madc.n_bits": 5}, "below `experiments.MODE_MIN_BITS`"),
    ("fra_6_bits", "fra_sweep", {"madc.n_bits": 6}, "below `experiments.MODE_MIN_BITS`"),
    ("cv_5_bits", "cv_scan", {"madc.n_bits": 5}, "below `experiments.MODE_MIN_BITS`"),
    ("cv_7_bits", "cv_scan", {"madc.n_bits": 7}, "below `experiments.MODE_MIN_BITS`"),
    ("charge_scale_inexact", "regulation_steps", {"madc.pid_charge_scale": 10 ** 19},
     "charge counts past float64's 2**52", ("madc.pid_charge_scale", "madc.n_bits")),
    ("charge_scale_inexact_50_bits", "characterize_sensor", {"madc.n_bits": 50},
     "charge counts past 2**52 at scale 8", ("madc.pid_charge_scale", "madc.n_bits")),
    ("cpa_tiny_clock", "cpa_ph", {"madc.f_clk": 5e-324}, "an inf ranged cap"),
    ("cv_tiny_full_scale", "cv_scan", {"madc.v_full": 5e-324}, "an inf ranged cap"),
    ("oracle_tiny_full_scale", "madc_oracle", {"madc.v_full": 5e-324}, "an inf ranged cap"),
    ("vg0_below_vbe", "characterize_sensor", {"devices.vg0": 0.5}, "not above `vbe_at_tref`"),
    ("flat_map", "characterize_sensor", {"devices.r1": 1e-320}, "a nan design-map slope"),
    ("flat_map_regulation", "regulation_steps", {"devices.r1": 1e-320}, "a nan design-map slope"),
    ("flat_map_alpha", "die_error_sweep", {"devices.alpha": 1e-320}, "a nan design-map slope"),
    ("flat_map_alpha_spread", "channel_spread", {"devices.alpha": 1e-320},
     "a nan design-map slope"),
    ("zero_slope_r2", "characterize_sensor", {"devices.r2": 1e-320}, "a design-map slope of 0"),
    ("zero_slope_r2_dies", "die_error_sweep", {"devices.r2": 1e-320}, "a design-map slope of 0"),
    ("slow_plant", "regulation_steps", {"thermal.c_th": 1e300}, "a default-tuning gain of 0"),
    ("slow_plant_g_amb", "regulation_steps", {"thermal.g_amb": 1e-320},
     "a nan default-tuning gain"),
    ("slow_plant_g_amb_spread", "channel_spread", {"thermal.g_amb": 1e-320},
     "a nan default-tuning gain"),
    ("duty_span_reversed", "pwm_sweep", {"pwm.duty_min": 0.5, "pwm.duty_max": 0.4},
     "`duty_max` not above `duty_min`", ("pwm.duty_max",)),
    ("cv_span_reversed", "cv_scan", {"cv.v_low": 0.5, "cv.v_high": 0},
     "`v_low` not below `v_high`", ("cv.v_low",)),
    ("cv_scan_too_long", "cv_scan", {"cv.scan_rate": 1e-4},
     "1.4M samples, over `array_sim.MAX_CV_SAMPLES`"),
    ("snr_tone_too_fast", "snr_test", {"snr.freq": 5000}, "above a tenth of the conversion rate"),
    ("snr_window_too_short", "snr_test", {"snr.n_samples": 40, "snr.freq": 488.28125},
     "no noise bins left", ("snr.n_samples",)),
    ("snr_near_dc", "snr_test", {"snr.freq": 0.3}, "a 1-cycle tone in DC bins 0-3"),
    ("snr_near_dc_3_cycles", "snr_test", {"snr.freq": 0.9}, "a 3-cycle tone in DC bins 0-3"),
)]
BY_ID = {case.id: case for case in CASES}


def write(case, directory):
    """Write case's config to CONFIG in directory."""
    if isinstance(case.config, bytes):
        body = case.config + f"\n[output]\ndir = {OUTPUT}\n".encode()
    else:
        sections = {}
        for key, value in {"experiment.name": case.experiment, "experiment.seed": 1,
                           "output.dir": OUTPUT, **case.config}.items():
            section, name = key.split(".")
            if value is not None:
                sections.setdefault(section, []).append(f"{name} = {value}\n")
        body = "".join(f"[{section}]\n" + "".join(lines)
                       for section, lines in sections.items()).encode()
    with open(os.path.join(directory, CONFIG), "wb") as fh:
        fh.write(body)


def problems(case, code, err, directory):
    """What is wrong with a run on case's config in directory that exited
    code with stderr err: it must exit 2 with one `config error:` line that
    names every key, and leave nothing in directory but the config."""
    found = [] if code == 2 else [f"exit {code}, not 2"]
    if not (err.startswith("config error: ") and err.endswith("\n") and err.count("\n") == 1
            and "Traceback" not in err):
        found.append("stderr is not one `config error:` line")
    found += [f"{key!r} is not named" for key in case.keys if key not in err]
    if sorted(os.listdir(directory)) != [CONFIG]:
        found.append(f"{directory} holds {sorted(os.listdir(directory))}")
    return found


def main():
    failed = 0
    for case in CASES:
        with tempfile.TemporaryDirectory() as directory:
            write(case, directory)
            run = subprocess.run(["sim", CONFIG], cwd=directory, capture_output=True, text=True)
            found = problems(case, run.returncode, run.stderr, directory)
        failed += bool(found)
        print(f"{'FAIL' if found else 'ok'} {case.id}: {'; '.join(found + [run.stderr.rstrip()])}")
    print(f"{len(CASES) - failed} of {len(CASES)} cases exit 2 as they should")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
