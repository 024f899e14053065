import copy
import os
import tempfile
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tregsim import experiments
from tregsim.cli import main
from tregsim.config import SCHEMA, load_config
from tregsim.errors import ConfigurationError
from tregsim.experiments import (EXPERIMENTS, MADC_ORACLE_MAX_BITS, _fra_frequencies,
                                 list_experiments)


def write_config(path, body):
    path.write_text(body)
    return str(path)


GOOD = """
[experiment]
name = pwm_sweep
seed = 7

[output]
dir = {out}
"""


def test_list_flag(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out
    # stable across invocations
    main(["--list"])
    assert capsys.readouterr().out == out


def test_catalog_has_eleven_entries():
    lines = [l for l in list_experiments().splitlines() if l.startswith("  ")]
    assert len(lines) == 11


def test_run_experiment_writes_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "ok.cfg", GOOD.format(out=out))
    assert main([cfg]) == 0
    assert (out / "summary.csv").exists()
    assert (out / "pwm_transfer.csv").exists()
    with open(out / "pwm_transfer.csv") as fh:
        assert sum(1 for _ in fh) == 4097  # header + 4096 codes


@pytest.mark.parametrize("n_bits", [7, 8])
def test_fra_sweep_passes_on_a_narrow_converter(tmp_path, n_bits):
    # IS ranges its responses to a fraction of the counter, so a 7- or
    # 8-bit converter neither clips nor overflows and meets the 2 % bounds
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "narrow.cfg", f"""
[experiment]
name = fra_sweep

[output]
dir = {out}

[madc]
n_bits = {n_bits}
""")
    assert main([cfg]) == 0
    assert (out / "fra_sweep.csv").exists()


def test_cpa_ph_runs_at_the_mode_floor(tmp_path):
    # cpa_ph's floor admits a 6-bit channel: cpa_ph passes on it, as it
    # did on the one-cell array
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "floor.cfg", f"""
[experiment]
name = cpa_ph

[output]
dir = {out}

[madc]
n_bits = 6
""")
    assert main([cfg]) == 0
    assert (out / "cpa_ph.csv").exists()


@pytest.mark.parametrize("experiment, n_bits", [("fra_sweep", 7), ("cv_scan", 8)])
def test_mode_passes_at_its_own_floor(tmp_path, experiment, n_bits):
    # fra_sweep and cv_scan pass every check at their floors in
    # experiments.MODE_MIN_BITS; a bit narrower, each exits 2
    assert experiments.MODE_MIN_BITS[experiment] == n_bits
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "floor.cfg", f"""
[experiment]
name = {experiment}

[output]
dir = {out}

[madc]
n_bits = {n_bits}
""")
    assert main([cfg]) == 0
    assert (out / f"{experiment}.csv").exists()


@pytest.mark.parametrize("key, value", [
    ("pwm.dooty_min", "0.04"),
    # keys that once existed but changed no output
    ("madc.t_rd_counts", "16"),
    ("devices.chopper_on", "true"),
])
def test_malformed_key_rejected_without_outputs(tmp_path, key, value):
    out = tmp_path / "out"
    section, name = key.split(".")
    cfg = write_config(tmp_path / "bad.cfg", """
[experiment]
name = pwm_sweep
seed = 1

[%s]
%s = %s

[output]
dir = %s
""" % (section, name, value, out))
    assert main([cfg]) == 2
    assert not out.exists()


@pytest.mark.parametrize("experiment, key, value", [
    ("regulation_steps", "regulation.setpoints", "95"),
    ("fra_sweep", "is_mode.f_hi", "20000"),
    ("fra_sweep", "is_mode.f_lo", "0.05"),
])
def test_domain_error_exits_2_without_outputs(tmp_path, capsys, experiment,
                                              key, value):
    out = tmp_path / "out"
    section, name = key.split(".")
    cfg = write_config(tmp_path / "domain.cfg", """
[experiment]
name = %s
seed = 1

[%s]
%s = %s

[output]
dir = %s
""" % (experiment, section, name, value, out / "run"))
    assert main([cfg]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    assert key in err
    assert not out.exists()


def test_over_long_is_period_exits_2_quickly_without_outputs(tmp_path, capsys):
    # at f_clk = 1e10 the 0.1 Hz point would take one 48.8M-conversion
    # period; it is rejected before any table is built
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "long.cfg", """
[experiment]
name = fra_sweep
seed = 1

[madc]
f_clk = 1e10

[output]
dir = %s
""" % (out / "run"))
    start = time.perf_counter()
    assert main([cfg]) == 2
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    for key in ("madc.f_clk", "madc.n_bits", "is_mode.f_lo"):
        assert key in err
    assert not out.exists()


@pytest.mark.parametrize("f_lo, f_hi, per_decade, n_pts", [
    (0.1, 1e4, 10, 51),       # the default grid
    (0.11, 9999.0, 10, 50),   # the next point would be 11 kHz
    (0.1, 9600.0, 10, 50),    # the next point would be 10 kHz
    (1.0, 1000.0, 3, 10),
    (0.3, 3000.0, 4, 17),
    (0.5, 0.5, 7, 1),
    (0.14, 1400.0, 1, 5),     # 0.14 * 10.0 ** 4 rounds to 1400.0000000000002
    (0.14, 1.4, 1, 2),        # log10(1.4 / 0.14) rounds to 0.9999999999999999
])
def test_fra_grid_stays_inside_f_lo_f_hi(f_lo, f_hi, per_decade, n_pts):
    settings = copy.deepcopy(SCHEMA)
    settings["is_mode"].update(f_lo=f_lo, f_hi=f_hi, points_per_decade=per_decade)
    freqs = _fra_frequencies(settings)
    steps = f_lo * 10.0 ** (np.arange(n_pts) / per_decade)
    assert np.array_equal(freqs[:-1], steps[:-1])
    assert freqs[-1] == pytest.approx(steps[-1], rel=1e-15)
    assert freqs.max() <= f_hi
    # the grid ends at the last whole step at or below f_hi
    assert f_lo * 10.0 ** (n_pts / per_decade) > f_hi


@pytest.mark.parametrize("key, value", [
    ("regulation.plateau_s", "nan"),
    ("regulation.plateau_s", "inf"),
    ("regulation.setpoints", "nan 45"),
])
def test_non_finite_number_exits_2_without_outputs(tmp_path, capsys, key,
                                                   value):
    out = tmp_path / "out"
    section, name = key.split(".")
    cfg = write_config(tmp_path / "nonfinite.cfg", """
[experiment]
name = regulation_steps
seed = 1

[%s]
%s = %s

[output]
dir = %s
""" % (section, name, value, out))
    assert main([cfg]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment, settings, key", [
    ("characterize_sensor", {"characterize": "t_step = 0"}, "characterize.t_step"),
    ("characterize_sensor", {"characterize": "t_step = -1"}, "characterize.t_step"),
    ("die_error_sweep", {"characterize": "t_lo = 90\nt_hi = 20"},
     "characterize.t_lo"),
    ("characterize_sensor", {"characterize": "t_hi = 21\nt_step = 5"},
     "characterize.t_step"),
    ("die_error_sweep", {"characterize": "n_dies = 0"}, "characterize.n_dies"),
    ("channel_spread", {"spread": "n_seeds = 0"}, "spread.n_seeds"),
    ("characterize_sensor", {"array": "rows = 0"}, "array.rows"),
    ("channel_spread", {"array": "cols = 0"}, "array.cols"),
    ("characterize_sensor", {"madc": "conversion_noise_counts = -1"},
     "madc.conversion_noise_counts"),
    ("fra_sweep", {"is_mode": "f_lo = 100\nf_hi = 10"}, "is_mode.f_lo"),
    ("fra_sweep", {"is_mode": "f_lo = 0"}, "is_mode.f_lo"),
    ("fra_sweep", {"is_mode": "amplitude = 0"}, "is_mode.amplitude"),
    ("fra_sweep", {"is_mode": "amplitude = -0.01"}, "is_mode.amplitude"),
    ("fra_sweep", {"is_mode": "points_per_decade = 0"},
     "is_mode.points_per_decade"),
    ("fra_sweep", {"is_mode": "n_periods = 0"}, "is_mode.n_periods"),
    ("characterize_sensor", {"characterize": "t_hi = 94.5"},
     "characterize.t_hi"),
    ("die_error_sweep", {"characterize": "t_lo = 15"}, "characterize.t_lo"),
    # a partial PID tuning was silently replaced by the default one
    ("regulation_steps", {"pid": "ki = 50\nkd = 30"}, "pid.kp"),
    ("regulation_steps", {"pid": "kp = 20"}, "pid.ki"),
    # a straight-line fit needs two pH points
    ("cpa_ph", {"cpa": "ph_steps = 1"}, "cpa.ph_steps"),
    ("snr_test", {"snr": "n_samples = 1"}, "snr.n_samples"),
    ("snr_test", {"snr": "freq = -15"}, "snr.freq"),
    ("madc_oracle", {"oracle": "n_draws = 0"}, "oracle.n_draws"),
    ("pid_oracle", {"oracle": "n_tuples = 0"}, "oracle.n_tuples"),
    ("pid_oracle", {"oracle": "n_steps = 0"}, "oracle.n_steps"),
    ("regulation_steps", {"regulation": "setpoints ="}, "regulation.setpoints"),
    ("pwm_sweep", {"pwm": "tap_mismatch_sigma = -1"}, "pwm.tap_mismatch_sigma"),
    ("channel_spread", {"spread": "t_force = 95"}, "spread.t_force"),
    ("die_error_sweep", {"mismatch": "sigma_r1 = -0.01"}, "mismatch.sigma_r1"),
    # a full scale at or below the largest calibration preload (63)
    ("characterize_sensor", {"madc": "n_bits = 0"}, "madc.n_bits"),
    ("regulation_steps", {"madc": "n_bits = 3"}, "madc.n_bits"),
    ("regulation_steps", {"madc": "n_bits = 5"}, "madc.n_bits"),
    # the experiments that convert without an array read the madc section
    ("snr_test", {"madc": "n_bits = -1"}, "madc.n_bits"),
    ("madc_oracle", {"madc": "n_bits = 0"}, "madc.n_bits"),
    ("snr_test", {"madc": "f_clk = 0"}, "madc.f_clk"),
    # above 21 bits float64 cannot resolve the crossing guard exactly
    ("madc_oracle", {"madc": "n_bits = 22"}, "madc.n_bits"),
    # 1.4M samples, over the 2**20 budget of a CV scan
    ("cv_scan", {"cv": "scan_rate = 1e-4"}, "cv.scan_rate"),
    # one pH point repeated: the slope fit read 0 and the run exited 1
    ("cpa_ph", {"cpa": "ph_lo = 7\nph_hi = 7"}, "cpa.ph_lo"),
    # pH ends whose currents saturate the CPA full scale: the slope fit
    # collapsed to -7.5e-26 and the run exited 1
    ("cpa_ph", {"cpa": "ph_lo = 20\nph_hi = 30"}, "cpa.ph_lo"),
    # 70000001 sweep points: the run died in an allocation error, exit 1
    ("characterize_sensor", {"characterize": "t_step = 1e-6"}, "characterize.t_step"),
    # a converter narrower than the measurement modes' floors
    # (experiments.MODE_MIN_BITS): without them, each exited 1 at 5 bits
    # (fra_sweep read a 6.41 % magnitude error against 2 %)
    ("fra_sweep", {"madc": "n_bits = 5"}, "madc.n_bits"),
    ("cpa_ph", {"madc": "n_bits = 5"}, "madc.n_bits"),
    # setpoints below the 25 degC ambient, which the heater cannot cool
    # to: the run read steady-state errors of 5.0 and 4.0 degC and exited 1
    ("regulation_steps", {"regulation": "setpoints = 20 21"}, "regulation.setpoints"),
    # the measurement modes' floor, as for fra_sweep and cpa_ph above
    ("cv_scan", {"madc": "n_bits = 5"}, "madc.n_bits"),
    # one bit under each mode's own floor: fra_sweep read a 2.48 % magnitude
    # error (bound 2 %) and cv_scan a 1.022 mV peak error (bound 1 mV), exit 1
    ("fra_sweep", {"madc": "n_bits = 6"}, "madc.n_bits"),
    ("cv_scan", {"madc": "n_bits = 7"}, "madc.n_bits"),
    # a counter wider than 52 bits, whose counts float64 cannot all hold:
    # regulation_steps exited 1 with a TypeError at 61 and 62 bits and an
    # OverflowError at 63, characterize_sensor with an OverflowError
    ("regulation_steps", {"madc": "n_bits = 63"}, "madc.n_bits"),
    ("characterize_sensor", {"madc": "n_bits = 63"}, "madc.n_bits"),
    # a step in the subnormals makes the sweep's point count inf: both
    # sweeps exited 1 with an OverflowError from its ceiling
    ("die_error_sweep", {"characterize": "t_step = 1e-320"}, "characterize.t_step"),
    ("characterize_sensor", {"characterize": "t_step = 1e-320"}, "characterize.t_step"),
    # a clock or full scale so small that a mode's ranged integration cap is
    # inf: each exited 2 naming madc.c_int, a key the config did not set
    ("cpa_ph", {"madc": "f_clk = 5e-324"}, "madc.f_clk"),
    ("cv_scan", {"madc": "v_full = 5e-324"}, "madc.v_full"),
    ("madc_oracle", {"madc": "v_full = 5e-324"}, "madc.v_full"),
])
def test_degenerate_sweep_or_count_exits_2_without_outputs(
        tmp_path, capsys, experiment, settings, key):
    assert_exits_2_without_outputs(tmp_path, capsys, experiment, settings, key)


@pytest.mark.parametrize("ts", ["0.0005", "1e-21"])
def test_pid_period_below_floor_exits_2(tmp_path, capsys, ts):
    # a PID period below the 1 ms floor; at 1e-21 s the tuning divided by
    # zero and the run exited 1 with a traceback.  characterize_sensor
    # builds the array, which reads pid.ts.
    assert_exits_2_without_outputs(tmp_path, capsys, "characterize_sensor",
                                   {"pid": f"ts = {ts}"}, "pid.ts")


def assert_exits_2_without_outputs(tmp_path, capsys, experiment, settings, key):
    out = tmp_path / "out"
    sections = "".join(f"\n[{sec}]\n{body}\n" for sec, body in settings.items())
    cfg = write_config(tmp_path / "degenerate.cfg", """
[experiment]
name = %s
seed = 1
%s
[output]
dir = %s
""" % (experiment, sections, out))
    assert main([cfg]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_characterize_sweep_budget(tmp_path, capsys, monkeypatch):
    # a sweep of MAX_SWEEP_POINTS points runs, and one a point longer
    # exits 2 naming characterize.t_step, without outputs
    monkeypatch.setattr(experiments, "MAX_SWEEP_POINTS", 11)
    for t_hi, code in ((30, 0), (31, 2)):
        out = tmp_path / f"out{t_hi}"
        cfg = write_config(tmp_path / f"sweep{t_hi}.cfg", f"""
[experiment]
name = characterize_sensor
seed = 1

[array]
rows = 1
cols = 2

[characterize]
t_lo = 20
t_hi = {t_hi}
t_step = 1

[output]
dir = {out}
""")
        assert main([cfg]) == code
        if code:
            assert "characterize.t_step" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert len((out / "transfer.csv").read_text().splitlines()) == 1 + 2 * 11


@pytest.mark.parametrize("f_clk", [1, 12])
def test_madc_oracle_holds_at_a_slow_clock(tmp_path, f_clk):
    # a slow clock integrates each draw's charge for longer: a fixed
    # 1e-6 F cap clipped, and the clip-free oracle counted the clips as
    # mismatches (1728 of 2000 at 1 Hz)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "slow.cfg", f"""
[experiment]
name = madc_oracle
seed = 20260809

[madc]
f_clk = {f_clk}

[oracle]
n_draws = 2000

[output]
dir = {out}
""")
    assert main([cfg]) == 0
    assert (out / "madc_oracle_mismatches.csv").read_text().count("\n") == 1


def log_uniform(lo_exp, hi_exp):
    """Positive floats spread evenly over the decades 10**lo_exp .. 10**hi_exp."""
    return st.builds(lambda e, m: m * 10.0 ** e, st.integers(lo_exp, hi_exp - 1),
                     st.floats(1.0, 10.0))


# the domain on which both oracles must pass (README, "Oracle
# domains"); n_draws, n_tuples and n_steps are capped here only to keep
# the test fast
ORACLE_DOMAIN = {
    "experiment": {"seed": st.integers(0, 2**63 - 1)},
    "madc": {
        "n_bits": st.integers(1, MADC_ORACLE_MAX_BITS),
        "f_clk": st.one_of(st.sampled_from([1.0, 12.0]), log_uniform(-100, 100)),
        "c_int": log_uniform(-300, 300),
        "v_full": log_uniform(-100, 100),
        "pid_charge_scale": st.integers(1, 1000),
        "conversion_noise_counts": st.floats(0.0, 100.0),
    },
    "oracle": {
        "n_draws": st.integers(1, 5000),
        "n_tuples": st.integers(1, 20),
        "n_steps": st.integers(1, 1000),
    },
}


def oracle_configs():
    return st.fixed_dictionaries({section: st.fixed_dictionaries(keys)
                                  for section, keys in ORACLE_DOMAIN.items()})


def oracle_config(name, draw, out):
    """Config text that runs experiment name on the drawn settings."""
    sections = {**draw, "experiment": {**draw["experiment"], "name": name},
                "output": {"dir": out}}
    return "".join(f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
                   for section, keys in sections.items())


CORNER = {"experiment": {"seed": 0},
          "madc": {"n_bits": MADC_ORACLE_MAX_BITS, "f_clk": 1.0, "c_int": 1e-300,
                   "v_full": 1e-100, "pid_charge_scale": 1,
                   "conversion_noise_counts": 0.0},
          "oracle": {"n_draws": 2000, "n_tuples": 1, "n_steps": 1}}


@settings(max_examples=50, deadline=None)
@example(CORNER)
@example({**CORNER, "madc": {**CORNER["madc"], "n_bits": 1, "f_clk": 12.0}})
@given(oracle_configs())
def test_oracles_pass_on_their_domain(draw):
    # both oracles exit 0 on every config drawn from their stated
    # domain: slow and fast clocks, one-bit to 21-bit converters, tiny
    # and huge caps and full scales, with any seed
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("madc_oracle", "pid_oracle"):
            path = os.path.join(tmp, f"{name}.cfg")
            with open(path, "w") as fh:
                fh.write(oracle_config(name, draw, os.path.join(tmp, name)))
            assert main([path]) == 0, (name, draw)


def test_schedule_that_returns_to_a_setpoint_checks_each_plateau(tmp_path):
    # 35 45 35: the second 35 degC plateau gets its own four checks; the
    # two 35 degC plateaus once merged into one, with a 92 s rise time
    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                       "regulation_return.cfg")
    out = tmp_path / "out"
    assert main([cfg, "--out", str(out)]) == 0
    names = [line.split(",")[0]
             for line in (out / "summary.csv").read_text().splitlines()[1:]]
    assert len(names) == 13 == len(set(names))
    assert names[8:12] == ["sp35_2_rise5_s", "sp35_2_ss_abs_error_c",
                           "sp35_2_inst_error_c", "sp35_2_settled"]


def test_unknown_section_and_missing_seed(tmp_path):
    cfg = write_config(tmp_path / "c1.cfg", "[wat]\nx = 1\n")
    with pytest.raises(ConfigurationError, match=r"\[wat\]"):
        load_config(cfg)
    cfg2 = write_config(tmp_path / "c2.cfg",
                        "[experiment]\nname = madc_oracle\n")
    with pytest.raises(ConfigurationError, match="seed"):
        load_config(cfg2)


def test_key_path_in_diagnostic(tmp_path):
    cfg = write_config(tmp_path / "c3.cfg", """
[experiment]
name = pwm_sweep
seed = 1

[madc]
n_bits = nine
""")
    with pytest.raises(ConfigurationError, match="madc.n_bits"):
        load_config(cfg)


@pytest.mark.parametrize("body, message", [
    # a % began an interpolation, which configparser rejected
    ("[experiment]\nname = pwm_sweep\nseed = 7%\n", "experiment.seed: expected an "
     "integer, got '7%'"),
    ("[experiment]\nname = pwm_sweep\nseed = 7\nseed = 8\n",
     "{cfg}, line 4: duplicate key experiment.seed"),
    ("[experiment]\nname = pwm_sweep\nseed = 7\n[experiment]\nseed = 8\n",
     "{cfg}, line 4: duplicate section [experiment]"),
    ("name = pwm_sweep\n[experiment]\nseed = 7\n", "{cfg}, line 1: 'name = pwm_sweep'"),
    ("[experiment]\nname = pwm_sweep\nseed 7\n", "{cfg}, line 3: expected key = value"),
    # bytes 0xff 0xfe in a comment: a UnicodeDecodeError traceback
    ("[experiment]\nname = pwm_sweep\nseed = 7\n# \xff\xfe\n", "{cfg}, byte 41: not UTF-8 text"),
], ids=["percent", "duplicate_key", "duplicate_section", "no_section_header", "no_equals",
        "invalid_utf8"])
def test_malformed_file_exits_2_without_outputs(tmp_path, capsys, body, message):
    # each exited 1 with a configparser traceback
    out = tmp_path / "out"
    cfg = str(tmp_path / "bad.cfg")
    # one byte per character, so a body can hold bytes that are not UTF-8
    (tmp_path / "bad.cfg").write_bytes(f"{body}\n[output]\ndir = {out}\n".encode("latin-1"))
    assert main([cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message.format(cfg=cfg) in err
    assert not out.exists()


def test_percent_in_a_value_is_literal(tmp_path):
    cfg = write_config(tmp_path / "pct.cfg", GOOD.format(out="out%(x)s%"))
    assert load_config(cfg)["output"]["dir"] == "out%(x)s%"


def test_unknown_experiment_exits_2(tmp_path):
    cfg = write_config(tmp_path / "c4.cfg",
                       "[experiment]\nname = not_a_thing\n")
    assert main([cfg, "--out", str(tmp_path / "o")]) == 2


def test_missing_config_usage_error():
    assert main([]) == 2


def test_seed_override(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    cfg = write_config(tmp_path / "c5.cfg", GOOD.format(out=out1))
    assert main([cfg, "--seed", "99", "--out", str(out2)]) == 0
    assert (out2 / "summary.csv").exists()


def test_seed_override_supplies_a_missing_seed(tmp_path, capsys):
    # a stochastic config without experiment.seed runs on --seed, as on
    # the same seed in the config; load_config required the seed before
    # the override was applied, and the run exited 2
    outs = [tmp_path / name for name in ("config", "missing", "override")]
    with_seed = write_config(tmp_path / "seed.cfg", GOOD.format(out=outs[0]))
    without = write_config(tmp_path / "noseed.cfg",
                           GOOD.format(out=outs[1]).replace("seed = 7\n", ""))
    assert main([with_seed]) == 0
    assert main([without]) == 2
    assert "experiment.seed" in capsys.readouterr().err
    assert not outs[1].exists()
    assert main([without, "--seed", "7", "--out", str(outs[2])]) == 0
    for name in os.listdir(outs[0]):
        assert (outs[2] / name).read_bytes() == (outs[0] / name).read_bytes()


@pytest.mark.parametrize("in_config", [True, False])
def test_negative_seed_exits_2_without_outputs(tmp_path, capsys, in_config):
    # numpy's seed sequences take no negative int: the run ended in its
    # ValueError traceback, exit 1, from the config and from --seed alike
    out = tmp_path / "out"
    body = GOOD.format(out=out)
    if in_config:
        body = body.replace("seed = 7", "seed = -1")
    cfg = write_config(tmp_path / "seed.cfg", body)
    assert main([cfg] if in_config else [cfg, "--seed", "-1"]) == 2
    assert "experiment.seed" in capsys.readouterr().err
    assert not out.exists()


def test_defaults_complete():
    # every experiment can run off schema defaults plus a seed
    settings = {sec: dict(keys) for sec, keys in SCHEMA.items()}
    assert set(SCHEMA["experiment"]) == {"name", "seed"}
    assert all(name in EXPERIMENTS for name in
               ("characterize_sensor", "die_error_sweep", "pwm_sweep",
                "regulation_steps", "channel_spread", "madc_oracle",
                "pid_oracle", "fra_sweep", "cpa_ph", "cv_scan", "snr_test"))


# the experiment that checks each numeric key: a cheap one that reads it,
# by section.key or else by section.  characterize_sensor builds the
# array, so it reads every key that build_array reads; it runs a sweep
# of three points (COARSE_SWEEP) for a key of another section.
KEY_EXPERIMENTS = {
    "array": "characterize_sensor", "devices": "characterize_sensor",
    "mismatch": "characterize_sensor", "thermal": "characterize_sensor",
    "madc": "cpa_ph", "pid": "characterize_sensor", "pwm": "characterize_sensor",
    "regulation": "regulation_steps", "is_mode": "fra_sweep", "cpa": "cpa_ph",
    "cv": "cv_scan", "snr": "snr_test", "oracle.n_draws": "madc_oracle",
    "oracle": "pid_oracle", "spread": "channel_spread",
    "characterize.n_dies": "die_error_sweep", "characterize": "characterize_sensor",
}
COARSE_SWEEP = "[characterize]\nt_step = 35\n"
NUMERIC_KEYS = [f"{section}.{name}" for section, keys in SCHEMA.items()
                if section != "experiment" for name, default in keys.items()
                if default is None or type(default) in (int, float)]


@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_numeric_key_at_zero_and_minus_one_exits_cleanly(tmp_path, capsys, key):
    # 0 and -1 run, fail a check, or exit 2 with a message that names the
    # key and no output directory left; never a traceback
    section, name = key.split(".")
    experiment = KEY_EXPERIMENTS.get(key, KEY_EXPERIMENTS[section])
    coarse = (COARSE_SWEEP if experiment == "characterize_sensor" and section != "characterize"
              else "")
    for value in ("0", "-1"):
        out = tmp_path / value / "out"
        cfg = write_config(tmp_path / "key.cfg", """
[experiment]
name = %s
seed = 1

[%s]
%s = %s

%s
[output]
dir = %s
""" % (experiment, section, name, value, coarse, out))
        code = main([cfg])
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        if code == 2:
            assert key in err, (value, err)
            assert not out.exists()
