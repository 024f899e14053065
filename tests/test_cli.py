import copy
import os
import time

import numpy as np
import pytest

from tregsim.cli import main
from tregsim.config import SCHEMA, load_config
from tregsim.errors import ConfigurationError
from tregsim.experiments import (EXPERIMENTS, _fra_frequencies,
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
])
def test_degenerate_sweep_or_count_exits_2_without_outputs(
        tmp_path, capsys, experiment, settings, key):
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


def test_defaults_complete():
    # every experiment can run off schema defaults plus a seed
    settings = {sec: dict(keys) for sec, keys in SCHEMA.items()}
    assert set(SCHEMA["experiment"]) == {"name", "seed"}
    assert all(name in EXPERIMENTS for name in
               ("characterize_sensor", "die_error_sweep", "pwm_sweep",
                "regulation_steps", "channel_spread", "madc_oracle",
                "pid_oracle", "fra_sweep", "cpa_ph", "cv_scan", "snr_test"))
