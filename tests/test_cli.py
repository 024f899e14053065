import copy
import itertools
import os
import pathlib
import tempfile
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rejections import BY_ID, CASES, CONFIG, OUTPUT, Case, problems, write
from tregsim import experiments
from tregsim.cli import main
from tregsim.config import SCHEMA, load_config
from tregsim.errors import ConfigurationError
from tregsim.experiments import (EXPERIMENTS, MADC_ORACLE_MAX_BITS, STOCHASTIC_EXPERIMENTS,
                                 _fra_frequencies, list_experiments, run_experiment)


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


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


def run_case(case, directory, monkeypatch, *args):
    """The exit code of sim, run in directory on case's config and args."""
    monkeypatch.chdir(directory)
    write(case, directory)
    return main([CONFIG, *args])


# the rows of the degenerate-value test that came before the table, in its
# order, so that each keeps its test ID `experiment-settingsN-key`
DEGENERATE = [BY_ID[id] for id in """
    sweep_step_zero sweep_step_negative sweep_reversed sweep_one_point no_dies no_seeds no_rows
    no_cols negative_noise is_span_reversed is_f_lo_zero is_amplitude_zero
    is_amplitude_negative is_no_points is_no_periods sweep_above_90 sweep_below_20
    partial_gains_no_kp partial_gains_kp_only one_ph_step snr_one_sample snr_negative_freq
    no_draws no_tuples no_steps no_setpoints negative_tap_sigma force_above_90
    negative_sigma_r1 array_zero_bits array_3_bits array_5_bits snr_negative_bits
    oracle_zero_bits snr_zero_clock oracle_22_bits cv_scan_too_long ph_span_empty ph_saturates
    sweep_over_budget fra_5_bits cpa_5_bits setpoints_below_ambient cv_5_bits fra_6_bits
    cv_7_bits wide_counter wide_counter_sweep subnormal_step subnormal_step_sweep
    cpa_tiny_clock cv_tiny_full_scale oracle_tiny_full_scale is_tiny_clock tiny_clock is_budget
    snr_near_dc snr_near_dc_3_cycles flat_map_regulation flat_map flat_map_alpha
    flat_map_alpha_spread zero_slope_r2 zero_slope_r2_dies slow_plant_g_amb
    slow_plant_g_amb_spread slow_plant
""".split()]


@pytest.mark.parametrize("case", [case for case in CASES if case not in DEGENERATE],
                         ids=lambda case: case.id)
def test_rejected_config_exits_2(tmp_path, monkeypatch, capsys, case):
    # each exits 2 with a one-line message that names its keys, and no
    # output directory left; rejections.py says why each is rejected
    code = run_case(case, tmp_path, monkeypatch)
    assert problems(case, code, capsys.readouterr().err, tmp_path) == []


@pytest.mark.parametrize("case", DEGENERATE, ids=[
    f"{case.experiment}-settings{n}-{case.keys[0]}" for n, case in enumerate(DEGENERATE)])
def test_degenerate_sweep_or_count_exits_2_without_outputs(tmp_path, monkeypatch, capsys, case):
    test_rejected_config_exits_2(tmp_path, monkeypatch, capsys, case)


def test_over_long_is_period_exits_2_quickly_without_outputs(tmp_path, monkeypatch, capsys):
    # at f_clk = 1e10 the 0.1 Hz point would take one 48.8M-conversion
    # period; it is rejected before any table is built
    case = BY_ID["is_period_too_long"]
    start = time.perf_counter()
    code = run_case(case, tmp_path, monkeypatch)
    assert time.perf_counter() - start < 2.0
    assert problems(case, code, capsys.readouterr().err, tmp_path) == []


def test_negative_seed_flag_exits_2(tmp_path, monkeypatch, capsys):
    # --seed -1 on a config whose own seed runs is rejected as seed = -1
    # in the config is
    case = BY_ID["negative_seed"]
    code = run_case(case._replace(config={}), tmp_path, monkeypatch, "--seed", "-1")
    assert problems(case, code, capsys.readouterr().err, tmp_path) == []


def test_readme_rejection_table_is_the_cases():
    text = README.read_text().split("### Rejected configs\n", 1)[1]
    rows = text[text.index("| id | experiment | keys | reason |"):].splitlines()[2:]
    assert list(itertools.takewhile(lambda row: row.startswith("|"), rows)) == [
        f"| `{case.id}` | `{case.experiment}` | {', '.join(f'`{key}`' for key in case.keys)} "
        f"| {case.reason} |" for case in CASES]
    assert len(BY_ID) == len(CASES)


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


def test_characterize_sweep_budget(tmp_path, monkeypatch, capsys):
    # a sweep of MAX_SWEEP_POINTS points runs, and one a point longer
    # exits 2 naming characterize.t_step, without outputs
    monkeypatch.setattr(experiments, "MAX_SWEEP_POINTS", 11)
    fits, over = (Case("budget", "characterize_sensor", {
        "array.rows": 1, "array.cols": 2, "characterize.t_lo": 20, "characterize.t_hi": t_hi,
        "characterize.t_step": 1}, ("characterize.t_step",), "") for t_hi in (30, 31))
    assert_budget(tmp_path, monkeypatch, capsys, fits, over, "transfer.csv")


def test_is_sweep_budget(tmp_path, monkeypatch, capsys):
    # a sweep of MAX_FRA_POINTS points runs, and one a point longer exits 2
    # naming is_mode.points_per_decade, without outputs
    monkeypatch.setattr(experiments, "MAX_FRA_POINTS", 11)
    fits, over = (Case("budget", "fra_sweep", {
        "is_mode.f_lo": 1, "is_mode.f_hi": 10, "is_mode.points_per_decade": per_decade},
        ("is_mode.points_per_decade",), "") for per_decade in (10, 11))
    assert_budget(tmp_path, monkeypatch, capsys, fits, over, "fra_sweep.csv")


def assert_budget(tmp_path, monkeypatch, capsys, fits, over, csv):
    """fits writes 11 points to csv; over, a point longer, is rejected."""
    (tmp_path / "fits").mkdir()
    assert run_case(fits, tmp_path / "fits", monkeypatch) == 0
    assert len((tmp_path / "fits" / OUTPUT / csv).read_text().splitlines()) == 1 + 2 * 11
    (tmp_path / "over").mkdir()
    code = run_case(over, tmp_path / "over", monkeypatch)
    assert problems(over, code, capsys.readouterr().err, tmp_path / "over") == []


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
    # the seed is the experiment's to demand: a config loads without one,
    # and run_experiment rejects a stochastic experiment that has none
    # before it makes any directory (it ran on fresh OS entropy)
    cfg2 = write_config(tmp_path / "c2.cfg",
                        "[experiment]\nname = madc_oracle\n")
    settings = load_config(cfg2)
    assert settings["experiment"]["seed"] is None
    for name in sorted(STOCHASTIC_EXPERIMENTS):
        settings["experiment"]["name"] = name
        with pytest.raises(ConfigurationError, match=f"^experiment.seed is required for {name}$"):
            run_experiment(settings, str(tmp_path / "out" / name))
        assert not (tmp_path / "out").exists()


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


def test_percent_in_a_value_is_literal(tmp_path):
    cfg = write_config(tmp_path / "pct.cfg", GOOD.format(out="out%(x)s%"))
    assert load_config(cfg)["output"]["dir"] == "out%(x)s%"


def test_missing_config_usage_error():
    assert main([]) == 2


def test_seed_override(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    cfg = write_config(tmp_path / "c5.cfg", GOOD.format(out=out1))
    assert main([cfg, "--seed", "99", "--out", str(out2)]) == 0
    assert (out2 / "summary.csv").exists()


def test_seed_override_supplies_a_missing_seed(tmp_path, monkeypatch, capsys):
    # a stochastic config without experiment.seed runs on --seed, as on
    # the same seed in the config; load_config required the seed before
    # the override was applied, and the run exited 2
    case = BY_ID["no_seed"]
    code = run_case(case, tmp_path, monkeypatch)
    assert problems(case, code, capsys.readouterr().err, tmp_path) == []
    assert main([CONFIG, "--seed", "1", "--out", "override"]) == 0
    assert run_case(case._replace(config={}), tmp_path, monkeypatch) == 0
    run, override = tmp_path / OUTPUT, tmp_path / "override"
    for name in os.listdir(run):
        assert (override / name).read_bytes() == (run / name).read_bytes()


def test_defaults_complete():
    # every experiment can run off schema defaults plus a seed
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
COARSE_SWEEP = {"characterize.t_step": 35}
NUMERIC_KEYS = [f"{section}.{name}" for section, keys in SCHEMA.items()
                if section != "experiment" for name, default in keys.items()
                if default is None or type(default) in (int, float)]


@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_numeric_key_at_zero_and_minus_one_exits_cleanly(tmp_path, monkeypatch, capsys, key):
    # 0 and -1 run, fail a check, or exit 2 with a message that names the
    # key and no output directory left; never a traceback
    section = key.split(".")[0]
    experiment = KEY_EXPERIMENTS.get(key, KEY_EXPERIMENTS[section])
    coarse = (COARSE_SWEEP if experiment == "characterize_sensor" and section != "characterize"
              else {})
    for value in (0, -1):
        case = Case(key, experiment, {key: value, **coarse}, (key,), "")
        (tmp_path / str(value)).mkdir()
        code = run_case(case, tmp_path / str(value), monkeypatch)
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        if code == 2:
            assert problems(case, code, err, tmp_path / str(value)) == []
