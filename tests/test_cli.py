import os

import pytest

from tregsim.cli import main
from tregsim.config import SCHEMA, load_config
from tregsim.errors import ConfigurationError
from tregsim.experiments import EXPERIMENTS, list_experiments


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
    assert "config error:" in capsys.readouterr().err
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
