import copy
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import tregsim
from tregsim import experiments
from tregsim.array_sim import run_cv
from tregsim.config import SCHEMA
from tregsim.errors import ConfigurationError
from tregsim.experiments import _fmt, reverse_scan_mirrors, run_experiment, write_csv
from tregsim.madc import MadcConfig, convert


FORMAT_CASES = [
    (True, "1"), (False, "0"), (np.bool_(True), "1"), (np.bool_(False), "0"),
    (7, "7"), (-3, "-3"), (2**70, str(2**70)), (np.int64(-12), "-12"),
    (0.1, "0.1"), (1e-300, "1e-300"), (np.float64(2.5e-9), "2.5e-09"),
    (-0.0, "-0.0"), (np.float64(-0.0), "-0.0"), (math.nan, "nan"),
    (np.float64(math.nan), "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
    ("series_rc", "series_rc"),
]


@pytest.mark.parametrize("value, text", FORMAT_CASES)
def test_format_cell_follows_fmt_rules(value, text, tmp_path):
    # the column writer writes what _fmt writes: a bool as 0/1, never as
    # an int, an integer in decimal, a float by its repr.  A list column
    # goes through _fmt; an array column is formatted by its dtype
    assert _fmt(value) == text
    path = tmp_path / "cell.csv"
    columns = [[value]]
    if np.array([value]).dtype.kind in ("b", "i", "f"):
        columns.append(np.array([value]))
    for column in columns:
        write_csv(path, ["a"], column)
        assert path.read_text() == f"a\n{text}\n"


def test_write_csv_writes_fmt_cells(tmp_path):
    # one row per item, columns in header order; an array of a dtype
    # without its own formatter goes through _fmt
    columns = [[value for value, _ in FORMAT_CASES], np.arange(len(FORMAT_CASES), dtype=np.uint8),
               np.full(len(FORMAT_CASES), 0.1, dtype=np.float32),
               np.full(len(FORMAT_CASES), None)]
    path = tmp_path / "cells.csv"
    write_csv(path, ["a", "b", "c", "d"], *columns)
    want = "a,b,c,d\n" + "".join(",".join(_fmt(x) for x in row) + "\n"
                                  for row in zip(*columns))
    assert path.read_text() == want


def test_write_csv_chunks_write_the_same_bytes(tmp_path, monkeypatch):
    # rows are formatted and written CSV_CHUNK_ROWS at a time; chunks of 3
    # rows, with a short last chunk, give the bytes of one unchunked write
    n = 3 * 4 + 2
    columns = [[FORMAT_CASES[i % len(FORMAT_CASES)][0] for i in range(n)],
               np.arange(n) - 5, np.linspace(-1.0, 1.0, n), np.arange(n) % 3 == 0]
    texts = []
    for rows in (n, 3):
        monkeypatch.setattr(experiments, "CSV_CHUNK_ROWS", rows)
        path = tmp_path / f"chunks{rows}.csv"
        write_csv(path, ["a", "b", "c", "d"], *columns)
        texts.append(path.read_bytes())
    assert texts[0] == texts[1]
    assert texts[0].count(b"\n") == n + 1
    write_csv(tmp_path / "empty.csv", ["a", "b"], [], np.array([]))
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"


def test_write_csv_rejects_mismatched_columns(tmp_path):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError):
        write_csv(path, ["a", "b"], np.arange(3), [1, 2])
    with pytest.raises(ValueError):
        write_csv(path, ["a", "b"], np.arange(3))
    with pytest.raises(ValueError):
        write_csv(path, ["a"], np.arange(3), np.arange(3))
    assert not path.exists()


def run_at(tmp_path, name, keys=None):
    """run_experiment of name at the schema defaults and seed 1, with the
    settings that keys gives by "section.key"; its checks and output directory."""
    settings = copy.deepcopy(SCHEMA)
    settings["experiment"].update(name=name, seed=1)
    for key, value in (keys or {}).items():
        section, field = key.split(".")
        settings[section][field] = value
    outdir = tmp_path / f"{name}{len(list(tmp_path.iterdir()))}"
    return run_experiment(settings, str(outdir)), outdir


@pytest.mark.parametrize("value", [4096.7, math.nan, math.inf])
def test_count_setting_must_be_a_whole_number(tmp_path, value):
    # a settings dict can hold a count that a config file would not
    # parse: it is rejected, not truncated, and the error names its key
    with pytest.raises(ConfigurationError, match="snr.n_samples must be a whole number"):
        run_at(tmp_path, "snr_test", {"snr.n_samples": value})
    checks, _ = run_at(tmp_path, "snr_test", {"snr.n_samples": 4096.0})
    assert all(c.passed for c in checks)


def test_snr_test_runs_the_configured_converter(tmp_path):
    # a bit more resolution is about 6 dB more quantization-limited SNR
    checks, base = run_at(tmp_path, "snr_test")
    checks10, finer = run_at(tmp_path, "snr_test", {"madc.n_bits": 10})
    assert (base / "snr.csv").read_text() != (finer / "snr.csv").read_text()
    assert 5.5 < checks10[0].value - checks[0].value < 6.5


def test_madc_oracle_runs_the_configured_converter(tmp_path, monkeypatch):
    # the oracle converts on the configured madc section: a one-bit
    # converter clamps every count to +-2.  Its calibration draws leave
    # every draw a charge phase at any n_bits, so every draw is checked
    # (a one-bit converter once left most draws unchecked, and failed).
    seen = []

    def spy(cfg, *args, **kwargs):
        conv = convert(cfg, *args, **kwargs)
        seen.append((cfg.n_bits, int(np.abs(conv.out_count).max())))
        return conv

    monkeypatch.setattr(experiments, "convert", spy)
    for n_bits in (9, 1):
        checks, _ = run_at(tmp_path, "madc_oracle",
                           {"oracle.n_draws": 1000, "madc.n_bits": n_bits})
        assert all(c.passed for c in checks)
        assert checks[0].value == 1000
    assert seen == [(9, 512), (1, 2)]


def test_reverse_scan_mirrors_needs_a_voltage_only_sensor():
    madc = MadcConfig()
    scan = [SCHEMA["cv"][key] for key in ("v_low", "v_high", "scan_rate")]
    v, i, _ = run_cv(madc, lambda v, t: v / 1e6, *scan)
    assert reverse_scan_mirrors(v, i)
    # a current that drifts with time differs between the sweeps
    v, i, _ = run_cv(madc, lambda v, t: v / 1e6 + 1e-8 * t, *scan)
    assert not reverse_scan_mirrors(v, i)
    # a truncated down-sweep cannot retrace the up-sweep
    v, i, _ = run_cv(madc, lambda v, t: v / 1e6, *scan)
    assert not reverse_scan_mirrors(v[:-1], i[:-1])


# runs each experiment named on its command line at the defaults, then
# prints whether numpy.random was loaded
RANDOM_PROBE = """
import copy, os, sys
from tregsim.config import SCHEMA
from tregsim.experiments import run_experiment
for name in sys.argv[2:]:
    settings = copy.deepcopy(SCHEMA)
    settings["experiment"].update(name=name, seed=1)
    run_experiment(settings, os.path.join(sys.argv[1], name))
print("numpy.random" in sys.modules)
"""


def test_measurement_modes_never_load_numpy_random(tmp_path):
    # fra_sweep, cpa_ph and cv_scan run on the channel's settings alone,
    # so a fresh process that runs them never loads numpy.random;
    # regulation_steps, which draws the array's mismatch, does
    src = os.path.dirname(os.path.dirname(tregsim.__file__))

    def loads_random(*names):
        out = subprocess.run([sys.executable, "-c", RANDOM_PROBE, str(tmp_path), *names],
                             check=True, capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        return out.stdout.strip()

    assert loads_random("fra_sweep", "cpa_ph", "cv_scan") == "False"
    assert loads_random("regulation_steps") == "True"
