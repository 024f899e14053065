"""Acceptance suite: every release criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line.  Criteria run through the same
experiment implementations the CLI exposes.
"""

import copy
import filecmp
import os
import time

from tregsim.config import SCHEMA
from tregsim.experiments import run_experiment

SEED = 20260809


def settings_for(name, seed=SEED, **overrides):
    s = copy.deepcopy(SCHEMA)
    s["experiment"]["name"] = name
    s["experiment"]["seed"] = seed
    for section, keys in overrides.items():
        s[section].update(keys)
    return s


def run_and_report(criterion, name, tmpdir, max_runtime=None, **overrides):
    t0 = time.perf_counter()
    checks = run_experiment(settings_for(name, **overrides), str(tmpdir))
    elapsed = time.perf_counter() - t0
    failed = [c for c in checks if not c.passed]
    runtime_ok = max_runtime is None or elapsed <= max_runtime
    status = "PASS" if (not failed and runtime_ok) else "FAIL"
    print(f"{status} {criterion} [{name}] ({elapsed:.1f}s): "
          f"{len(checks) - len(failed)}/{len(checks)} checks")
    for c in failed:
        print(f"      failed: {c.name} = {c.value!r} (bound {c.bound})")
    if not runtime_ok:
        print(f"      runtime {elapsed:.1f}s exceeds {max_runtime}s")
    assert not failed
    assert runtime_ok
    return checks


def test_criterion_1_sensor_accuracy(tmp_path):
    # 7 seeded dies over 20-90 degC, one-point calibrated: every die's
    # error within +-0.5 degC at every sweep point; runtime < 10 s
    run_and_report("criterion-1 sensor linearity/accuracy", "die_error_sweep",
                   tmp_path, max_runtime=10.0)


def test_criterion_2_channel_spread(tmp_path):
    # 54 calibrated channels forced to 50 degC over 10 seeds:
    # mean within [49.7, 50.3], sigma <= 0.25 degC
    run_and_report("criterion-2 channel spread", "channel_spread", tmp_path)


def test_criterion_3_pwm(tmp_path):
    # nominal transfer linear within 1 LSB between the 4%/96% clamps,
    # 4096 codes, 0.1 us step, fitted mismatch error <= 0.82%
    run_and_report("criterion-3 pwm transfer", "pwm_sweep", tmp_path)


def test_criterion_4_regulation_transient(tmp_path):
    # 35/45/55/65 degC schedule: plateau steady-state error <= 0.5 degC,
    # instantaneous error <= 0.75 degC after settling, the last 5 degC of
    # each step covered in 10 s +- 30%; wall runtime < 60 s
    run_and_report("criterion-4 regulation transient", "regulation_steps",
                   tmp_path, max_runtime=60.0)


def test_criterion_5_madc_oracle(tmp_path):
    # 1e5 random draws: converter equals the exact integer oracle in
    # 100% of cases
    run_and_report("criterion-5 converter oracle", "madc_oracle", tmp_path)


def test_criterion_6_pid_oracle(tmp_path):
    # 20 random gain tuples, 1000 steps: quantized recurrence within the
    # documented coefficient-quantization bound of the direct simulation
    run_and_report("criterion-6 controller oracle", "pid_oracle", tmp_path)


def test_criterion_7_fra(tmp_path):
    # series RC and parallel RC, 0.1 Hz - 10 kHz at 10 points/decade:
    # |Z| within 2%, phase within 2 degrees, noise disabled
    run_and_report("criterion-7 impedance extraction", "fra_sweep", tmp_path)


def test_criterion_8_snr(tmp_path):
    # full-scale 15 Hz sine, noise-free, 10 MHz clock: SNR >= 56 dB
    run_and_report("criterion-8 snr", "snr_test", tmp_path)


def test_criterion_9_determinism(tmp_path):
    # identical config and seed give byte-identical CSV outputs
    for name in ("pwm_sweep", "characterize_sensor"):
        d1 = tmp_path / f"{name}_a"
        d2 = tmp_path / f"{name}_b"
        run_experiment(settings_for(name), str(d1))
        run_experiment(settings_for(name), str(d2))
        files = sorted(os.listdir(d1))
        assert files == sorted(os.listdir(d2))
        for f in files:
            same = filecmp.cmp(d1 / f, d2 / f, shallow=False)
            assert same, f"{name}/{f} differs between identical runs"
    print("PASS criterion-9 determinism: byte-identical CSVs on rerun")
