import re

import numpy as np
import pytest

from tregsim.errors import ConfigurationError, DomainError
from tregsim.pwm import PERIOD, PwmConfig, duty_of_code, pulse_train, sample_tap_delays

CFG = PwmConfig()


def test_midscale_and_clamps():
    assert duty_of_code(CFG, 2048) == 0.5
    assert duty_of_code(CFG, 0) == 0.04
    assert duty_of_code(CFG, 4095) == 0.96


def test_monotone_nondecreasing():
    duty = duty_of_code(CFG, np.arange(4096))
    assert np.all(np.diff(duty) >= 0)


def test_nominal_linear_within_one_lsb():
    codes = np.arange(4096)
    duty = duty_of_code(CFG, codes)
    ideal = codes / 4096.0
    band = (ideal >= CFG.duty_min) & (ideal <= CFG.duty_max)
    assert np.abs(duty[band] - ideal[band]).max() * 4096 <= 1.0


def test_out_of_range_code():
    with pytest.raises(DomainError):
        duty_of_code(CFG, 4096)
    with pytest.raises(DomainError):
        duty_of_code(CFG, -1)


def test_code_range_check_on_empty_and_nan_codes():
    # a cycle with every heater off converts no code; a NaN code fails no
    # range comparison, so only another code out of range raises
    assert duty_of_code(CFG, np.array([], dtype=int)).shape == (0,)
    assert np.isnan(duty_of_code(CFG, np.array([np.nan, 2048.0]))[0])
    for bad in (-1.0, 4096.0):
        with pytest.raises(DomainError, match=re.escape("code outside the 12-bit range")):
            duty_of_code(CFG, np.array([np.nan, bad]))


def test_pulse_train_midscale():
    train = pulse_train(CFG, 2048, 10 * PERIOD)
    assert train.shape == (10, 2)
    high = train[0, 1] - train[0, 0]
    assert high == pytest.approx(204.8e-6, rel=1e-12)
    # period constant and independent of code
    assert np.allclose(np.diff(train[:, 0]), PERIOD)
    train2 = pulse_train(CFG, 731, 10 * PERIOD)
    assert np.allclose(np.diff(train2[:, 0]), PERIOD)


def test_adjacent_code_step_is_cell_time():
    a = pulse_train(CFG, 2048, PERIOD)
    b = pulse_train(CFG, 2049, PERIOD)
    step = (b[0, 1] - b[0, 0]) - (a[0, 1] - a[0, 0])
    assert step == pytest.approx(0.1e-6, rel=1e-9)


def test_cycle_average_equals_duty():
    for code in (300, 2048, 3900):
        duty = duty_of_code(CFG, code)
        train = pulse_train(CFG, code, 5 * PERIOD)
        avg = (train[:, 1] - train[:, 0]).sum() / (5 * PERIOD)
        assert avg == pytest.approx(duty, abs=1e-12)


def test_horizon_shorter_than_period():
    with pytest.raises(ConfigurationError):
        pulse_train(CFG, 100, PERIOD / 2)


def test_mismatch_bounded_for_default_sigma():
    codes = np.arange(4096)
    nominal = duty_of_code(CFG, codes)
    worst = 0.0
    for seed in range(8):
        taps = sample_tap_delays(CFG, np.random.default_rng(seed))
        duty = duty_of_code(CFG, codes, taps)
        worst = max(worst, float(np.abs(duty - nominal).max()))
    assert worst <= 0.0082
    # mismatch is static per run: same seed, same transfer
    t1 = sample_tap_delays(CFG, np.random.default_rng(3))
    t2 = sample_tap_delays(CFG, np.random.default_rng(3))
    assert np.array_equal(t1, t2)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        PwmConfig(duty_min=0.5, duty_max=0.4)
