import re

import numpy as np
import pytest

from tregsim.errors import ConfigurationError, DomainError
from tregsim.pwm import CELL_TIME, PERIOD, PwmConfig, duty_of_code, high_time, sample_tap_delays

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


def test_high_time_midscale():
    assert high_time(CFG, 2048) == pytest.approx(204.8e-6, rel=1e-12)
    # the period is fixed by the code width: 4096 ring cells, whatever the code
    assert PERIOD == 4096 * CELL_TIME == pytest.approx(409.6e-6, rel=1e-12)


def test_adjacent_code_step_is_cell_time():
    step = high_time(CFG, 2049) - high_time(CFG, 2048)
    assert step == pytest.approx(0.1e-6, rel=1e-9)


def test_cycle_average_equals_duty():
    for code in (300, 2048, 3900):
        assert high_time(CFG, code) / PERIOD == pytest.approx(duty_of_code(CFG, code), abs=1e-12)


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
