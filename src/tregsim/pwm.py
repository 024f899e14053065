"""12-bit hybrid counter/delay-line digital PWM.

A 7-bit lap counter and a 32-tap ring give 4096 duty steps of 0.1 us each
over a fixed 409.6 us period.  The optional tap mismatch perturbs the
high time through the accumulated per-stage delay errors.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError


@dataclass(frozen=True)
class PwmConfig:
    n_bits: int = 12
    counter_bits: int = 7
    ring_taps: int = 32
    duty_min: float = 0.04
    duty_max: float = 0.96
    tap_mismatch_sigma: float = 0.018  # fraction of the nominal tap delay
    cell_time: float = 1e-7       # delay per ring cell: the duty resolution

    def __post_init__(self):
        if 2 ** self.counter_bits * self.ring_taps != 2 ** self.n_bits:
            raise ConfigurationError("counter laps x ring taps must equal 2**n_bits")
        if not (0.0 <= self.duty_min < self.duty_max <= 1.0):
            raise ConfigurationError("require 0 <= duty_min < duty_max <= 1")

    @property
    def codes(self):
        return 2 ** self.n_bits

    @property
    def period(self):
        return self.codes * self.cell_time


def sample_tap_delays(cfg, rng):
    """Draw the per-stage ring delays for one instance (static per run)."""
    return cfg.cell_time * (1.0 + rng.normal(0.0, cfg.tap_mismatch_sigma,
                                             size=cfg.ring_taps))


def duty_of_code(cfg, code, tap_delays=None):
    """Duty fraction produced by a 12-bit code.

    Nominal: clamp(code/4096, duty_min, duty_max).  With tap delays, the
    high time is the sum of full ring laps plus the partial lap up to the
    tap selected by the 5 LSBs, over the fixed nominal period.  Accepts
    scalar or array codes.
    """
    code = np.asarray(code)
    if np.any(code < 0) or np.any(code >= cfg.codes):
        raise DomainError("code outside the 12-bit range")
    if tap_delays is None:
        duty = code / cfg.codes
    else:
        lap = tap_delays.sum()
        partial = np.concatenate(([0.0], np.cumsum(tap_delays)))
        n_c = code >> (cfg.n_bits - cfg.counter_bits)
        n_d = code & (cfg.ring_taps - 1)
        high = n_c * lap + partial[n_d]
        duty = high / cfg.period
    duty = np.clip(duty, cfg.duty_min, cfg.duty_max)
    if duty.ndim:
        return duty
    return float(duty)


def pulse_train(cfg, code, horizon, tap_delays=None):
    """Rising/falling edge times over a horizon; period is code-independent.

    Returns an (n, 2) array of (rise, fall) pairs.  High times are
    quantized to the ring-cell resolution.
    """
    if horizon < cfg.period:
        raise ConfigurationError("horizon shorter than one PWM period")
    duty = duty_of_code(cfg, code, tap_delays)
    high = round(duty * cfg.codes) * cfg.cell_time
    n = int(horizon / cfg.period)
    rises = np.arange(n) * cfg.period
    return np.column_stack((rises, rises + high))
