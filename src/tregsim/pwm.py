"""12-bit hybrid counter/delay-line digital PWM.

A 7-bit lap counter and a 32-tap ring give 4096 duty steps of 0.1 us each
over a fixed 409.6 us period.  The optional tap mismatch perturbs the
high time through the accumulated per-stage delay errors.
"""

from dataclasses import dataclass

import numpy as np

from .config import check_fields, setting
from .errors import DomainError, greatest, least, require

# the PWM geometry: 2**COUNTER_BITS laps of a RING_TAPS-cell ring make
# CODES duty steps of CELL_TIME each, over a PERIOD fixed by the code width
N_BITS = 12
COUNTER_BITS = 7
RING_TAPS = 32
CELL_TIME = 1e-7      # delay per ring cell: the duty resolution
CODES = 2 ** N_BITS
PERIOD = CODES * CELL_TIME


@dataclass(frozen=True)
class PwmConfig:
    duty_min: float = setting("pwm.duty_min")
    duty_max: float = setting("pwm.duty_max")
    # fraction of the nominal tap delay
    tap_mismatch_sigma: float = setting("pwm.tap_mismatch_sigma")

    def __post_init__(self):
        check_fields(self)
        require(self.duty_min < self.duty_max, "pwm.duty_max",
                f"above pwm.duty_min ({self.duty_min!r})", self.duty_max)


def sample_tap_delays(cfg, rng):
    """Draw the per-stage ring delays for one instance (static per run)."""
    return CELL_TIME * (1.0 + rng.normal(0.0, cfg.tap_mismatch_sigma, size=RING_TAPS))


def duty_of_code(cfg, code, tap_delays=None):
    """Duty fraction produced by a 12-bit code.

    Nominal: clamp(code/4096, duty_min, duty_max).  With tap delays, the
    high time is the sum of full ring laps plus the partial lap up to the
    tap selected by the 5 LSBs, over the fixed nominal period.  Accepts
    scalar or array codes.
    """
    code = np.asarray(code)
    if least(code) < 0 or greatest(code) >= CODES:
        raise DomainError("code outside the 12-bit range")
    if tap_delays is None:
        duty = code / CODES
    else:
        lap = tap_delays.sum()
        partial = np.concatenate(([0.0], np.cumsum(tap_delays)))
        n_c = code >> (N_BITS - COUNTER_BITS)
        n_d = code & (RING_TAPS - 1)
        high = n_c * lap + partial[n_d]
        duty = high / PERIOD
    return np.minimum(np.maximum(duty, cfg.duty_min), cfg.duty_max)


def high_time(cfg, code):
    """Nominal high time (s) of each PWM period at a 12-bit code: its
    duty quantized to the ring-cell resolution.  Every period lasts
    PERIOD, whatever the code."""
    return np.round(duty_of_code(cfg, code) * CODES) * CELL_TIME
