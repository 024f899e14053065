"""Behavioral simulator of a distributed on-chip temperature-regulation
array with a shared current-to-digital conversion channel.

The converter digitizes the ratio of a CTAT to a PTAT current, computes
the control products of a velocity-form PID by coefficient-scaled charge
phases and counter preloads, and drives in-cell heaters through a 12-bit
hybrid PWM.  The same channel serves the amperometric measurement modes
(constant-potential, voltammetry, impedance spectroscopy).
"""

from .array_sim import ArrayConfig, TempArray
from .devices import BjtParams, CurrentSourceParams, HeaterParams, delta_vbe, i_ctat, i_ptat, vbe
from .errors import ConfigurationError, DomainError
from .madc import (MadcConfig, TemperatureMap, convert, convert_signed,
                   snr_test)
from .pid import (PidCoefficients, PidState, default_tuning, pid_cycle,
                  transfer_function_response, velocity_response)
from .pwm import PwmConfig, duty_of_code, pulse_train, sample_tap_delays
from .thermal import fit_defaults

__version__ = "0.1.0"
