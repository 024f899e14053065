"""Behavioral simulator of a distributed on-chip temperature-regulation
array with a shared current-to-digital conversion channel.

The converter digitizes the ratio of a CTAT to a PTAT current, computes
the control products of a velocity-form PID by coefficient-scaled charge
phases and counter preloads, and drives in-cell heaters through a 12-bit
hybrid PWM.  The same channel serves the amperometric measurement modes
(constant-potential, voltammetry, impedance spectroscopy).
"""

from .array_sim import ArrayConfig, TempArray
from .errors import ConfigurationError, DomainError

__version__ = "0.1.0"
