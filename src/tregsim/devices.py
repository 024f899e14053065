"""Temperature-dependent device models.

Covers the bipolar junctions used for sensing, the CTAT/PTAT current
sources (per-instance parameters may be arrays), and the sensor front
ends of the CPA and CV modes as plain functions.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import check_fields, setting
from .errors import DomainError, greatest, least, require

K_BOLTZMANN = 1.380649e-23    # J/K
Q_ELECTRON = 1.602176634e-19  # C


def thermal_voltage(t):
    """kT/q in volts; t in kelvin."""
    return K_BOLTZMANN * np.asarray(t, dtype=float) / Q_ELECTRON


@dataclass(frozen=True)
class BjtParams:
    """Base-emitter voltage model of a substrate pnp.

    vg0 is the bandgap voltage extrapolated to 0 K, n_proc the process
    curvature constant, and vbe_at_tref anchors the curve at t_ref.
    vbe_offset is the realized per-instance offset (drawn once per cell,
    or an array holding one per cell).
    """

    vg0: float = setting("devices.vg0")
    n_proc: float = setting("devices.n_proc")
    t_ref: float = setting("devices.t_ref")
    vbe_at_tref: float = setting("devices.vbe_at_tref")
    vbe_offset: float = 0.0

    def __post_init__(self):
        check_fields(self)
        require(self.vg0 > self.vbe_at_tref, "devices.vg0",
                f"above devices.vbe_at_tref ({self.vbe_at_tref!r})", self.vg0)


@dataclass(frozen=True)
class CurrentSourceParams:
    """CTAT/PTAT current source parameters.

    r1 converts the base-emitter voltage to the CTAT current, divided
    down by mirror_ratio.  r2 converts the scaled delta-vbe of a pair
    biased at bias_current_ratio to the PTAT current, scaled by alpha.
    r1, r2 and mirror_ratio may be arrays holding one value per cell.
    """

    r1: float = setting("devices.r1")
    r2: float = setting("devices.r2")
    mirror_ratio: float = setting("devices.mirror_ratio")
    bias_current_ratio: float = setting("devices.bias_current_ratio")
    alpha: float = setting("devices.alpha")

    __post_init__ = check_fields


def vbe(params, t):
    """Base-emitter voltage at temperature t (kelvin), at the
    reference-point bias.

    Linear extrapolation between vg0 and the anchor point, a
    process-curvature log term and params.vbe_offset.  Strictly
    decreasing in t for nominal silicon parameters.
    """
    t = np.asarray(t, dtype=float)
    if least(t) < 250.0 or greatest(t) > 400.0:
        raise DomainError("temperature outside [250 K, 400 K]")
    vt = thermal_voltage(t)
    r = t / params.t_ref
    v = (params.vg0 * (1.0 - r)
         + r * params.vbe_at_tref
         - params.n_proc * vt * np.log(r)
         + params.vbe_offset)
    return v


def delta_vbe(params, t):
    """Difference of two base-emitter voltages biased at the configured
    collector-current ratio: exactly proportional to absolute temperature."""
    t = np.asarray(t, dtype=float)
    if least(t) <= 0:
        raise DomainError("temperature must be positive")
    return thermal_voltage(t) * math.log(params.bias_current_ratio)


def i_ctat(params, bjt, t):
    """CTAT output current: vbe across r1, mirrored down.

    Monotonically decreasing in t.  Noise is added by the converter
    (`madc.conversion_noise_counts`), not here.
    """
    return vbe(bjt, t) / params.r1 / params.mirror_ratio


def i_ptat(params, t):
    """PTAT output current alpha*delta_vbe/r2; linear through the origin in t."""
    return params.alpha * delta_vbe(params, t) / params.r2


# --------------------------------------------------------------------------
# Sensor front ends

# the pH front end: PH_SENSITIVITY (A) per pH unit away from PH_REFERENCE
PH_SENSITIVITY = 1.8e-9
PH_REFERENCE = 7.0
# the bundled CV model: a conductance (S) and a Gaussian peak (A, at V, V wide)
CV_CONDUCTANCE = 2e-7
PEAK_CURRENT = 5e-8
PEAK_V = -0.35
PEAK_WIDTH = 0.06


def ph_current(ph, temp_c):
    """The pH front end's current (A) at ph and temp_c (degC), derated by
    1 %/degC above 25 degC."""
    delta = PH_SENSITIVITY * (ph - PH_REFERENCE)
    derate = 1.0 - 0.01 * max(temp_c - 25.0, 0.0)
    return delta * derate


def gaussian_peak_response(v, t):
    """Bundled test model, a CV response(v, t): ohmic conductance plus a
    Gaussian redox peak at PEAK_V.

    Exists to exercise the voltammetry signal chain, not to model real
    electrode kinetics.
    """
    return CV_CONDUCTANCE * v + PEAK_CURRENT * math.exp(-((v - PEAK_V) ** 2)
                                                        / (2.0 * PEAK_WIDTH ** 2))
