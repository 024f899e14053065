"""Temperature-dependent device models.

Covers the bipolar junctions used for sensing, the CTAT/PTAT current
sources (with trim and per-instance mismatch), the in-cell heater, and the
pluggable sensor front-end models used by the measurement modes.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, DomainError

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
    vbe_offset is the realized per-instance offset (drawn once per cell);
    mismatch_sigma_vbe is the 1-sigma used when drawing it.
    """

    vg0: float = 1.156
    n_proc: float = 4.0
    t_ref: float = 300.0
    vbe_at_tref: float = 0.7
    mismatch_sigma_vbe: float = 1e-3
    vbe_offset: float = 0.0

    def __post_init__(self):
        if not (self.vg0 > self.vbe_at_tref > 0):
            raise ConfigurationError("require vg0 > vbe_at_tref > 0")
        if not (200.0 <= self.t_ref <= 400.0):
            raise ConfigurationError("t_ref outside [200 K, 400 K]")
        if self.n_proc <= 0:
            raise ConfigurationError("n_proc must be positive")


@dataclass(frozen=True)
class CurrentSourceParams:
    """CTAT/PTAT current source parameters.

    r1 converts the (trimmed) base-emitter voltage to the CTAT current,
    divided down by mirror_ratio.  r2 converts the scaled delta-vbe of a
    pair biased at bias_current_ratio to the PTAT current, scaled by
    alpha.  The 6-bit trim adds trim_bias*trim_code*trim_step volts.
    """

    r1: float = 1.5e6
    r2: float = 1.0e5
    mirror_ratio: float = 10.0
    bias_current_ratio: float = 3.0
    alpha: float = 0.18
    trim_code: int = 0
    trim_step: float = 500.0   # ohm per LSB
    trim_bias: float = 1e-6    # A through the trim resistor

    def __post_init__(self):
        if self.r1 <= 0 or self.r2 <= 0:
            raise ConfigurationError("r1 and r2 must be positive")
        if self.mirror_ratio < 1.0:
            raise ConfigurationError("mirror_ratio must be >= 1")
        if self.bias_current_ratio <= 1.0:
            raise ConfigurationError("bias_current_ratio must be > 1")
        if not (0 <= self.trim_code < 64):
            raise ConfigurationError("trim_code must fit 6 bits")
        if self.alpha <= 0:
            raise ConfigurationError("alpha must be positive")


@dataclass(frozen=True)
class HeaterParams:
    p_max: float = 0.27  # W at duty = 1

    def __post_init__(self):
        if self.p_max <= 0:
            raise ConfigurationError("p_max must be positive")


def vbe(params, t, ic_ratio_to_ref=1.0):
    """Base-emitter voltage at temperature t (kelvin).

    Four-term model: linear extrapolation between vg0 and the anchor
    point, process-curvature log term, and a bias-dependent log term for
    collector currents that deviate from the reference-point bias.
    Strictly decreasing in t for nominal silicon parameters.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 250.0) or np.any(t > 400.0):
        raise DomainError("temperature outside [250 K, 400 K]")
    if np.any(np.asarray(ic_ratio_to_ref) <= 0):
        raise DomainError("ic_ratio_to_ref must be positive")
    vt = thermal_voltage(t)
    v = (params.vg0 * (1.0 - t / params.t_ref)
         + (t / params.t_ref) * params.vbe_at_tref
         - params.n_proc * vt * np.log(t / params.t_ref)
         + vt * np.log(ic_ratio_to_ref)
         + params.vbe_offset)
    return v if v.ndim else float(v)


def delta_vbe(params, t):
    """Difference of two base-emitter voltages biased at the configured
    collector-current ratio: exactly proportional to absolute temperature."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise DomainError("temperature must be positive")
    v = thermal_voltage(t) * math.log(params.bias_current_ratio)
    return v if v.ndim else float(v)


def i_ctat(params, bjt, t):
    """CTAT output current: trimmed vbe across r1, mirrored down.

    Monotonically decreasing in t.  Noise is added by the converter
    (`madc.conversion_noise_counts`), not here.
    """
    v_trim = vbe(bjt, t) + params.trim_bias * params.trim_code * params.trim_step
    return v_trim / params.r1 / params.mirror_ratio


def i_ptat(params, t):
    """PTAT output current alpha*delta_vbe/r2; linear through the origin in t."""
    return params.alpha * delta_vbe(params, t) / params.r2


def sample_cell_mismatch(bjt, cs, rng, sigma_vbe=1e-3, sigma_r1=0.01,
                         sigma_r2=0.01, sigma_mirror=0.005):
    """Draw one cell's realized device parameters.

    Gaussian offsets: absolute on vbe, relative on r1/r2/mirror_ratio.
    The draw order is fixed so a cell's parameters depend only on its
    own stream position.
    """
    bjt_i = replace(bjt, vbe_offset=rng.normal(0.0, sigma_vbe),
                    mismatch_sigma_vbe=sigma_vbe)
    cs_i = replace(cs,
                   r1=cs.r1 * (1.0 + rng.normal(0.0, sigma_r1)),
                   r2=cs.r2 * (1.0 + rng.normal(0.0, sigma_r2)),
                   mirror_ratio=cs.mirror_ratio * (1.0 + rng.normal(0.0, sigma_mirror)))
    return bjt_i, cs_i


# --------------------------------------------------------------------------
# Linear impedance networks (for the IS mode and its oracle)

@dataclass(frozen=True)
class Resistor:
    r: float

    def __post_init__(self):
        if self.r <= 0:
            raise ConfigurationError("resistance must be positive")

    def impedance(self, freq):
        return complex(self.r, 0.0)


@dataclass(frozen=True)
class Capacitor:
    c: float

    def __post_init__(self):
        if self.c <= 0:
            raise ConfigurationError("capacitance must be positive")

    def impedance(self, freq):
        if freq <= 0:
            raise DomainError("capacitor impedance needs freq > 0")
        return 1.0 / (2j * math.pi * freq * self.c)


@dataclass(frozen=True)
class Parallel:
    elements: tuple

    def __post_init__(self):
        if len(self.elements) == 0:
            raise ConfigurationError("parallel combination needs >= 1 element")

    def impedance(self, freq):
        y = sum(1.0 / e.impedance(freq) for e in self.elements)
        return 1.0 / y


@dataclass(frozen=True)
class Series:
    elements: tuple

    def __post_init__(self):
        if len(self.elements) == 0:
            raise ConfigurationError("series network needs >= 1 element")

    def impedance(self, freq):
        return sum(e.impedance(freq) for e in self.elements)


def network_transient_currents(network, v_applied, dt):
    """Current response of a series chain to an arbitrary voltage sequence.

    Supports Series chains of Resistor, Capacitor and Parallel(R, C)
    blocks with at least one series resistance (the resistance makes the
    current explicit).  States are the capacitor voltages, advanced with
    sub-stepped forward Euler.
    """
    if not isinstance(network, Series):
        network = Series((network,))
    r_series = 0.0
    states = []  # (kind, param...) with a running cap-voltage state
    for el in network.elements:
        if isinstance(el, Resistor):
            r_series += el.r
        elif isinstance(el, Capacitor):
            states.append(["c", el.c, 0.0])
        elif isinstance(el, Parallel):
            rs = [e for e in el.elements if isinstance(e, Resistor)]
            cs = [e for e in el.elements if isinstance(e, Capacitor)]
            if len(rs) != 1 or len(cs) != 1 or len(el.elements) != 2:
                raise ConfigurationError("time stepping supports Parallel(R, C) blocks only")
            states.append(["rc", rs[0].r, cs[0].c, 0.0])
        else:
            raise ConfigurationError(f"unsupported element {el!r}")
    if r_series <= 0:
        raise ConfigurationError("time stepping needs a series resistance")

    v_applied = np.asarray(v_applied, dtype=float)
    out = np.empty_like(v_applied)
    nsub = 8
    h = dt / nsub
    for k, v in enumerate(v_applied):
        i = 0.0
        for _ in range(nsub):
            v_states = sum(s[-1] for s in states)
            i = (v - v_states) / r_series
            for s in states:
                if s[0] == "c":
                    s[-1] += h * i / s[1]
                else:
                    s[-1] += h * (i - s[-1] / s[1]) / s[2]
        out[k] = i
    return out


# --------------------------------------------------------------------------
# Sensor front ends

@dataclass
class PhSensor:
    """Linear pH front end: delta current per pH unit away from the
    reference, derated by 1 %/degC above 25 degC."""

    sensitivity_a_per_ph: float = 1.8e-9
    reference_ph: float = 7.0
    ph: float = 7.0

    def __post_init__(self):
        if self.sensitivity_a_per_ph <= 0:
            raise ConfigurationError("pH sensitivity must be positive")

    def current(self, v_applied, t_now, temp_c):
        delta = self.sensitivity_a_per_ph * (self.ph - self.reference_ph)
        derate = 1.0 - 0.01 * max(temp_c - 25.0, 0.0)
        return delta * derate


@dataclass
class ImpedanceSensor:
    """Linear-network electrode model for impedance interrogation."""

    network: Series
    _freq: float = field(default=None, repr=False)
    _i_mag: float = field(default=0.0, repr=False)
    _i_phase: float = field(default=0.0, repr=False)

    def prepare_sinusoid(self, freq, amplitude):
        """Cache the steady-state phasor response for v = amplitude*sin(2*pi*freq*t)."""
        z = self.network.impedance(freq)
        self._freq = freq
        self._i_mag = amplitude / abs(z)
        self._i_phase = -math.atan2(z.imag, z.real)

    def current(self, v_applied, t_now, temp_c):
        if self._freq is None:
            raise ConfigurationError("call prepare_sinusoid before sampling")
        return self._i_mag * math.sin(2.0 * math.pi * self._freq * t_now + self._i_phase)

    def currents_at(self, times):
        if self._freq is None:
            raise ConfigurationError("call prepare_sinusoid before sampling")
        return self._i_mag * np.sin(2.0 * math.pi * self._freq * np.asarray(times) + self._i_phase)


@dataclass
class CvSensor:
    """Pluggable voltammetry model: any current response f(v, t)."""

    response: callable

    def current(self, v_applied, t_now, temp_c):
        return self.response(v_applied, t_now)


def gaussian_peak_response(conductance=2e-7, peak_current=5e-8,
                           peak_v=-0.35, peak_width=0.06):
    """Bundled test model: ohmic conductance plus a Gaussian redox peak.

    Exists to exercise the voltammetry signal chain, not to model real
    electrode kinetics.
    """
    def response(v, t):
        return conductance * v + peak_current * math.exp(-((v - peak_v) ** 2)
                                                         / (2.0 * peak_width ** 2))
    return response
