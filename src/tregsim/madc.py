"""Behavioral dual-slope multiplying ADC.

The converter digitizes the ratio of an input current to a reference
current.  Scaling the charge-phase duration by a 7-bit coefficient
implements multiplication; preloading the counter implements subtraction.
One instance is shared by the temperature loop and all measurement modes.
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .config import SCHEMA, check_fields, setting
from .devices import i_ctat, i_ptat
from .errors import ConfigurationError, DomainError, least, require

# Comparator crossing guard, in counts.  The discharge comparator resolves
# a boundary-exact crossing as crossed; anything closer to the boundary
# than this guard (1e-9 of a count of charge) counts as already crossed.
CROSSING_GUARD = 1e-9

COEFF_LEVELS = 128  # 7-bit coefficient magnitude


@dataclass(frozen=True)
class MadcConfig:
    n_bits: int = setting("madc.n_bits")
    f_clk: float = setting("madc.f_clk")
    c_int: float = setting("madc.c_int")        # integration capacitance
    v_full: float = setting("madc.v_full")      # integrator full scale
    # charge-window stretch for the loop's error conversions
    pid_charge_scale: int = setting("madc.pid_charge_scale")
    # input-referred channel noise per conversion
    conversion_noise_counts: float = setting("madc.conversion_noise_counts")

    __post_init__ = check_fields

    @property
    def n1_counts(self):
        """Full-scale charge count of a unit-coefficient conversion."""
        return 2 ** self.n_bits

    @property
    def counter_max(self):
        return 2 ** self.n_bits

    @property
    def slot_clocks(self):
        """Clocks reserved per conversion: charge + hold + discharge window."""
        return 4 * self.n1_counts

    @property
    def conversion_rate(self):
        return self.f_clk / self.slot_clocks

    @property
    def pid_n1_counts(self):
        return self.n1_counts * self.pid_charge_scale


class ChargePhase(NamedTuple):
    """A batch's checked charge phase (see charge_phase): n_charge > 0
    clocks per conversion, whole numbers as ints (or as floats, which
    discharge_counts takes without a copy), and sign, +1 or -1, the
    counter's direction."""

    n_charge: object
    sign: object


class Conversion(NamedTuple):
    """Result of a batch of conversions (see convert).

    out_count and n_discharge have the broadcast shape of the inputs
    (plain ints for scalar inputs); saturated is the number of
    conversions that clamped or clipped.
    """

    out_count: object
    n_discharge: object
    saturated: int


def discharge_counts(cfg, n_charge, i_in, i_ref, noise=None):
    """Discharge-phase count for a charge phase of n_charge clocks.

    The counter advances while the integrator has not crossed baseline:
    the latched value is floor(n_charge * i_in / i_ref), with boundary-
    exact charges resolving as crossed (see CROSSING_GUARD).  Clips at
    the integrator full scale.  Accepts scalars or arrays.

    noise (counts), if given, is added to the held charge before the
    floor.  It must be a writable float64 array that already has the
    batch's full broadcast shape, and the call uses it up: the counts
    are floored in place in it, so the batch keeps one array live.  A
    noise of another shape (ValueError) or dtype (TypeError), or a
    read-only one, raises before anything is written.

    Returns (count, clipped): whole counts as float64, in the noise array
    when noise is given (a float for scalar inputs), and False when
    nothing can clip, else a mask of that shape.
    """
    n_charge, i_in, i_ref = (np.asarray(v, dtype=float) for v in (n_charge, i_in, i_ref))
    x = n_charge * (i_in / i_ref)
    # integrator clip: the held charge cannot exceed c_int*v_full.  Rounding
    # is monotone, so no element clips when the largest magnitudes (taken
    # without a temporary) do not, and the element-wise test runs only then
    q_max = cfg.c_int * cfg.v_full
    clipped = False
    if x.size and (max(n_charge.max(), -n_charge.min()) * max(i_in.max(), -i_in.min())
                   / cfg.f_clk > q_max):
        clipped = n_charge * i_in / cfg.f_clk > q_max
        if clipped.any():
            x = np.where(clipped, q_max * cfg.f_clk / i_ref, x)
    if noise is not None:
        # the caller's block becomes the output: the sum lands in it.
        # numpy checks the block's shape, dtype and writability first
        x = np.add(noise, x, out=noise, casting="no")
    if not x.ndim:
        return float(np.floor(x + CROSSING_GUARD)), bool(clipped)
    # x is this call's own array or the caller's noise block: guard and
    # floor it in place
    x += CROSSING_GUARD
    return np.floor(x, out=x), clipped


def charge_phase(cfg, coeff_mag, cal_preload, coeff_sign=1, n1_counts=None):
    """The checked charge phase of conversions: round(coeff_mag*n1) - cal_preload clocks.

    coeff_mag must sit on the 7-bit grid in (0, 1], coeff_sign be +1 or
    -1, and cal_preload leave a charge phase; n1 is n1_counts, by default
    cfg.n1_counts.  Every argument after cfg may be an array.  A run that
    holds them fixed derives the phase once for all its convert calls.
    """
    mag = np.asarray(coeff_mag, dtype=float)
    if not ((0.0 < mag) & (mag <= 1.0)).all():
        raise ConfigurationError("coeff_mag must lie in (0, 1]")
    if (np.abs(mag * COEFF_LEVELS - np.round(mag * COEFF_LEVELS)) > 1e-9).any():
        raise ConfigurationError("coeff_mag must sit on the 7-bit grid")
    if (np.abs(coeff_sign) != 1).any():
        raise ConfigurationError("coeff_sign must be +1 or -1")
    n1 = cfg.n1_counts if n1_counts is None else n1_counts
    n_charge = np.round(np.multiply(coeff_mag, n1)).astype(int) - cal_preload
    if (n_charge <= 0).any():
        raise ConfigurationError("calibration preload leaves no charge phase")
    return ChargePhase(n_charge, coeff_sign)


def convert(cfg, i_in, i_ref, charge, target_preload, noise=None):
    """Run dual-slope conversions, one per element of the broadcast inputs.

    The charge phase integrates i_in for charge.n_charge clocks.
    Discharge with i_ref until the comparator crossing; the measured
    count is n_discharge = floor(n_charge*i_in/i_ref), with noise
    (counts), if given, added to the held charge.  The counter
    is loaded with target_preload and counts down, so the output is
    target_preload - sign*n_discharge, clamped to the counter range; a
    conversion saturates on clamp or integrator clip.  Plain
    digitization is target_preload=0, sign -1.  i_in, i_ref and
    target_preload may be arrays; noise is a float64 array of the
    batch's full shape, used up as in discharge_counts.
    """
    if least(i_in) <= 0 or least(i_ref) <= 0:
        raise DomainError("currents must be positive (use convert_signed for bipolar)")
    n2, clipped = discharge_counts(cfg, charge.n_charge, i_in, i_ref, noise)
    n2 = np.asarray(n2).astype(int)
    raw = target_preload - np.multiply(charge.sign, n2)
    bound = cfg.counter_max
    out = np.minimum(np.maximum(raw, -bound), bound)
    saturated = int(np.count_nonzero(clipped | (out != raw)))
    if out.ndim:
        return Conversion(out, n2, saturated)
    return Conversion(int(out), int(n2), saturated)


def ranged(cfg, i_ref):
    """cfg with the integration cap ranged so full-scale inputs do not clip.

    cfg itself when its cap already suffices.  Rejects a clock and full
    scale so small that the cap they need is not finite.
    """
    # in Python floats: a cap past the float range is inf, without a numpy overflow warning
    c_int = 1.2 * float(i_ref) * cfg.n1_counts / cfg.f_clk / cfg.v_full
    if not math.isfinite(c_int):
        raise ConfigurationError(
            f"madc.f_clk ({cfg.f_clk!r} Hz) and madc.v_full ({cfg.v_full!r} V) leave no "
            f"finite integration cap for a {i_ref:g} A reference: raise either")
    return cfg if cfg.c_int >= c_int else replace(cfg, c_int=c_int)


def convert_signed(cfg, i_in, i_ref):
    """Plain bidirectional digitization: sign(i_in)*floor(n1*|i_in|/i_ref).

    The front-end current conveyor sources and sinks, so measurement
    modes see signed counts.  Accepts scalar or array i_in; clamps to the
    counter range.  Noiseless.
    """
    if i_ref <= 0:
        raise DomainError("reference current must be positive")
    i_in = np.asarray(i_in, dtype=float)
    n2, clipped = discharge_counts(cfg, cfg.n1_counts, np.abs(i_in), i_ref)
    out = np.sign(i_in).astype(int) * np.minimum(n2, cfg.counter_max).astype(int)
    if out.ndim:
        return out
    return int(out)


class TemperatureMap:
    """Nominal count-to-temperature design map of the channel.

    Built from the nominal device models at zero calibration preload.
    The readback adds half a count before inverting so quantization is
    centered.  Also publishes the count slope used for loop tuning.
    """

    T_LO = 19.0
    T_HI = 91.0
    # the loop's tuning reads the count slope here (degC)
    T_SLOPE = 52.5

    def __init__(self, cfg, bjt, current_source):
        self._t_grid = np.linspace(self.T_LO, self.T_HI, 1441)
        t_k = self._t_grid + 273.15
        ratio = (i_ctat(current_source, bjt, t_k)
                 / i_ptat(current_source, t_k))
        self._counts = cfg.n1_counts * ratio            # descending in T
        self._c_asc = self._counts[::-1].copy()
        self._t_asc = self._t_grid[::-1].copy()

    def counts_cont(self, t_c):
        """Continuous (pre-quantization) nominal count at t_c (Celsius)."""
        return np.interp(t_c, self._t_grid, self._counts)

    def read_temperature(self, count):
        """Invert the design map with half-count centering."""
        return np.interp(np.asarray(count, dtype=float) + 0.5, self._c_asc, self._t_asc)

    def counts_per_kelvin(self):
        """Magnitude of the local count slope of the plain-mode map at T_SLOPE."""
        t_c, dt = self.T_SLOPE, 0.5
        return float((self.counts_cont(t_c - dt) - self.counts_cont(t_c + dt)) / (2 * dt))


_SNR = SCHEMA["snr"]


def snr_test(cfg, freq=_SNR["freq"], amplitude=_SNR["amplitude"], n_samples=_SNR["n_samples"]):
    """SNR of a digitized full-scale sine, in dB.

    Samples the sine at the conversion-slot rate, digitizes with unit
    coefficient against its amplitude as the reference, and estimates
    SNR from a Hann-windowed DFT.  The tone snaps to the nearest
    coherent bin with an odd cycle count so leakage does not masquerade
    as noise.  DC and harmonic bins are excluded from the noise
    estimate.  No noise is added to the samples or the conversions:
    quantization sets the noise floor.
    """
    if amplitude <= 0:
        raise DomainError(f"snr.amplitude must be positive, got {amplitude!r}: "
                          "a zero-amplitude input has no defined SNR")
    fs = cfg.conversion_rate
    require(fs >= 10 * freq, "snr.freq", f"at most a tenth of the conversion rate {fs:g} Hz",
            freq)
    cycles = int(round(freq / fs * n_samples)) | 1
    freq = cycles * fs / n_samples
    t = np.arange(n_samples) / fs
    i_sig = amplitude * np.sin(2 * np.pi * freq * t)
    codes = convert_signed(cfg, i_sig, amplitude).astype(float)

    window = np.hanning(n_samples)
    spec = np.abs(np.fft.rfft((codes - codes.mean()) * window)) ** 2
    nbins = spec.size
    guard = 3
    b0 = int(round(freq / fs * n_samples))
    peak = b0 - guard + int(np.argmax(spec[max(b0 - guard, 1):b0 + guard + 1]))
    signal_bins = np.arange(max(peak - guard, 1), min(peak + guard + 1, nbins))
    p_signal = spec[signal_bins].sum()

    mask = np.ones(nbins, dtype=bool)
    mask[:guard + 1] = False
    mask[signal_bins] = False
    for h in range(2, 6):
        hb = peak * h
        if hb >= nbins:
            break
        lo = max(hb - guard, 0)
        mask[lo:hb + guard + 1] = False
    p_noise = spec[mask].sum()
    if p_noise <= 0:
        raise DomainError(f"snr.n_samples {n_samples} is too short a window: "
                          "no noise power is left")
    return 10.0 * math.log10(p_signal / p_noise)
