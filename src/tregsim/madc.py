"""Behavioral dual-slope multiplying ADC.

The converter digitizes the ratio of an input current to a reference
current.  Scaling the charge-phase duration by a 7-bit coefficient
implements multiplication; preloading the counter implements subtraction.
One instance is shared by the temperature loop and all measurement modes.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .devices import i_ctat, i_ptat
from .errors import ConfigurationError, DomainError

# Comparator crossing guard, in counts.  The discharge comparator resolves
# a boundary-exact crossing as crossed; anything closer to the boundary
# than this guard (1e-9 of a count of charge) counts as already crossed.
CROSSING_GUARD = 1e-9

COEFF_LEVELS = 128  # 7-bit coefficient magnitude


@dataclass(frozen=True)
class MadcConfig:
    n_bits: int = 9
    f_clk: float = 10e6
    n1_counts: int = None        # full-scale charge count; default 2**n_bits
    c_int: float = 30e-12        # integration capacitance
    v_full: float = 1.0          # integrator full scale
    pid_charge_scale: int = 8    # charge-window stretch for the loop's error conversions
    conversion_noise_counts: float = 0.3  # input-referred channel noise per conversion
    hd2_fraction: float = 0.0    # second-order integrator distortion at full scale

    def __post_init__(self):
        if self.n1_counts is None:
            object.__setattr__(self, "n1_counts", 2 ** self.n_bits)
        if self.c_int <= 0 or self.v_full <= 0 or self.f_clk <= 0:
            raise ConfigurationError("c_int, v_full, f_clk must be positive")
        if self.pid_charge_scale < 1:
            raise ConfigurationError("pid_charge_scale must be >= 1")
        if self.conversion_noise_counts < 0:
            raise ConfigurationError(
                "madc.conversion_noise_counts must be >= 0, got "
                f"{self.conversion_noise_counts!r}")

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


class Conversion(NamedTuple):
    """Result of a batch of conversions (see convert).

    out_count, n_charge and n_discharge have the broadcast shape of the
    inputs (plain ints for scalar inputs); saturated is the number of
    conversions that clamped or clipped.
    """

    out_count: object
    n_charge: object
    n_discharge: object
    saturated: int


def _check_coeff(coeff_mag):
    mag = np.asarray(coeff_mag, dtype=float)
    if not ((0.0 < mag) & (mag <= 1.0)).all():
        raise ConfigurationError("coeff_mag must lie in (0, 1]")
    if (np.abs(mag * COEFF_LEVELS - np.round(mag * COEFF_LEVELS)) > 1e-9).any():
        raise ConfigurationError("coeff_mag must sit on the 7-bit grid")


def channel_noise(cfg, rng, shape):
    """Input-referred channel noise of a batch of conversions, in counts.

    None without a stream or on a noiseless channel; otherwise one draw
    of the given shape.  A batch of n draws equals n single draws, so a
    stream's sequence does not depend on how its conversions are batched.
    """
    if rng is None or cfg.conversion_noise_counts == 0:
        return None
    return rng.normal(0.0, cfg.conversion_noise_counts, size=shape)


def discharge_counts(cfg, n_charge, i_in, i_ref, noise=None):
    """Discharge-phase count for a charge phase of n_charge clocks.

    The counter advances while the integrator has not crossed baseline:
    the latched value is floor(n_charge * i_in / i_ref), with boundary-
    exact charges resolving as crossed (see CROSSING_GUARD).  Clips at
    the integrator full scale.  noise (counts, see channel_noise) is added
    to the held charge before the floor.  Accepts scalars or arrays.
    Returns (count, clipped); clipped is False when nothing can clip, and
    otherwise a mask of the inputs' broadcast shape.
    """
    n_charge, i_in, i_ref = (np.asarray(v, dtype=float) for v in (n_charge, i_in, i_ref))
    x = n_charge * (i_in / i_ref)
    if cfg.hd2_fraction:
        # single-ended integrator curvature: fractional second-order term
        # referred to the full-scale count
        x = x * (1.0 + cfg.hd2_fraction * x / cfg.n1_counts)
    # integrator clip: the held charge cannot exceed c_int*v_full.  Rounding
    # is monotone, so no element clips when the largest magnitudes do not,
    # and the element-wise test runs only when they would
    q_max = cfg.c_int * cfg.v_full
    clipped = False
    if x.size and abs(n_charge).max() * abs(i_in).max() / cfg.f_clk > q_max:
        clipped = n_charge * i_in / cfg.f_clk > q_max
        if clipped.any():
            x = np.where(clipped, q_max * cfg.f_clk / i_ref, x)
    if noise is not None:
        x = x + noise
    if not x.ndim:
        return int(np.floor(x + CROSSING_GUARD)), bool(clipped)
    # x is this call's own temporary: guard and floor it in place
    x += CROSSING_GUARD
    return np.floor(x, out=x).astype(int), clipped


def convert(cfg, i_in, i_ref, coeff_mag, cal_preload, target_preload,
            coeff_sign=1, noise=None, n1_counts=None):
    """Run dual-slope conversions, one per element of the broadcast inputs.

    Charge phase: round(coeff_mag*n1) - cal_preload clocks integrating
    i_in.  Discharge with i_ref until the comparator crossing; the
    measured count is n_discharge = floor(n_charge*i_in/i_ref), with
    noise (counts, see channel_noise) added to the held charge.  The
    counter is loaded with target_preload and counts down, so the output
    is target_preload - coeff_sign*n_discharge, clamped to the counter
    range; a conversion saturates on clamp or integrator clip.  Plain
    digitization is target_preload=0, coeff_sign=-1.  Every argument
    after cfg may be an array.
    """
    _check_coeff(coeff_mag)
    if (np.abs(coeff_sign) != 1).any():
        raise ConfigurationError("coeff_sign must be +1 or -1")
    if (np.asarray(i_in) <= 0).any() or (np.asarray(i_ref) <= 0).any():
        raise DomainError("currents must be positive (use convert_signed for bipolar)")
    n1 = cfg.n1_counts if n1_counts is None else n1_counts
    n_charge = np.round(np.multiply(coeff_mag, n1)).astype(int) - cal_preload
    if (n_charge <= 0).any():
        raise ConfigurationError("calibration preload leaves no charge phase")
    n2, clipped = discharge_counts(cfg, n_charge, i_in, i_ref, noise)
    raw = target_preload - np.multiply(coeff_sign, n2)
    bound = cfg.counter_max
    out = np.minimum(np.maximum(raw, -bound), bound)
    saturated = int(np.count_nonzero(clipped | (out != raw)))
    if out.ndim:
        return Conversion(out, n_charge, n2, saturated)
    return Conversion(int(out), int(n_charge), int(n2), saturated)


def convert_signed(cfg, i_in, i_ref, rng=None):
    """Plain bidirectional digitization: sign(i_in)*floor(n1*|i_in|/i_ref).

    The front-end current conveyor sources and sinks, so measurement
    modes see signed counts.  Accepts scalar or array i_in; clamps to the
    counter range.
    """
    if i_ref <= 0:
        raise DomainError("reference current must be positive")
    i_in = np.asarray(i_in, dtype=float)
    n2, clipped = discharge_counts(cfg, cfg.n1_counts, np.abs(i_in), i_ref,
                                   channel_noise(cfg, rng, i_in.shape))
    out = np.sign(i_in).astype(int) * np.minimum(n2, cfg.counter_max)
    if out.ndim:
        return out
    return int(out)


class TemperatureMap:
    """Nominal count-to-temperature design map of the channel.

    Built from the nominal device models at zero calibration preload.
    The readback adds half a count before inverting so quantization is
    centered.  Also publishes the count slope used for loop tuning and
    for expressing setpoints in the count domain.
    """

    T_LO = 19.0
    T_HI = 91.0

    def __init__(self, cfg, bjt, current_source):
        self.cfg = cfg
        self.bjt = bjt
        self.current_source = current_source
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

    def counts_per_kelvin(self, t_c=52.5):
        """Magnitude of the local count slope of the plain-mode map."""
        dt = 0.5
        return float((self.counts_cont(t_c - dt) - self.counts_cont(t_c + dt)) / (2 * dt))

    def pid_counts_per_kelvin(self, t_c=52.5):
        return self.counts_per_kelvin(t_c) * self.cfg.pid_charge_scale


def snr_test(cfg, freq=15.0, amplitude=400e-9, i_ref=400e-9, n_samples=16384,
             noise_rms=0.0, seed=0):
    """SNR of a digitized full-scale sine, in dB.

    Samples the sine at the conversion-slot rate, digitizes with unit
    coefficient, and estimates SNR from a Hann-windowed DFT.  The tone
    snaps to the nearest coherent bin with an odd cycle count so leakage
    does not masquerade as noise.  DC and harmonic bins are excluded
    from the noise estimate.  A configured front-end noise current is
    added to the input samples.
    """
    if amplitude <= 0:
        raise DomainError("zero-amplitude input has no defined SNR")
    fs = cfg.conversion_rate
    if fs < 10 * freq:
        raise ConfigurationError("conversion rate below 10x signal frequency")
    cycles = int(round(freq / fs * n_samples)) | 1
    freq = cycles * fs / n_samples
    t = np.arange(n_samples) / fs
    i_sig = amplitude * np.sin(2 * np.pi * freq * t)
    if noise_rms > 0:
        rng = np.random.default_rng(seed)
        i_sig = i_sig + noise_rms * rng.standard_normal(n_samples)
    codes = convert_signed(cfg, i_sig, i_ref).astype(float)

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
        raise DomainError("noise power vanished; window too short")
    return 10.0 * math.log10(p_signal / p_noise)
