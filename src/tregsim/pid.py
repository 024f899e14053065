"""Velocity-form PID computed in the count domain.

The controller never sees a temperature: the plant output is the channel's
count, the setpoint is expressed as a scaled target preload, and the three
per-cycle conversions produce the banked products that the accumulator
sums into the 12-bit duty code.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .madc import COEFF_LEVELS

PRODUCT_LIMIT = 127        # signed product storage (sign + 7-bit magnitude)
DUTY_CODE_MAX = 4095

# Upper limit on (quantized c0) * (pid-scale counts per kelvin).  Keeps the
# +-127 product range good for >= ~11 degC of error so ordinary setpoint
# steps never saturate the bank.
MAX_COEFF_COUNTS_PER_KELVIN = 11.5


def _shared_exponent(c_values, counts_per_kelvin=None):
    m = max(abs(c) for c in c_values)
    if m == 0:
        return 0
    exp = math.ceil(math.log2(m / ((COEFF_LEVELS - 1) / COEFF_LEVELS)))
    if counts_per_kelvin is not None:
        while (abs(c_values[0]) / 2 ** exp) * counts_per_kelvin > MAX_COEFF_COUNTS_PER_KELVIN:
            exp += 1
    return exp


@dataclass(frozen=True)
class PidCoefficients:
    """Gain set plus its fixed-point encoding.

    c0/c1/c2 are the exact velocity-form coefficients; q0/q1/q2 are the
    signed 7-bit mantissas sharing the power-of-two exponent.
    """

    kp: float
    ki: float
    kd: float
    ts: float
    c0: float
    c1: float
    c2: float
    exponent: int
    q0: int
    q1: int
    q2: int

    @classmethod
    def derive(cls, kp, ki, kd, ts, counts_per_kelvin=None):
        """Expand (kp, ki, kd, ts) into quantized velocity coefficients.

        Tustin integral, backward-difference derivative:
            c0 = kp + ki*ts/2 + kd/ts
            c1 = -kp + ki*ts/2 - 2*kd/ts
            c2 = kd/ts
        The shared exponent normalizes every |c_n| below one; passing the
        channel's count slope widens it further so products cannot
        saturate on ordinary steps.
        """
        if ts <= 0:
            raise ConfigurationError("ts must be positive")
        c0 = kp + ki * ts / 2.0 + kd / ts
        c1 = -kp + ki * ts / 2.0 - 2.0 * kd / ts
        c2 = kd / ts
        exp = _shared_exponent((c0, c1, c2), counts_per_kelvin)
        scale = 2.0 ** exp
        q0, q1, q2 = (int(round(c / scale * COEFF_LEVELS)) for c in (c0, c1, c2))
        return cls(kp, ki, kd, ts, c0, c1, c2, exp, q0, q1, q2)

    @property
    def quantized(self):
        """The coefficients actually realized after 7-bit quantization."""
        scale = 2.0 ** self.exponent
        return tuple(q / COEFF_LEVELS * scale for q in (self.q0, self.q1, self.q2))

    @property
    def mantissas(self):
        return (self.q0, self.q1, self.q2)

    @property
    def active(self):
        """The taps with a nonzero mantissa, in slot order."""
        return [n for n in range(3) if self.mantissas[n]]

    @property
    def signs(self):
        return tuple(1 if q >= 0 else -1 for q in self.mantissas)

    @property
    def magnitudes(self):
        """Coefficient magnitudes handed to the converter, in (0, 1]."""
        return tuple(abs(q) / COEFF_LEVELS for q in self.mantissas)

    def coefficient_errors(self):
        qc = self.quantized
        return tuple(abs(c - q) for c, q in zip((self.c0, self.c1, self.c2), qc))


@dataclass
class PidState:
    """Loop state of one cell or of a whole array of cells.

    u_prev sets the cell shape: () for one cell, (rows, cols) for an
    array.  bank[i, n] holds tap n's products of cycle k - i.
    set_targets loads what every cycle reuses: the active taps, and each
    one's target split into its whole part and the fraction that its
    sigma-delta accumulator, a row of sd_accum, sums.  After each cycle
    saturated_cells marks the cells whose actuation clamped or whose
    product saturated, and saturated counts them.
    """

    u_prev: np.ndarray = 0
    bank: np.ndarray = None
    sd_accum: np.ndarray = None
    saturated_cells: np.ndarray = None
    saturated: int = 0
    active: list = field(default=None, init=False, repr=False)
    target_whole: np.ndarray = field(default=None, init=False, repr=False)
    target_frac: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.u_prev = np.array(self.u_prev, dtype=int)
        shape = self.u_prev.shape
        if self.bank is None:
            self.bank = np.zeros((3, 3) + shape, dtype=int)
        if self.saturated_cells is None:
            self.saturated_cells = np.zeros(shape, dtype=bool)

    def set_targets(self, target_x, active):
        """Load one target per active tap (see PidCoefficients.active),
        (len(active),) + cell shape, and restart the dither."""
        self.active = active
        target = np.asarray(target_x, dtype=float)
        whole = np.floor(target)
        self.target_whole = whole.astype(int)
        self.target_frac = target - whole
        self.sd_accum = np.zeros_like(target)

    def dither(self):
        """The sigma-delta preloads of the active taps for one cycle, in
        slot order, shaped like the targets: each tap's whole part, plus
        one when its accumulator carries."""
        sd_accum = self.sd_accum
        sd_accum += self.target_frac
        carry = sd_accum >= 1.0
        sd_accum -= carry
        return self.target_whole + carry


def pid_cycle(state, coeffs, counts):
    """Run one controller cycle of every cell: bank the products, accumulate.

    counts are the cycle's conversion outputs, preload - n_discharge,
    at the preloads of state.dither(): one per active tap and cell, with
    the tap's coefficient magnitude, against the temperature-sensing
    currents, shaped (n_active,) + state.u_prev.shape.  The banked
    product is the measured count minus the target preload (counts fall
    with temperature, so a cold cell yields positive products),
    saturating at the 8-bit store.  Accumulation applies coefficient
    signs and the shared exponent:
        u(k) = clamp(u(k-1) + 2**exp * (s0*p0(k) + s1*p1(k-1) + s2*p2(k-2)))
    state must hold targets loaded by set_targets for coeffs.active.
    """
    p = -counts  # measured-minus-target ordering
    # the bank moves one cycle on: row i takes the products of cycle k - i
    bank = state.bank
    bank[1:] = bank[:-1]
    products = bank[0]
    # the active rows are overwritten; an idle tap banks 0 whatever the bank held
    if len(state.active) < len(products):
        products[...] = 0
    products[state.active] = np.minimum(np.maximum(p, -PRODUCT_LIMIT), PRODUCT_LIMIT)

    signs, exp = coeffs.signs, coeffs.exponent
    increment = signs[0] * products[0] + signs[1] * bank[1, 1] + signs[2] * bank[2, 2]
    # scaled by 2**exp in integers: a right shift floors
    increment = increment << exp if exp >= 0 else increment >> -exp
    raw = state.u_prev + increment
    u = np.minimum(np.maximum(raw, 0), DUTY_CODE_MAX)
    state.saturated_cells = (u != raw) | (np.abs(products) >= PRODUCT_LIMIT).any(axis=0)
    state.saturated = int(np.count_nonzero(state.saturated_cells))
    state.u_prev = u
    return u


def default_tuning(c_th, g_amb, p_max, counts_per_kelvin, ts):
    """Gains for the fitted first-order plant.

    Discrete lambda tuning: with plant pole a = exp(-ts/tau) and target
    closed-loop pole p = exp(-ts/lam), lam = tau/3, the PI part places
    the pole by zero cancellation (c0 = (1-p)/b, c1 = -a*c0, with b the
    per-cycle count gain of the duty code).  A two-LSB derivative term is
    added so all three conversion slots stay active and the approach is
    lightly damped.
    """
    tau = c_th / g_amb
    lam = tau / 3.0
    a = math.exp(-ts / tau)
    p = math.exp(-ts / lam)
    b = (p_max / ((DUTY_CODE_MAX + 1) * g_amb)) * (1.0 - a) * counts_per_kelvin
    c0 = (1.0 - p) / b
    c1 = -a * c0
    exp = _shared_exponent((c0, c1, 0.0), counts_per_kelvin)
    c2 = 2.0 * 2.0 ** exp / COEFF_LEVELS
    ki = (c0 + c1 + c2) / ts
    kd = c2 * ts
    kp = (c0 - c1 - 3.0 * c2) / 2.0
    return kp, ki, kd


def velocity_response(c0, c1, c2, errors, u0=0.0):
    """Reference float recurrence u(k) = u(k-1) + c0 e(k) + c1 e(k-1) + c2 e(k-2)."""
    u = np.empty(len(errors))
    e1 = e2 = 0.0
    prev = u0
    # Python floats: the same double arithmetic as numpy scalars, faster
    for k, e in enumerate(np.asarray(errors, dtype=float).tolist()):
        prev = prev + c0 * e + c1 * e1 + c2 * e2
        e2, e1 = e1, e
        u[k] = prev
    return u


def transfer_function_response(kp, ki, kd, ts, errors):
    """Direct simulation of the parallel-form discrete controller.

    Proportional branch, trapezoid-rule integral branch, and
    backward-difference derivative branch, summed.  Serves as the
    independent reference the velocity recurrence is checked against.
    """
    u = np.empty(len(errors))
    ui = 0.0
    e_prev = 0.0
    for k, e in enumerate(np.asarray(errors, dtype=float).tolist()):
        ui = ui + ki * ts / 2.0 * (e + e_prev)
        ud = kd / ts * (e - e_prev)
        u[k] = kp * e + ui + ud
        e_prev = e
    return u


def quantization_deviation_bound(coeffs, errors):
    """Running bound on |quantized - exact| for the velocity recurrence.

    Each step contributes at most sum_n |c_n - c_n_quantized| * |e|; the
    velocity form accumulates the per-step contributions.
    """
    derr = sum(coeffs.coefficient_errors())
    return np.cumsum(derr * np.abs(np.asarray(errors, dtype=float))) + 1e-9
