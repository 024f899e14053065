"""Lumped RC thermal plant for the cell array.

Each cell is one node with heat capacity c_th, conductance g_amb to the
ambient/solution bath, lateral conductance g_lat to its orthogonal
neighbors, and heater power injection.  `step_temps` is the one stepper:
a forward-Euler step on a plain temperature array.  It does no checking;
`check_plant` validates the parameters and the step against the explicit
stability bound once, when the array is built.  `cycle_map` composes the
stepper over a held-power PID cycle into one affine map, which the array
applies once per cycle.
"""

import math

import numpy as np

from .config import SCHEMA
from .errors import require

# the plant fit's targets, in degC and s (see fit_defaults)
TARGET_RISE = 65.0
STEP_TIME = 10.0


def check_plant(c_th, g_amb, g_lat, dt):
    """Reject plant parameters the forward-Euler stepper cannot integrate."""
    require(c_th > 0, "thermal.c_th", "positive", c_th)
    require(g_amb > 0, "thermal.g_amb", "positive", g_amb)
    # g_lat may be zero: decoupled cells are a supported configuration
    require(g_lat >= 0, "thermal.g_lat", ">= 0", g_lat)
    limit = c_th / (4.0 * g_lat + g_amb)
    require(0 < dt <= limit, "thermal.dt",
            f"within the stability bound (0, {limit:.6g}] s", dt)


def _lateral_flux(temp, g_lat):
    """Sum of g_lat*(T_j - T_i) over orthogonal neighbors.

    Works on the last two axes, so a stack of fields is stepped at once.
    Each neighbor array repeats the boundary row or column at the edge:
    the phantom neighbors contribute exactly zero flux.
    """
    up = np.concatenate((temp[..., :1, :], temp[..., :-1, :]), axis=-2)
    down = np.concatenate((temp[..., 1:, :], temp[..., -1:, :]), axis=-2)
    left = np.concatenate((temp[..., :1], temp[..., :-1]), axis=-1)
    right = np.concatenate((temp[..., 1:], temp[..., -1:]), axis=-1)
    return g_lat * (up + down + left + right - 4.0 * temp)


def step_temps(temp, heater_powers, c_th, g_lat, g_amb, t_ambient, dt):
    """One forward-Euler step; returns the new temperature array.

    Energy balance per node:
        c_th * dT/dt = P - g_amb*(T - T_amb) - sum_neighbors g_lat*(T - T_j)
    Edge clamping makes boundary nodes exchange heat only with the
    neighbors they actually have.
    """
    return temp + (dt / c_th) * (heater_powers - g_amb * (temp - t_ambient)
                                 + _lateral_flux(temp, g_lat))


def cycle_map(shape, c_th, g_lat, g_amb, dt, n_steps):
    """Exact n-step map of `step_temps` under held heater power.

    Returns matrices (a, b) over the row-major flattened field such that
    n_steps forward-Euler steps with power P held take T_0 to T_n with
        T_n - T_amb = a @ (T_0 - T_amb) + b @ P
    up to rounding.  One step is affine in (T - T_amb, P), so its two
    matrices are read off the stepper itself by stepping unit fields at
    zero ambient.  The n-step map is composed from them by repeated
    squaring, with matrix products only: with g_lat = 0 every product
    then stays diagonal and exact, so decoupled cells advance
    bit-identically to single-cell arrays.
    """
    n = math.prod(shape)
    unit = np.eye(n).reshape(n, *shape)
    # (pa, pb) maps the next 2**k steps, (a, b) the steps taken so far;
    # running (a, b) and then (pa, pb) is (pa @ a, pa @ b + pb)
    pa = step_temps(unit, 0.0, c_th, g_lat, g_amb, 0.0, dt).reshape(n, n).T
    pb = step_temps(np.zeros_like(unit), unit, c_th, g_lat, g_amb, 0.0,
                    dt).reshape(n, n).T
    a, b = np.eye(n), np.zeros((n, n))
    while n_steps:
        if n_steps & 1:
            a, b = pa @ a, pa @ b + pb
        n_steps >>= 1
        if n_steps:
            pa, pb = pa @ pa, pa @ pb + pb
    return a, b


def fit_defaults(p_max=SCHEMA["devices"]["p_max"]):
    """Fit (c_th, g_amb, g_lat) to the observed plant behavior.

    g_amb follows from the steady-state rise TARGET_RISE of an isolated
    node at full heater power p_max.  c_th is chosen so the default-tuned
    closed loop walks the last 5 degC of a step into the +-0.5 degC band
    in about STEP_TIME seconds: with the loop pole at lam = tau/3 that
    entry takes lam*ln(10), giving tau = 3*STEP_TIME/ln(10) and
    c_th = g_amb*tau.  Lateral conductance defaults to twice g_amb.
    """
    g_amb = p_max / TARGET_RISE
    c_th = g_amb * 3.0 * STEP_TIME / math.log(10.0)
    g_lat = 2.0 * g_amb
    return c_th, g_amb, g_lat
