"""Lumped RC thermal plant for the cell array.

Each cell is one node with heat capacity c_th, conductance g_amb to the
ambient/solution bath, lateral conductance g_lat to its orthogonal
neighbors, and heater power injection.  `step_temps` is the one stepper:
a forward-Euler step on a plain temperature array.  It does no checking;
`check_plant` validates the parameters and the step against the explicit
stability bound once, when the array is built.
"""

import math

import numpy as np

from .errors import ConfigurationError, FitError


def check_plant(c_th, g_amb, g_lat, dt):
    """Reject plant parameters the forward-Euler stepper cannot integrate."""
    # g_lat may be zero: decoupled cells are a supported configuration
    if c_th <= 0 or g_lat < 0 or g_amb <= 0:
        raise ConfigurationError("c_th and g_amb must be positive, g_lat >= 0")
    limit = c_th / (4.0 * g_lat + g_amb)
    if not 0 < dt <= limit:
        raise ConfigurationError(
            f"dt={dt} outside the stability bound (0, {limit:.6g}]")


def _lateral_flux(temp, g_lat):
    """Sum of g_lat*(T_j - T_i) over orthogonal neighbors.

    Edge padding clones the boundary value, so the phantom neighbors
    contribute exactly zero flux.
    """
    padded = np.pad(temp, 1, mode="edge")
    return g_lat * (padded[:-2, 1:-1] + padded[2:, 1:-1]
                    + padded[1:-1, :-2] + padded[1:-1, 2:] - 4.0 * temp)


def step_temps(temp, heater_powers, c_th, g_lat, g_amb, t_ambient, dt,
               forced=None, forced_temp=None):
    """One forward-Euler step; returns the new temperature array.

    Energy balance per node:
        c_th * dT/dt = P - g_amb*(T - T_amb) - sum_neighbors g_lat*(T - T_j)
    Edge padding makes boundary nodes exchange heat only with the
    neighbors they actually have.  Nodes where the `forced` mask is set
    are clamped to `forced_temp` afterwards.
    """
    new_temp = temp + (dt / c_th) * (heater_powers - g_amb * (temp - t_ambient)
                                     + _lateral_flux(temp, g_lat))
    if forced is not None:
        new_temp = np.where(forced, forced_temp, new_temp)
    return new_temp


def field_csv_rows(temp):
    """Temperature field as CSV rows: row-major, Celsius, 6 decimals."""
    return [",".join(f"{x:.6f}" for x in row) for row in np.asarray(temp)]


def fit_defaults(target_rise=65.0, p_at_target=0.27, step_time=10.0):
    """Fit (c_th, g_amb, g_lat) to the observed plant behavior.

    g_amb follows from the steady-state rise of an isolated node at full
    heater power.  c_th is chosen so the default-tuned closed loop walks
    the last 5 degC of a step into the +-0.5 degC band in about
    step_time seconds: with the loop pole at lam = tau/3 that entry
    takes lam*ln(10), giving tau = 3*step_time/ln(10) and
    c_th = g_amb*tau.  Lateral conductance defaults to twice g_amb.
    """
    if target_rise <= 0 or p_at_target <= 0 or step_time <= 0:
        raise FitError("fit inputs must be positive")
    g_amb = p_at_target / target_rise
    c_th = g_amb * 3.0 * step_time / math.log(10.0)
    g_lat = 2.0 * g_amb
    return c_th, g_amb, g_lat
