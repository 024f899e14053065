"""Lumped RC thermal plant for the cell array.

Each cell is one node with heat capacity c_th, conductance g_amb to the
ambient/solution bath, lateral conductance g_lat to its orthogonal
neighbors, and heater power injection.  The heater power is held over
each PID period, so `cycle_map` gives the plant's exact affine map over
one period, built in the closed-form modes of the grid; the array applies
it once per cycle.  `step_temps` is a forward-Euler step of the same
plant that the model does not run: it is the reference the map is tested
against.
"""

import math

import numpy as np

# the plant fit's targets, in degC and s (see fit_defaults)
TARGET_RISE = 65.0
STEP_TIME = 10.0


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


def _axis_modes(n):
    """Orthonormal modes of the reflecting-edge Laplacian on an n-node
    axis, as columns, and their eigenvalues; mode 0 is uniform."""
    k = np.arange(n)
    v = np.cos(np.pi * np.outer(k + 0.5, k) / n)
    return v / np.linalg.norm(v, axis=0), 2.0 - 2.0 * np.cos(np.pi * k / n)


def cycle_map(shape, c_th, g_lat, g_amb, period):
    """Exact map of the plant over `period` seconds of held heater power.

    Returns matrices (a, b) over the row-major flattened field such that
        T(period) - T_amb = a @ (T(0) - T_amb) + b @ P
    The lateral term is diagonal in the Kronecker product V of the axis
    modes, so mode m relaxes at rate R_m = (g_amb + g_lat*lam_m) / c_th:
        a = V exp(-R T) V^T,    b = V (1 - exp(-R T)) / (R c_th) V^T
    Each matrix is built as its uniform mode's value times the identity
    plus V diag(mode - mode_0) V^T: with g_lat = 0 every difference is
    exactly 0, so decoupled cells advance bit-identically to single-cell
    arrays.
    """
    (vr, lr), (vc, lc) = (_axis_modes(n) for n in shape)
    v = np.kron(vr, vc)
    rate = (g_amb + g_lat * np.add.outer(lr, lc).ravel()) / c_th
    decay = np.exp(-rate * period)
    gain = -np.expm1(-rate * period) / (rate * c_th)
    eye = np.eye(v.shape[0])
    return tuple(m[0] * eye + (v * (m - m[0])) @ v.T for m in (decay, gain))


def fit_defaults(p_max):
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
