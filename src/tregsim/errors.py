"""Exception types shared across the simulator, and the checks that raise them."""

import math

import numpy as np


class DomainError(ValueError):
    """An input is outside the physically supported range."""


class ConfigurationError(ValueError):
    """Parameters are inconsistent with the block's operating constraints."""


def require(ok, key, rule, value):
    """Reject the setting `key` ("section.name") unless ok: "key must be rule, got value"."""
    if not ok:
        raise ConfigurationError(f"{key} must be {rule}, got {value!r}")


def least(x):
    """The least element of x, NaN skipped, inf if x is empty: so
    `least(x) < lo` is np.any(x < lo) in one reduction."""
    x = np.asarray(x)
    return np.fmin.reduce(x, axis=None) if x.size else math.inf


def greatest(x):
    """The greatest element of x, NaN skipped, -inf if x is empty (see least)."""
    x = np.asarray(x)
    return np.fmax.reduce(x, axis=None) if x.size else -math.inf
