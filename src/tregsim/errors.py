"""Exception types shared across the simulator."""


class DomainError(ValueError):
    """An input is outside the physically supported range."""


class ConfigurationError(ValueError):
    """Parameters are inconsistent with the block's operating constraints."""


class FitError(ConfigurationError):
    """Plant parameter fitting received infeasible constraints."""
