"""Exception types shared across the simulator, and the check that raises them."""


class DomainError(ValueError):
    """An input is outside the physically supported range."""


class ConfigurationError(ValueError):
    """Parameters are inconsistent with the block's operating constraints."""


class FitError(ConfigurationError):
    """Plant parameter fitting received infeasible constraints."""


def require(ok, key, rule, value):
    """Reject the setting `key` ("section.name") unless ok: "key must be rule, got value"."""
    if not ok:
        raise ConfigurationError(f"{key} must be {rule}, got {value!r}")
