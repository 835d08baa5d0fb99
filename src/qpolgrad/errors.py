"""Exception types shared across the package."""


class ContractError(ValueError):
    """An operation was called with arguments that violate its contract."""


class ConfigError(ValueError):
    """A configuration value (or combination) is invalid."""
