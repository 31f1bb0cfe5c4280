"""Exception types shared across the package.

Public: ConfigError, NumericsError.
"""


class ConfigError(ValueError):
    """Invalid scenario configuration (bad value, unknown key, infeasible geometry)."""


class NumericsError(RuntimeError):
    """A numerical routine failed: no convergence, or a result float64 cannot hold."""
