"""Shared exception types with the exit-code contract of the command line tool.

ConfigurationError covers bad configs and misuse of module contracts (exit 2),
numerical check failures map to exit 1 at the CLI layer, OSError to exit 3.
"""


class ConfigurationError(ValueError):
    """Invalid configuration value, unresolvable name, or contract misuse."""


class DominationError(RuntimeError):
    """Thinning acceptance probability exceeded 1: the declared bound is wrong."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not meet the requested error estimate."""
