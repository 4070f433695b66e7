"""Exception taxonomy shared across the toolkit."""

from __future__ import annotations


class RwreError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(RwreError):
    """Invalid run configuration. Carries a pointer to the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config key '{key}': {message}")


class WindowExhaustedError(RwreError):
    """A sampled-window environment was queried outside its window."""


class SupercriticalError(RwreError):
    """Moment-generating quantities diverge at the requested tilt.

    Carries diagnostics useful for post-mortem: the tilt, the box that
    detected divergence, and the iteration count.
    """

    def __init__(self, message: str, r: float | None = None, diagnostics: dict | None = None):
        self.r = r
        self.diagnostics = diagnostics or {}
        super().__init__(message)


class SlowConvergenceError(RwreError):
    """Iteration budget exhausted before reaching the requested tolerance."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        self.diagnostics = diagnostics or {}
        super().__init__(message)


class DriftMismatchError(RwreError):
    """Tilted drift and reciprocal slope disagree beyond the two-method gap."""

    def __init__(self, message: str, drift: float, reciprocal_slope: float):
        self.drift = drift
        self.reciprocal_slope = reciprocal_slope
        super().__init__(message)


class InfeasibleDriftError(RwreError):
    """No stationary pair measure with the requested mean displacement exists.

    Carries the attainable drift range as a certificate.
    """

    def __init__(self, message: str, xi_min: float, xi_max: float):
        self.xi_min = xi_min
        self.xi_max = xi_max
        super().__init__(message)
