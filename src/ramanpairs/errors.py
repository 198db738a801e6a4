"""Exception types shared across the package, and the tolerance check both configs run."""

from __future__ import annotations

import math


class ConfigError(ValueError):
    """Invalid scenario configuration; message names the offending field."""


class IntegrationError(RuntimeError):
    """ODE integrator failed; carries the time at which it gave up."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class CutoffError(RuntimeError):
    """Fock truncation too small for the requested accuracy."""


def check_tolerances(rtol: float, atol: float, prefix: str = "") -> None:
    """Raise ConfigError unless both integrator tolerances are finite and > 0.

    Checked up front so that a bad value exits as a configuration error, not
    as a traceback from inside the integrator once the run is under way.
    """
    for key, value in (("rtol", rtol), ("atol", atol)):
        if not math.isfinite(value) or value <= 0:
            raise ConfigError(f"{prefix}{key}: must be finite and > 0, got {value}")
