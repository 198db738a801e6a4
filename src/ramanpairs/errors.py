"""Exception types shared across the package and the checks on tolerances and solver results."""

from __future__ import annotations

import math


class ConfigError(ValueError):
    """Invalid scenario configuration; message names the offending field."""


class IntegrationError(RuntimeError):
    """ODE integrator failed; carries the time at which it gave up."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


def check_solution(sol, what: str, t_start: float) -> None:
    """Raise IntegrationError at the last output time (t_start if none) unless sol succeeded."""
    if not sol.success:
        t_fail = float(sol.t[-1]) if sol.t.size else float(t_start)
        raise IntegrationError(f"{what} integration failed near t = {t_fail:.6g}: {sol.message}",
                               time=t_fail)


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
