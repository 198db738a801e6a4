"""Exception types, and the checks on tolerances and solver results.

The one ODE solver is `dop853.solve_ivp`; `check_solution` turns its failed
result into an IntegrationError that carries the time where it stopped.
"""

from __future__ import annotations

import math


class ConfigError(ValueError):
    """Invalid scenario configuration; message names the offending field."""


class IntegrationError(RuntimeError):
    """A numerical failure, carrying the time where it happened: the oracle's ODE integrator gave up."""

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


def check_tolerances(prefix: str = "", **tolerances: float) -> None:
    """Raise ConfigError unless every named tolerance is finite and > 0.

    Checked up front so that a bad value exits as a configuration error, not
    as a traceback from inside the integrator once the run is under way.
    """
    for key, value in tolerances.items():
        if not math.isfinite(value) or value <= 0:
            raise ConfigError(f"{prefix}{key}: must be finite and > 0, got {value}")
