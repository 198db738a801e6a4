"""Exception types, and the checks on tolerances and solver results.

The one ODE solver is `dop853.solve_ivp`; `check_solution` turns its failed
result into an IntegrationError that carries the time where it stopped.  The
Magnus flow raises one without a time when a drive needs more substeps per
grid interval than it allows.
"""

from __future__ import annotations

import math
import sys

# The smallest rtol of the Magnus flow and of the oracle's stepper: 100 float64 eps, SciPy's
# solve_ivp floor.  Substeps grow as rtol^(-1/4): at 1e-30 fig2b would take 194,026 per interval.
MIN_RTOL = 100 * sys.float_info.epsilon

class ConfigError(ValueError):
    """Invalid scenario configuration; message names the offending field."""


class IntegrationError(RuntimeError):
    """A numerical failure: an ODE solve gave up at `time`, or the flow needs too many substeps."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


def check_solution(sol, what: str) -> None:
    """Raise IntegrationError at the time the solve stopped unless sol succeeded."""
    if not sol.success:
        raise IntegrationError(f"{what} integration failed near t = {sol.t_reached:.6g}: "
                               f"{sol.message}", time=sol.t_reached)


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


def check_rtol(rtol: float, prefix: str = "") -> None:
    """Raise ConfigError unless rtol is finite and >= MIN_RTOL: no integrator clamps it."""
    check_tolerances(prefix, rtol=rtol)
    if rtol < MIN_RTOL:
        raise ConfigError(f"{prefix}rtol: must be >= {MIN_RTOL:.3g}, got {rtol}")
