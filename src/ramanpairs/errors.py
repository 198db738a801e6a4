"""Exception types, the checks on tolerances and solver results, and the one ODE entry point.

`solve_ivp` imports scipy.integrate at its first call.  That import, with the
scipy.sparse, scipy.linalg, scipy.special and scipy.optimize it pulls in,
takes 0.54-0.67 s, against 0.14-0.32 s for the whole package with NumPy, and
raises the resident size from 34 to 80 MB (fresh interpreter, 2-core host,
one BLAS thread).  Only the Fock oracle (the verify command) and the
reference solve atom.evolve_state call it; a scenario run, with constant
or pulsed drives, solves no ODE and never loads it.
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


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported at the first call.

    `atom` and `oracle` each bind this name, so each module's solve can be
    wrapped on its own (perfbench/tracing.py does); `propagator` still binds
    it for that wrapper, and calls it nowhere.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


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
