"""Complex Rabi amplitudes of the driving lasers.

Every drive is either cw or a Gaussian pulse exp[-(t - t0)^2 / sigma^2]
(1/e half-width sigma, no factor 2), with an optional linear frequency chirp
entering as the quadratic phase exp(-i alpha (t - t_ref)^2) on the amplitude.
Times and rates are in units of the a->c linewidth; angles in radians.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError

SHAPES = ("cw", "gaussian")


@dataclass(frozen=True)
class PulseSpec:
    """One laser drive.

    Parameters
    ----------
    shape : {"cw", "gaussian"}
    omega_peak : float
        Peak Rabi frequency, >= 0 (a sign flip belongs in phase0).
    center : float
        Pulse center t0; ignored for cw.
    width : float
        1/e half-width sigma, > 0; ignored for cw.
    detuning : float
        Static carrier detuning (field frequency minus transition frequency).
    chirp : float
        Chirp rate alpha of the quadratic phase.
    phase0 : float
        Constant phase offset.
    chirp_origin : float
        Time where the chirp phase is stationary; 0 references the phase to
        the start of the simulation window.
    """

    shape: str = "cw"
    omega_peak: float = 0.0
    center: float = 0.0
    width: float = 1.0
    detuning: float = 0.0
    chirp: float = 0.0
    phase0: float = 0.0
    chirp_origin: float = 0.0

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ConfigError(f"pulse shape must be one of {SHAPES}, got {self.shape!r}")
        for name in (f.name for f in fields(self) if f.name != "shape"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ConfigError(f"pulse field {name} must be finite, got {value!r}")
        if self.omega_peak < 0:
            raise ConfigError("omega_peak must be >= 0; absorb the sign into phase0")
        if self.shape == "gaussian" and self.width <= 0:
            raise ConfigError(f"gaussian pulse width must be > 0, got {self.width}")


def off() -> PulseSpec:
    """A switched-off drive (zero-amplitude cw, resonant frame)."""
    return PulseSpec(shape="cw", omega_peak=0.0)


def is_steady(spec: PulseSpec) -> bool:
    """True for a cw unchirped drive, whose Rabi amplitude is the same at every time."""
    return spec.shape == "cw" and spec.chirp == 0


def envelope(spec: PulseSpec, t):
    """Real envelope in [0, 1] at a float time or an array of times: 1 for cw, else the Gaussian."""
    if spec.shape == "cw":
        return 1.0
    u = (t - spec.center) / spec.width
    return np.exp(-u * u) if isinstance(u, np.ndarray) else math.exp(-u * u)


def rabi(spec: PulseSpec, t):
    """Complex Rabi amplitude Omega * E(t) * exp(-i (phase0 + alpha (t - t_ref)^2)).

    Takes a float time, or an array of times elementwise; rejects a non-finite
    time.  A float goes through math and cmath: the oracle's ODE right-hand
    side asks for one time per call, thousands of times per run, and NumPy's
    overhead on a scalar would make each call about eight times slower.
    """
    if isinstance(t, np.ndarray):
        finite, exp = np.isfinite(t).all(), np.exp
    else:
        t = float(t)
        finite, exp = math.isfinite(t), cmath.exp
    if not finite:
        raise ValueError("time must be finite")
    tau = t - spec.chirp_origin
    phase = spec.phase0 + spec.chirp * tau * tau
    return spec.omega_peak * envelope(spec, t) * exp(-1j * phase)
