"""Drift matrix and state evolution of the driven four-level atom.

The sixteen slowly varying transition operators obey dX/dt = M(t) X + F(t).
M(t) collects three pieces:

* the coherent part, lifted from the 4x4 rotating-frame Hamiltonian
  h(t) = diag(-Delta_c, 0, 0, -Delta_p) - [Omega_c(t)|a><b| + Omega_p(t)|d><c| + h.c.],
  where the pump couples c<->d and the control couples b<->a;
* radiative decay a->b, a->c, d->b, d->c with matching repopulation;
* optional pure dephasing of the b-c ground coherence.

The rotating frame pins the representative Stokes mode at two-photon
resonance with the pump and the anti-Stokes mode at two-photon resonance
with the control, which closes the four-photon loop and keeps M(t)
time-independent for unchirped cw drives.  Field back-action on the atom is
dropped (lowest order in the photon couplings), so M carries no g_k, g_q.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from . import algebra
from .errors import ConfigError, IntegrationError
from .pulses import PulseSpec, rabi

_RHO0_DEFAULT = np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex)  # atom starts in |c>


def _as_rho(matrix) -> np.ndarray:
    rho = np.asarray(matrix, dtype=complex)
    if rho.shape != (4, 4):
        raise ConfigError(f"rho0 must be 4x4, got shape {rho.shape}")
    if abs(np.trace(rho) - 1.0) > 1e-12:
        raise ConfigError(f"rho0 trace must be 1 within 1e-12, got {np.trace(rho)}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        raise ConfigError("rho0 must be Hermitian within 1e-12")
    if np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) < -1e-10:
        raise ConfigError("rho0 must be positive semidefinite (eigenvalues >= -1e-10)")
    return rho


@dataclass(frozen=True)
class AtomConfig:
    """Level scheme rates, photon couplings and initial state.

    Rates are in units of the a->c linewidth.  gamma_xy is the radiative
    decay of excited level x into ground level y; gamma_bc is extra ground
    decoherence (pure dephasing).  g_k, g_q couple the Stokes (d->b) and
    anti-Stokes (a->c) transitions to their representative field modes, and
    n_th_k, n_th_q are the initial thermal photon numbers of those modes.
    """

    gamma_ab: float = 1.0
    gamma_ac: float = 1.0
    gamma_db: float = 1.0
    gamma_dc: float = 1.0
    gamma_bc: float = 0.0
    g_k: float = 0.1
    g_q: float = 0.1
    n_th_k: float = 0.0
    n_th_q: float = 0.0
    rho0: np.ndarray = field(default_factory=lambda: _RHO0_DEFAULT.copy())

    def __post_init__(self):
        for name in ("gamma_ab", "gamma_ac", "gamma_db", "gamma_dc", "gamma_bc",
                     "g_k", "g_q", "n_th_k", "n_th_q"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ConfigError(f"atom field {name} must be finite and >= 0, got {value!r}")
        object.__setattr__(self, "rho0", _as_rho(self.rho0))

    def decay_channels(self) -> tuple[tuple[str, str, float], ...]:
        """(excited, ground, rate) triples of the radiative channels."""
        return (("a", "b", self.gamma_ab), ("a", "c", self.gamma_ac),
                ("d", "b", self.gamma_db), ("d", "c", self.gamma_dc))


def hamiltonian_lift(h: np.ndarray) -> np.ndarray:
    """Map a 4x4 Hamiltonian (units of hbar) to its action on <sigma_xy>.

    d<sigma_xy>/dt = i sum_u h[u,x] <sigma_uy> - i sum_v h[y,v] <sigma_xv>.
    """
    lift = np.zeros((16, 16), dtype=complex)
    for x in range(4):
        for y in range(4):
            row = 4 * x + y
            for u in range(4):
                lift[row, 4 * u + y] += 1j * h[u, x]
            for v in range(4):
                lift[row, 4 * x + v] -= 1j * h[y, v]
    return lift


def _decay_generator(atom: AtomConfig) -> np.ndarray:
    """Adjoint dissipator of the radiative channels plus b-c dephasing."""
    gen = np.zeros((16, 16), dtype=complex)
    rank = algebra._RANK
    for excited, ground, rate in atom.decay_channels():
        if rate == 0.0:
            continue
        e, g = rank[excited], rank[ground]
        # repopulation sigma_gg <- sigma_ee
        gen[4 * g + g, 4 * e + e] += rate
        # any coherence touching the excited level decays at rate/2
        for y in range(4):
            gen[4 * e + y, 4 * e + y] -= 0.5 * rate
            gen[4 * y + e, 4 * y + e] -= 0.5 * rate
    if atom.gamma_bc > 0.0:
        # L = sqrt(gamma_bc/2) (|b><b| - |c><c|) damps sigma_bc at gamma_bc
        kappa = 0.5 * atom.gamma_bc
        sign = {rank["b"]: 1.0, rank["c"]: -1.0}
        for x in range(4):
            for y in range(4):
                sx = sign.get(x, 0.0)
                sy = sign.get(y, 0.0)
                gen[4 * x + y, 4 * x + y] -= 0.5 * kappa * (sx - sy) ** 2
    return gen


class DriftBuilder:
    """Precomputed affine decomposition of M(t) for fast repeated evaluation.

    M(t) = M_static + Omega_p(t) P + conj(Omega_p(t)) P* part
                    + Omega_c(t) C + conj(Omega_c(t)) C* part,
    where the four drive matrices come from lifting the unit coupling
    operators.  Only the complex Rabi amplitudes vary with time.
    """

    def __init__(self, atom: AtomConfig, pump: PulseSpec, control: PulseSpec):
        self.atom = atom
        self.pump = pump
        self.control = control
        rank = algebra._RANK
        delta = np.zeros(4)
        delta[rank["d"]] = -pump.detuning
        delta[rank["a"]] = -control.detuning
        self._static = hamiltonian_lift(np.diag(delta).astype(complex)) + _decay_generator(atom)

        def unit(x, y):
            h = np.zeros((4, 4), dtype=complex)
            h[rank[x], rank[y]] = -1.0  # interaction enters with a minus sign
            return hamiltonian_lift(h)

        # rows match the coefficients (Omega_p, Omega_c, conj Omega_p, conj Omega_c)
        self._drives = np.stack([unit("d", "c"), unit("a", "b"),
                                 unit("c", "d"), unit("b", "a")]).reshape(4, 256)

    @property
    def constant(self) -> bool:
        """True when M does not depend on time: both drives cw and unchirped."""
        return all(spec.shape == "cw" and spec.chirp == 0.0
                   for spec in (self.pump, self.control))

    def entries(self, t) -> np.ndarray:
        """M(t) at a scalar time, shape (16, 16), or at an array of n times, (n, 16, 16)."""
        om_p = rabi(self.pump, t)
        om_c = rabi(self.control, t)
        coeffs = np.array([om_p, om_c, np.conj(om_p), np.conj(om_c)])
        m = (coeffs.T @ self._drives).reshape(coeffs.shape[1:] + (16, 16))
        m += self._static
        return m


def state_vector(rho: np.ndarray) -> np.ndarray:
    """<sigma_xy> components of a density matrix, X_m = rho[y, x]."""
    return np.asarray(rho, dtype=complex).T.reshape(16).copy()


def density_matrix(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`state_vector`."""
    return np.asarray(x, dtype=complex).reshape(4, 4).T.copy()


def evolve_state(atom: AtomConfig, pump: PulseSpec, control: PulseSpec,
                 times: np.ndarray, rtol: float = 1e-9, atol: float = 1e-12) -> np.ndarray:
    """Expectation trajectory X(t_i) on the given grid, X(0) from rho0.

    Returns an array of shape (len(times), 16).  Raises IntegrationError if
    the adaptive integrator fails, carrying the failure time.
    """
    times = np.asarray(times, dtype=float)
    builder = DriftBuilder(atom, pump, control)
    x0 = state_vector(atom.rho0)

    def rhs(t, x):
        return builder.entries(t) @ x

    sol = solve_ivp(rhs, (times[0], times[-1]), x0, method="RK45",
                    t_eval=times, rtol=rtol, atol=atol)
    if not sol.success:
        t_fail = float(sol.t[-1]) if sol.t.size else float(times[0])
        raise IntegrationError(f"state integration failed near t = {t_fail:.6g}: {sol.message}",
                               time=t_fail)
    return sol.y.T.copy()
