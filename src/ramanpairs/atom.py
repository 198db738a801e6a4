"""Drift matrix and state evolution of the driven four-level atom.

The sixteen slowly varying transition operators obey dX/dt = M(t) X + F(t).
M(t) collects three pieces:

* the coherent part, lifted from the 4x4 rotating-frame Hamiltonian
  h(t) = diag(-Delta_c, 0, 0, -Delta_p) - [Omega_c(t)|a><b| + Omega_p(t)|d><c| + h.c.],
  where the pump couples c<->d and the control couples b<->a;
* radiative decay a->b, a->c, d->b, d->c with matching repopulation;
* optional pure dephasing of the b-c ground coherence.

M is built as one `algebra.lift` of h plus one `algebra.dissipator` per decay
channel and one for the dephasing; only the drive part of h depends on time.

The rotating frame pins the representative Stokes mode at two-photon
resonance with the pump and the anti-Stokes mode at two-photon resonance
with the control, which closes the four-photon loop and keeps M(t)
time-independent for unchirped cw drives.  Field back-action on the atom is
dropped (lowest order in the photon couplings), so M carries no g_k, g_q.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields

import numpy as np

from . import algebra
from .errors import ConfigError, check_solution, solve_ivp
from .pulses import PulseSpec, rabi

# (k, l) with k < l, the order of the commutators [G_k, G_l] in DriftBuilder.generators
GENERATOR_PAIRS = np.array(list(itertools.combinations(range(5), 2))).T
_RHO0_DEFAULT = np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex)  # atom starts in |c>


def _as_rho(matrix) -> np.ndarray:
    rho = np.asarray(matrix, dtype=complex)
    if rho.shape != (4, 4):
        raise ConfigError(f"rho0 must be 4x4, got shape {rho.shape}")
    if not np.isfinite(rho).all():  # NaN fails every comparison below
        raise ConfigError("rho0 entries must be finite")
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
        for name in (f.name for f in fields(self) if f.name != "rho0"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ConfigError(f"atom field {name} must be finite and >= 0, got {value!r}")
        object.__setattr__(self, "rho0", _as_rho(self.rho0))

    def decay_channels(self) -> tuple[tuple[str, str, float], ...]:
        """(excited, ground, rate) triples of the radiative channels."""
        return (("a", "b", self.gamma_ab), ("a", "c", self.gamma_ac),
                ("d", "b", self.gamma_db), ("d", "c", self.gamma_dc))


def dissipation(atom: AtomConfig) -> np.ndarray:
    """The decay and dephasing part of M, (16, 16): one algebra.dissipator per channel."""
    decay = sum(algebra.dissipator(rate, algebra.op(ground, excited))
                for excited, ground, rate in atom.decay_channels())
    # L = |b><b| - |c><c| at rate gamma_bc/2 damps sigma_bc at gamma_bc
    return decay + algebra.dissipator(0.5 * atom.gamma_bc,
                                      algebra.op("b", "b") - algebra.op("c", "c"))


class DriftBuilder:
    """Precomputed affine decomposition of M(t) for fast repeated evaluation.

    M(t) = static + Omega_p(t) P + conj(Omega_p(t)) P* part
                  + Omega_c(t) C + conj(Omega_c(t)) C* part,
    where the four drive matrices come from lifting the unit coupling
    operators and the static part holds the detunings, decay and dephasing.
    Only the complex Rabi amplitudes vary with time.

    The same sum over the real `coefficients` (1, Re Omega_p, Im Omega_p,
    Re Omega_c, Im Omega_c) has five pieces G_k that each preserve
    Hermiticity (real in the coordinates of algebra.HERMITIAN).
    ``generators`` holds them, then their ten commutators [G_k, G_l] in the
    order of GENERATOR_PAIRS: every Magnus step of the propagator is a real
    combination of these fifteen.  `entries` evaluates M at one time.
    """

    def __init__(self, atom: AtomConfig, pump: PulseSpec, control: PulseSpec):
        self.atom = atom
        self.pump = pump
        self.control = control
        # h = diag(-Delta_c, 0, 0, -Delta_p) over the levels a, b, c, d
        detuning = np.diag([-control.detuning, 0.0, 0.0, -pump.detuning])
        static = algebra.lift(detuning) + dissipation(atom)
        # the parts multiplying Omega_p, Omega_c, conj Omega_p, conj Omega_c;
        # the interaction enters h with a minus sign
        pump_p, pump_c, conj_p, conj_c = (algebra.lift(-algebra.op(x, y))
                                          for x, y in ("dc", "ab", "cd", "ba"))
        pieces = np.stack([static, pump_p + conj_p, 1j * (pump_p - conj_p),
                           pump_c + conj_c, 1j * (pump_c - conj_c)])
        k, l = GENERATOR_PAIRS
        self.generators = np.concatenate((pieces, pieces[k] @ pieces[l] - pieces[l] @ pieces[k]))

    def coefficients(self, t: np.ndarray) -> np.ndarray:
        """Weights of the first five ``generators`` at each time of t, shape (len(t), 5)."""
        om_p = rabi(self.pump, t)
        om_c = rabi(self.control, t)
        return np.stack([np.ones_like(om_p.real), om_p.real, om_p.imag, om_c.real, om_c.imag],
                        axis=-1)

    def entries(self, t: float) -> np.ndarray:
        """M(t) at a scalar time t, shape (16, 16)."""
        return np.tensordot(self.coefficients(np.asarray(float(t))), self.generators[:5], 1)


def state_vector(rho: np.ndarray) -> np.ndarray:
    """<sigma_xy> components of a density matrix, X_m = rho[y, x]."""
    return np.asarray(rho, dtype=complex).T.reshape(16).copy()


def evolve_state(atom: AtomConfig, pump: PulseSpec, control: PulseSpec,
                 times: np.ndarray, rtol: float = 1e-9, atol: float = 1e-12) -> np.ndarray:
    """Expectation trajectory X(t_i) on the given grid, X(0) from rho0.

    Integrates dX/dt = M(t) X with DOP853.  Returns an array of shape
    (len(times), 16).  Raises IntegrationError if the adaptive integrator
    fails, carrying the failure time.
    """
    times = np.asarray(times, dtype=float)
    builder = DriftBuilder(atom, pump, control)
    x0 = state_vector(atom.rho0)

    def rhs(t, x):
        return builder.entries(t) @ x

    sol = solve_ivp(rhs, (times[0], times[-1]), x0, method="DOP853",
                    t_eval=times, rtol=rtol, atol=atol)
    check_solution(sol, "state", times[0])
    return sol.y.T.copy()
