"""Two-time propagator of the drift system and the cumulative source-row integrals.

The field-operator solutions need K_r,m(t, s) = int_s^t U_{r,m}(tau, s) dtau
for the four source rows r in algebra.SOURCE_ROWS and every grid pair
t_i >= s_j.  Materializing that store scales as O(N^2); instead the build
exploits the exact flow identity U(t, s) = U(t, 0) V(s) with
V(s) = U(s, 0)^{-1}.  Row kernels then factor as

    K(t_i, s_j) = (S(t_i) - S(s_j)) V(s_j),

with S the cumulative trapezoid of the four source rows of U(., 0), stacked
into one (n_points, 4, 16) array.  This reproduces the direct per-s_j
trapezoid quadrature exactly (linearity).  One flow U(., 0) per scenario
feeds everything, and the expectation trajectory is U(t, 0) X(0).  Constant
drives (both cw, unchirped) get the flow and its inverse exactly, as powers
of expm(M h) and expm(-M h) on the uniform grid, formed by repeated doubling
in a few batched products.  Time-dependent drives get the flow from one
256-state DOP853 solve and V from its batched 16x16 inverse.

The inverse grows like exp(decay * t), so long windows lose the kernels to
cancellation without any integrator complaint.  The build therefore checks
the condition number of U(t_end, 0) and raises IntegrationError past
MAX_CONDITION.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid, solve_ivp
from scipy.linalg import expm

from . import algebra
from .atom import AtomConfig, DriftBuilder, state_vector
from .atom import evolve_state  # noqa: F401  (perfbench/tracing.py wraps propagator.evolve_state)
from .errors import ConfigError, IntegrationError
from .pulses import PulseSpec

# Largest condition number of U(t_end, 0) the kernel factorization trusts.
# Preset scenarios stay below 1e3.  fig2b stretched to t_end 10 reaches 7e8
# and still meets the Fock oracle to 1.5e-3 in n_k; at t_end 20 it reaches
# 2e17 and n_k comes out tens of times off.
MAX_CONDITION = 1e12


def _powers(step_map: np.ndarray, n: int) -> np.ndarray:
    """step_map^i for i = 0 .. n - 1, shape (n, 16, 16).

    Doubling: with the first k powers known, the next k are those times
    step_map^k, so the table takes about log2(n) batched products.
    """
    p = np.empty((n, 16, 16), dtype=complex)
    p[0] = np.eye(16)
    p[1] = step_map
    k = 2
    while k < n:
        m = min(k, n - k)
        np.matmul(p[:m], p[k - 1] @ step_map, out=p[k:k + m])
        k += m
    return p


def _solve_matrix_ode(builder: DriftBuilder, times: np.ndarray,
                      rtol: float, atol: float) -> tuple[np.ndarray, np.ndarray | None]:
    """U(t_i, times[0]) on a uniform grid, starting from the identity, and its inverse.

    A constant M gives the exact flow as powers of one step propagator,
    U(t_i) = expm(M h)^i, and the inverse for free as expm(-M h)^i.
    Time-dependent drives integrate dU/dt = M(t) U with the 8th-order
    Dormand-Prince pair DOP853 and return None for the inverse; rtol and atol
    apply only to that path.
    """
    if builder.constant:
        step = (times[-1] - times[0]) / (len(times) - 1)
        m_step = builder.entries(times[0]) * step
        return _powers(expm(m_step), len(times)), _powers(expm(-m_step), len(times))

    def rhs(t, y):
        return (builder.entries(t) @ y.reshape(16, 16)).reshape(256)

    y0 = np.eye(16, dtype=complex).reshape(256)
    sol = solve_ivp(rhs, (times[0], times[-1]), y0, method="DOP853",
                    t_eval=times, rtol=rtol, atol=atol)
    if not sol.success:
        t_fail = float(sol.t[-1]) if sol.t.size else float(times[0])
        raise IntegrationError(f"propagator integration failed near t = {t_fail:.6g}: {sol.message}",
                               time=t_fail)
    return np.ascontiguousarray(sol.y.T.reshape(len(times), 16, 16)), None


@dataclass
class PropagatorGrid:
    """Uniform-grid propagator data consumed by the moment assembly.

    times is the uniform grid.  Everything derives from the one solved flow
    U(t_i, 0): v_inverse[j] = U(s_j, 0)^{-1} (exact powers of expm(-M h) for
    constant drives, batched inversion otherwise), state_traj[i] = U(t_i, 0) X(0)
    the 16-component expectation trajectory, and source_cumint[i, r] the
    cumulative trapezoid S of the source rows of U(., 0), slot r following
    algebra.SOURCE_ROWS.
    """

    times: np.ndarray
    step: float
    state_traj: np.ndarray
    v_inverse: np.ndarray
    source_cumint: np.ndarray  # (n_points, 4, 16)

    @property
    def n_points(self) -> int:
        return len(self.times)


def build_propagator_grid(atom: AtomConfig, pump: PulseSpec, control: PulseSpec,
                          t_end: float, n_intervals: int,
                          rtol: float = 1e-9, atol: float = 1e-12) -> PropagatorGrid:
    """Solve U(., 0) on a uniform grid and derive the inverse, state and row integrals."""
    if t_end <= 0:
        raise ConfigError(f"t_end must be > 0, got {t_end}")
    if n_intervals < 2:
        raise ConfigError(f"need at least 2 grid intervals, got {n_intervals}")

    times = np.linspace(0.0, float(t_end), int(n_intervals) + 1)
    u_from0, v_inverse = _solve_matrix_ode(DriftBuilder(atom, pump, control), times,
                                           rtol=rtol, atol=atol)
    condition = np.linalg.cond(u_from0[-1])
    if condition > MAX_CONDITION:
        raise IntegrationError(
            f"propagator U(t_end, 0) has condition number {condition:.3g} "
            f"(limit {MAX_CONDITION:.0e}); its inverse cannot carry the kernels "
            f"over this window, shorten t_end", time=float(times[-1]))
    if v_inverse is None:
        v_inverse = np.linalg.inv(u_from0)
    state_traj = u_from0 @ state_vector(atom.rho0)

    rows = u_from0[:, np.asarray(algebra.SOURCE_ROWS) - 1, :]
    source_cumint = cumulative_trapezoid(rows, x=times, axis=0, initial=0)

    return PropagatorGrid(times=times, step=float(times[1] - times[0]), state_traj=state_traj,
                          v_inverse=v_inverse, source_cumint=source_cumint)

