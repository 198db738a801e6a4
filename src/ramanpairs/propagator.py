"""Two-time propagator of the drift system and the kernel quadrature on its grid.

The field-operator solutions need K_r,m(t, s) = int_s^t U_{r,m}(tau, s) dtau
for the four source rows r in algebra.SOURCE_ROWS and every grid pair
t_i >= s_j.  M(t) never couples the eight coherences of algebra.SECTOR0 to
the other eight operators (see its docstring for the charge argument), so
U(t, s) is block diagonal and the source rows, all in the sector, have
support only on its eight columns.  Everything below works on that 8x8 block
U_S.  Materializing the two-time store scales as O(N^2); instead the build
exploits the exact flow identity U_S(t, s) = U_S(t, 0) V(s) with
V(s) = U_S(s, 0)^{-1}.  Row kernels then factor as

    K(t_i, s_j) = (S(t_i) - S(s_j)) V(s_j),

with S the cumulative trapezoid of the four source rows of U_S(., 0), stacked
into one (n_points, 4, 8) array.  PropagatorGrid.kernel_sum and kernel_form
take every s-integral of the kernels on these factors, one trapezoid rule at
O(N) cost.  One flow per scenario feeds everything, and the expectation
trajectory is U(t, 0) X(0); it also carries the noise, since the moment
assembly forms the diffusion block as that trajectory times the atom's
constant Einstein map (noise.diffusion_table).  Constant drives (both cw,
unchirped) get the flow and its inverse exactly, as powers of the sector
blocks of expm(M h) and expm(-M h) on the uniform grid, and the state as
powers of the full expm(M h) applied to X(0), each formed by repeated
doubling in a few batched products.  Time-dependent drives get U_S and the state X from one
80-component DOP853 solve (64 for U_S, 16 for X) and V from its batched 8x8
inverse.

The inverse grows like exp(decay * t), so long windows lose the kernels to
cancellation without any integrator complaint.  The build therefore checks
the condition number of U_S(t_end, 0), the block the kernels invert, and
raises IntegrationError past MAX_CONDITION.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from . import algebra
from .atom import AtomConfig, DriftBuilder, state_vector
from .atom import evolve_state  # noqa: F401  (perfbench/tracing.py wraps propagator.evolve_state)
from .errors import ConfigError, IntegrationError, check_solution
from .pulses import PulseSpec

# Largest condition number of the sector block U_S(t_end, 0), the block the
# kernels invert, that the factorization trusts.  Preset scenarios stay below
# 1e3.  fig2b stretched to t_end 10 reaches 1.1e8 and still meets the Fock
# oracle to 1.5e-3 in n_k; at t_end 20 it reaches 5.5e16 and n_k comes out
# tens of times off.  The block reads 6-7x below the full 16x16 flow, which
# passes 1e12 at t_end 13.6; the limit 1e11, passed at 13.4 (1.9e11 at 13.7,
# 3.4e11 at 14, 2.5e12 at 15), admits no window a 1e12 guard on the full
# flow would refuse.
MAX_CONDITION = 1e11

_BLOCK = np.ix_(algebra.SECTOR0, algebra.SECTOR0)
# positions of the source rows inside the sector
_SOURCE = np.searchsorted(algebra.SECTOR0, np.asarray(algebra.SOURCE_ROWS) - 1)


def _cumulative_trapezoid(v: np.ndarray, step: float) -> np.ndarray:
    """Trapezoid integral of v over the grid axis from t_0 to every t_i.

    (2 sum_{j <= i} v_j - v_0 - v_i) h / 2, formed in place on the cumsum.
    """
    out = np.cumsum(v, axis=0)
    out *= 2.0
    out -= v
    out -= v[0]
    out *= 0.5 * step
    return out


def _orbit(step_map: np.ndarray, start: np.ndarray, n: int) -> np.ndarray:
    """step_map^i @ start for i = 0 .. n - 1, shape (n, *start.shape).

    Doubling: with the first k terms known, the next k are step_map^k times
    them, so the table takes about log2(n) batched products.
    """
    out = np.empty((n, *start.shape), dtype=complex)
    out[0] = start
    power, k = step_map, 1
    while k < n:
        m = min(k, n - k)
        np.matmul(power, out[:m], out=out[k:k + m])
        power = power @ power
        k += m
    return out


def _solve_flow(builder: DriftBuilder, x0: np.ndarray, times: np.ndarray,
                rtol: float, atol: float) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Sector block of U(t_i, times[0]), its inverse, and the state U(t_i, times[0]) x0.

    A constant M gives the exact flow as powers of one step propagator
    expm(M h): its sector block gives U, the inverse block expm(-M_S h) gives
    V for free, and the full step map carries the state.  Time-dependent
    drives integrate the sector block dU/dt = M_S(t) U from the identity
    together with dX/dt = M(t) X, 64 + 16 components in one DOP853 solve
    (8th-order Dormand-Prince), and return None for the inverse; rtol and
    atol apply only to that path.
    """
    n = len(times)
    if builder.constant:
        m_step = builder.entries(times[0]) * ((times[-1] - times[0]) / (n - 1))
        step_map = expm(m_step)
        return (_orbit(step_map[_BLOCK], np.eye(8), n),
                _orbit(expm(-m_step[_BLOCK]), np.eye(8), n),
                _orbit(step_map, x0[:, None], n)[..., 0])

    def rhs(t, y):
        m = builder.entries(t)
        return np.concatenate(((m[_BLOCK] @ y[:64].reshape(8, 8)).reshape(64), m @ y[64:]))

    y0 = np.concatenate((np.eye(8, dtype=complex).reshape(64), x0))
    sol = solve_ivp(rhs, (times[0], times[-1]), y0, method="DOP853",
                    t_eval=times, rtol=rtol, atol=atol)
    check_solution(sol, "propagator", times[0])
    return (np.ascontiguousarray(sol.y[:64].T).reshape(n, 8, 8), None,
            np.ascontiguousarray(sol.y[64:].T))


@dataclass
class PropagatorGrid:
    """Uniform-grid propagator data consumed by the moment assembly.

    times is the uniform grid.  Everything derives from the one solved flow
    U(t_i, 0), which is block diagonal over algebra.SECTOR0 and its complement:
    v_inverse[j] is the inverse of its 8x8 sector block at s_j (exact powers of
    expm(-M_S h) for constant drives, batched inversion otherwise),
    state_traj[i] = U(t_i, 0) X(0) the 16-component expectation trajectory, and
    source_cumint[i, r] the cumulative trapezoid S of source row r of U(., 0)
    over the sector columns, slot r following algebra.SOURCE_ROWS.
    """

    times: np.ndarray
    step: float
    state_traj: np.ndarray   # (n_points, 16)
    v_inverse: np.ndarray    # (n_points, 8, 8)
    source_cumint: np.ndarray  # (n_points, 4, 8)

    def kernel_sum(self, y: np.ndarray) -> np.ndarray:
        """h sum_{s_j <= t_i} w_j K(t_i, s_j) y_j: sector values (n, 8, k) -> (n, 4, k).

        With K = (S_i - S_j) V_j it is S_i times one trapezoid of V_j y_j minus
        the trapezoid of S_j V_j y_j.
        """
        z = self.v_inverse @ y
        s = self.source_cumint
        return s @ _cumulative_trapezoid(z, self.step) - _cumulative_trapezoid(s @ z, self.step)

    def kernel_form(self, d: np.ndarray) -> np.ndarray:
        """h sum_j w_j K(t_i, s_j) d_j K(t_i, s_j)^T for sector blocks d (n, 8, 8).

        With K^T = V_j^T (S_i - S_j)^T and y_j = d_j V_j^T, that is
        kernel_sum(y) S_i^T - kernel_sum(y S^T).
        """
        s_t = self.source_cumint.transpose(0, 2, 1)
        y = d @ self.v_inverse.transpose(0, 2, 1)
        return self.kernel_sum(y) @ s_t - self.kernel_sum(y @ s_t)


def build_propagator_grid(atom: AtomConfig, pump: PulseSpec, control: PulseSpec,
                          t_end: float, n_intervals: int,
                          rtol: float = 1e-9, atol: float = 1e-12) -> PropagatorGrid:
    """Solve the flow from 0 on a uniform grid and derive the inverse, state and row integrals."""
    if t_end <= 0:
        raise ConfigError(f"t_end must be > 0, got {t_end}")
    if n_intervals < 2:
        raise ConfigError(f"need at least 2 grid intervals, got {n_intervals}")

    times = np.linspace(0.0, float(t_end), int(n_intervals) + 1)
    u_sector, v_inverse, state_traj = _solve_flow(DriftBuilder(atom, pump, control),
                                                  state_vector(atom.rho0), times,
                                                  rtol=rtol, atol=atol)
    condition = np.linalg.cond(u_sector[-1])
    if condition > MAX_CONDITION:
        raise IntegrationError(
            f"propagator U(t_end, 0) has condition number {condition:.3g} on its "
            f"sector block (limit {MAX_CONDITION:.0e}); its inverse cannot carry the "
            f"kernels over this window, shorten t_end", time=float(times[-1]))
    if v_inverse is None:
        v_inverse = np.linalg.inv(u_sector)
    step = float(times[1] - times[0])
    return PropagatorGrid(times=times, step=step, state_traj=state_traj, v_inverse=v_inverse,
                          source_cumint=_cumulative_trapezoid(u_sector[:, _SOURCE, :], step))

