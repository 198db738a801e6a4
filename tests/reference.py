"""Reference views and solves that only the tests read.

None of these feed the pipeline.  They restate what the library computes in
another form, so that the tests can check the pipeline's structures against
them: index tables for conjugation and populations, the density matrix of a
state vector, the normally ordered noise table, the explicit two-time kernel, the
oracle's own build of the atomic generator, and the full 16x16 flow started
at an arbitrary grid point, with the two-time kernels it gives.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import cumulative_trapezoid, solve_ivp

from ramanpairs.algebra import LEVELS, SECTOR0, SOURCE_ROWS, dagger, idx
from ramanpairs.atom import AtomConfig, DriftBuilder
from ramanpairs.oracle import _coefficients, _liouvillian
from ramanpairs.propagator import PropagatorGrid
from ramanpairs.pulses import PulseSpec

# 0-based conjugate index of each operator, and positions of the four populations |x><x|.
DAGGER0 = np.array([dagger(m) - 1 for m in range(1, 17)], dtype=np.intp)
POPULATION0 = np.array([idx(x, x) - 1 for x in LEVELS], dtype=np.intp)


def density_matrix(x: np.ndarray) -> np.ndarray:
    """Inverse of atom.state_vector: rho[y, x] = X_m."""
    return np.asarray(x, dtype=complex).reshape(4, 4).T.copy()


def normal_ordered(d2: np.ndarray) -> np.ndarray:
    """D^n_mn = <F_m^dag F_n> = (1/2) 2D at (dagger(m), n)."""
    return 0.5 * d2[DAGGER0, :]


def kernel(grid: PropagatorGrid, j: int) -> np.ndarray:
    """K(t_i, s_j) of the four source rows for every t_i, shape (n_points, 4, 16).

    The grid's sector columns scattered back to all sixteen; the other eight
    are zero.  Entries with t_i < s_j are extrapolations with no physical meaning.
    """
    k = np.zeros((len(grid.times), 4, 16), dtype=complex)
    k[..., SECTOR0] = (grid.source_cumint - grid.source_cumint[j]) @ grid.v_inverse[j]
    return k


def atomic_liouvillian(atom: AtomConfig, pump: PulseSpec, control: PulseSpec,
                       t: float) -> np.ndarray:
    """Generator of d<sigma_xy>/dt at time t, g = 0: the oracle's build at cutoff 0.

    Shares no code with the drift-matrix lift.  X_m = <sigma_xy> = rho[y, x],
    so the generator on vec(rho) is conjugated by the transpose permutation.
    """
    pieces = _liouvillian(atom, pump, control, 1, 1, 0.0, 0.0)
    gen = sum(c * piece for c, piece in zip(_coefficients(pump, control, t), pieces))
    perm = np.arange(16).reshape(4, 4).T.reshape(-1)
    return gen.toarray()[np.ix_(perm, perm)]


def propagate_from(s_index: int, atom: AtomConfig, pump: PulseSpec, control: PulseSpec,
                   times: np.ndarray, rtol: float = 1e-9, atol: float = 1e-12) -> np.ndarray:
    """U(t, s_j) on the uniform grid tail t >= s_j, shape (n_tail, 16, 16).

    The full 16x16 flow dU/dt = M(t) U from the identity, 256 components in
    one DOP853 solve for every drive, constant ones included; the defaults are
    build_propagator_grid's tolerances.
    """
    tail = np.asarray(times, dtype=float)[s_index:]
    builder = DriftBuilder(atom, pump, control)

    def rhs(t, y):
        return (builder.entries(t) @ y.reshape(16, 16)).reshape(256)

    sol = solve_ivp(rhs, (tail[0], tail[-1]), np.eye(16, dtype=complex).reshape(256),
                    method="DOP853", t_eval=tail, rtol=rtol, atol=atol)
    assert sol.success, sol.message
    return sol.y.T.reshape(len(tail), 16, 16)


def full_kernel(atom: AtomConfig, pump: PulseSpec, control: PulseSpec, times: np.ndarray,
                j: int, rtol: float = 1e-9, atol: float = 1e-12) -> np.ndarray:
    """K(t_i, s_j) as `kernel` gives it, from the full flow: (S(t_i) - S(s_j)) U(s_j, 0)^-1.

    S integrates the four source rows of the 16x16 flow over all sixteen
    columns, and the inverse is the full 16x16 one.
    """
    u = propagate_from(0, atom, pump, control, times, rtol=rtol, atol=atol)
    rows = u[:, np.asarray(SOURCE_ROWS) - 1, :]
    s = cumulative_trapezoid(rows, x=np.asarray(times, dtype=float), axis=0, initial=0)
    return (s - s[j]) @ np.linalg.inv(u[j])


def savetxt_csv(path, header: list[str], table: dict[str, np.ndarray]) -> None:
    """A CSV as np.savetxt writes it in the runner's format: the byte reference of _write_csv."""
    np.savetxt(path, np.column_stack(list(table.values())), fmt="%.17g", delimiter=",",
               header="\n".join([*header, ",".join(table)]), comments="", encoding="utf-8")
