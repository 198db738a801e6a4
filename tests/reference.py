"""Reference views and solves that only the tests read.

None of these feed the pipeline.  They restate what the library computes in
another form, so that the tests can check the pipeline's structures against
them: index tables for conjugation and populations, the density matrix of a
state vector, the ordered noise tables, the explicit two-time kernel, the
oracle's own build of the atomic generator, and a flow started at an
arbitrary grid point.
"""

from __future__ import annotations

import numpy as np

from ramanpairs.algebra import LEVELS, dagger, idx
from ramanpairs.atom import AtomConfig, DriftBuilder
from ramanpairs.oracle import _coefficients, _liouvillian
from ramanpairs.propagator import PropagatorGrid, _solve_matrix_ode
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


def antinormal_ordered(d2: np.ndarray) -> np.ndarray:
    """D^an_mn = <F_m F_n^dag> = (1/2) 2D at (m, dagger(n))."""
    return 0.5 * d2[:, DAGGER0]


def kernel(grid: PropagatorGrid, j: int) -> np.ndarray:
    """K(t_i, s_j) of the four source rows for every t_i, shape (n_points, 4, 16).

    Entries with t_i < s_j are extrapolations with no physical meaning.
    """
    return (grid.source_cumint - grid.source_cumint[j]) @ grid.v_inverse[j]


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
                   times: np.ndarray) -> np.ndarray:
    """U(t, s_j) on the uniform grid tail t >= s_j, shape (n_tail, 16, 16).

    The library's own flow solve at build_propagator_grid's default tolerances,
    so s_index 0 on a grid's times gives the flow that grid was built from.
    """
    tail = np.asarray(times, dtype=float)[s_index:]
    return _solve_matrix_ode(DriftBuilder(atom, pump, control), tail, rtol=1e-9, atol=1e-12)[0]
