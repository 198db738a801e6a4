"""Diffusion coefficients of the atomic Langevin noise.

The noise operators are delta correlated, <F_m(t) F_n(t')> = 2D_mn(t) delta(t-t'),
and the generalized Einstein relation fixes the full ordered table from the
drift matrix and the instantaneous single-operator expectations:

    2D_mn = (M X)_{mn} - sum_r M_mr X_{rn} - sum_r M_nr X_{mr}

where X_{ij} is shorthand for <X_i X_j> = X at the contracted index (zero when
the operator product vanishes, algebra.pair_table) and (M X)_{mn} is the same
pair table of the drift velocity.  A commutator with the Hamiltonian is a
derivation, so the drives, chirps and detunings cancel from the right-hand
side: only the dissipators (decay and dephasing) set 2D (Lax, Phys. Rev. 145,
110 (1966)).
The relation is linear in X, so 2D(t) = Lambda X(t) with one constant
Lambda per atom, built from `atom.dissipation` alone so that no Hamiltonian
term enters even at rounding, and the grid table is one product with the
expectation trajectory.  The moment assembly contracts its sector block with
the kernels in one PropagatorGrid.kernel_form call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import pair_table
from .atom import AtomConfig, dissipation
from .propagator import PropagatorGrid


def diffusion_matrix(m_entries: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Raw ordered diffusion table 2D_mn.

    Takes M and X at one time, (16, 16) and (16,), or stacked over n times,
    (n, 16, 16) and (n, 16), and returns (16, 16) or (n, 16, 16).
    """
    x = np.asarray(x, dtype=complex)
    m = np.asarray(m_entries, dtype=complex)
    # the pair tables of X and of the drift velocity M X, then the two drift terms in place
    x_pairs = pair_table(x)
    d2 = pair_table((m @ x[..., None])[..., 0])
    d2 -= m @ x_pairs
    d2 -= x_pairs @ np.swapaxes(m, -1, -2)
    return d2


@dataclass
class DiffusionTable:
    """2D_mn(t_i) on the propagator grid."""

    times: np.ndarray
    matrices: np.ndarray  # (n_points, 16, 16) complex


def diffusion_table(grid: PropagatorGrid, atom: AtomConfig) -> DiffusionTable:
    """The Einstein-relation table at every grid time, one product with the state trajectory.

    Lambda[k] = diffusion_matrix(dissipation(atom), e_k) on the sixteen unit
    vectors: the Hamiltonian part of M, drives and detunings, drops out.
    """
    einstein = diffusion_matrix(dissipation(atom), np.eye(16)).reshape(16, 256)
    return DiffusionTable(times=grid.times,
                          matrices=(grid.state_traj @ einstein).reshape(-1, 16, 16))
