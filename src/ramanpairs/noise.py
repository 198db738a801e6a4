"""Diffusion coefficients of the atomic Langevin noise.

The noise operators are delta correlated, <F_m(t) F_n(t')> = 2D_mn(t) delta(t-t'),
and the generalized Einstein relation fixes the full ordered table from the
drift matrix and the instantaneous single-operator expectations:

    2D_mn = (M X)_{mn} - sum_r M_mr X_{rn} - sum_r M_nr X_{mr}

where X_{ij} is shorthand for <X_i X_j> = X at the contracted index (zero when
the operator product vanishes) and (M X)_{mn} reads the contracted component
of the drift velocity.  A commutator with the Hamiltonian is a derivation, so
the drives, chirps and detunings cancel from the right-hand side: only the
dissipators (decay and dephasing) set 2D (Lax, Phys. Rev. 145, 110 (1966)).
The relation is linear in X, so 2D(t) = Lambda X(t) with one constant
Lambda per atom, and the grid table is one product with the expectation
trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import CONTRACT0
from .propagator import PropagatorGrid
from .atom import AtomConfig, DriftBuilder
from .pulses import PulseSpec


def diffusion_matrix(m_entries: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Raw ordered diffusion table 2D_mn.

    Takes M and X at one time, (16, 16) and (16,), or stacked over n times,
    (n, 16, 16) and (n, 16), and returns (16, 16) or (n, 16, 16).
    """
    x = np.asarray(x, dtype=complex)
    m = np.asarray(m_entries, dtype=complex)

    vanishing = CONTRACT0 < 0
    gather = np.where(vanishing, 0, CONTRACT0)
    # gather X and the drift velocity M X at contracted indices, zero where
    # the product vanishes, then subtract the two drift terms in place
    x_contracted = x[..., gather]
    x_contracted[..., vanishing] = 0.0
    d2 = (m @ x[..., None])[..., 0][..., gather]
    d2[..., vanishing] = 0.0
    d2 -= m @ x_contracted
    d2 -= x_contracted @ np.swapaxes(m, -1, -2)
    return d2


@dataclass
class DiffusionTable:
    """2D_mn(t_i) on the propagator grid."""

    times: np.ndarray
    matrices: np.ndarray  # (n_points, 16, 16) complex


def diffusion_table(grid: PropagatorGrid, atom: AtomConfig,
                    pump: PulseSpec, control: PulseSpec) -> DiffusionTable:
    """The Einstein-relation table at every grid time, one product with the state trajectory.

    Lambda[k] = diffusion_matrix(static, e_k) on the sixteen unit vectors,
    with static the time-independent part of M; the drives drop out.
    """
    static = DriftBuilder(atom, pump, control).static
    einstein = diffusion_matrix(static, np.eye(16)).reshape(16, 256)
    return DiffusionTable(times=grid.times,
                          matrices=(grid.state_traj @ einstein).reshape(-1, 16, 16))
