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
term enters even at rounding.  That (16, 16, 16) map is the whole noise
stage: the moment assembly contracts its two non-zero sector blocks, on
SECTOR_HALF0 x SECTOR_CONJ0 and its mirror, with the expectation trajectory
and the kernels it already holds, so no per-time table is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import pair_table
from .atom import AtomConfig, dissipation


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
    """The Einstein map of one atom: 2D_mn(t) = sum_k einstein[k, m, n] X_k(t)."""

    einstein: np.ndarray  # (16, 16, 16) complex


def diffusion_table(atom: AtomConfig) -> DiffusionTable:
    """einstein[k] = diffusion_matrix(dissipation(atom), e_k) on the sixteen unit vectors.

    The Hamiltonian part of M, drives and detunings, drops out, so one map
    serves every time of every drive.
    """
    return DiffusionTable(einstein=diffusion_matrix(dissipation(atom), np.eye(16)))
