"""Equal-time field-operator moments split into boundary, noise and back-action parts.

Slot r of algebra.SOURCE_ROWS is the ladder operator A_r fed by that source
row: a_q^dag, a_k, a_q, a_k^dag for |a><c|, |b><d|, |c><a|, |d><b|.  Each solves as

    A_r(t) = A_r(0) + c_r sum_m [ K_rm(t, 0) X_m(0) + int_0^t K_rm(t, s) F_m(s) ds ]

with c_r = +i g for annihilation and -i g for creation.  Every product
<A_r(t) A_u(t)> decomposes into four parts, each formed for all 16 ordered
slot pairs at once as an (n_points, 4, 4) table:

    boundary   : c_r c_u  sum_mn K_rm(t,0) K_un(t,0) <X_m(0) X_n(0)>
    noise      : c_r c_u  int_0^t sum_mn K_rm(t,s) K_un(t,s) 2D_mn(s) ds
    backaction : the initial-field cross terms <A_r(0) dA_u(t)> + <dA_r(t) A_u(0)>
    initial    : F[r, u] = <A_r(0) A_u(0)>, n_th for a^dag a, n_th + 1 for a a^dag,

because initial operators are uncorrelated with later noise and the initial
modes are statistically independent and unsqueezed.  MomentSeries picks its
six moments and the two means c_r S(t) X(0) out of these tables.

The backaction part exists because the atomic operators inside dA_u carry,
at first order in the couplings, products A_p(0) C_p X of initial field
operators with atomic structure matrices C_p: the commutator with the
conjugate of source row p, the atomic operator that multiplies A_p(0) in the
interaction.  Pairing those against A_r(0) leaves the initial field table, so

    <A_r(0) dA_u(t)> = sum_p F[r, p] c_u (-i g_p) int_0^t K_u(t,s) . C_p X(s) ds

and mirrored for <dA_r A_u(0)>.  Dropping these fixed-ordering corrections would
leave the photon numbers untouched in vacuum but mis-state the pair moment at
leading order, which the Fock-space verifier resolves unambiguously.

Every s-integral is a kernel sum on the propagator grid (trapezoid rule),

    h sum_{s_j <= t_i} w_j K(t_i, s_j) y_j = S_i T(V y)_i - T(S V y)_i,

with K = (S_i - S_j) V_j and T the cumulative trapezoid.  One stacked sum
over the sector columns [y, y S^T, C_p X], with y = 2D_S V^T, gives every
part: its first eight columns times S_i^T minus the next four are the noise
form K 2D_S K^T of all 16 slot pairs, and its last four are the back-action
integrals of every (slot u, structure p) pair.  2D_S(s) = X(s) . Lambda_S is
the expectation trajectory contracted with the sector block of the atom's
constant Einstein map (noise.diffusion_table); it and C_p X come from one
product of X with both maps.  The sum is causal, row i reading only rows
j <= i, so the assembly makes one pass over the grid in blocks of
_BLOCK_ROWS rows.  Each block carries its two running sums into the next
(propagator._cumulative_trapezoid) and writes its rows of the tables, and no
full-grid temporary is formed; the additions associate as in one cumsum over
the whole grid, so the prefix sums do not depend on the block size.  M(t)
conserves the charge of algebra.SECTOR0, so the kernels have support only on
its eight columns, and every table they contract (2D, C_p X, the initial pair
table, X(0)) is read on that sector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra
from .atom import AtomConfig, state_vector
from .noise import DiffusionTable
from .propagator import PropagatorGrid, _cumulative_trapezoid

# Slots of the ladder operators, in algebra.SOURCE_ROWS order.
AQ_DAG, AK, AQ, AK_DAG = range(4)
_CREATES = np.array([True, False, False, True])
_MODE_K = np.array([False, True, False, True])
# DAGGER_SLOT[r] is the slot of A_r^dag.
DAGGER_SLOT = tuple(algebra.SOURCE_ROWS.index(algebra.dagger(row)) for row in algebra.SOURCE_ROWS)


def _slot_factors(atom: AtomConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-slot coupling g_r, prefactor c_r and initial field table F[r, u]."""
    g = np.where(_MODE_K, atom.g_k, atom.g_q)
    n_th = np.where(_MODE_K, atom.n_th_k, atom.n_th_q)
    field = np.zeros((4, 4))
    field[range(4), DAGGER_SLOT] = np.where(_CREATES, n_th, n_th + 1.0)
    return g, np.where(_CREATES, -1j, 1j) * g, field


# C_r: commutator with the atomic operator that multiplies A_r(0) in the coupling.
_STRUCTURES = np.stack([-1j * algebra.lift(algebra.op(*algebra.levels(algebra.dagger(row))))
                        for row in algebra.SOURCE_ROWS])

# The kernels have support only on the sector columns, so every table they
# contract is read on the sector alone.
_SECTOR = algebra.SECTOR0
_BLOCK = np.ix_(_SECTOR, _SECTOR)
# X -> C_p X on the sector, column m * 4 + p
_STRUCTURE_FEED = _STRUCTURES[:, _SECTOR].transpose(2, 1, 0).reshape(16, 32)

# Grid rows per pass of the moment assembly.  The quadrature is causal, so
# each block carries its prefix sums into the next and no full-grid
# temporary is formed; a (128, 8, 16) complex block is 256 KiB and stays in L2.
_BLOCK_ROWS = 128


@dataclass
class SplitMoment:
    """One complex moment series split into its four additive parts.

    `linear` is the content generated by the linear operator solution alone
    (the object the Gaussian decorrelation of fourth-order products is built
    on); `total` adds the initial-field backaction and is the full moment a
    direct quantized-mode computation returns.
    """

    boundary: np.ndarray
    noise: np.ndarray
    backaction: np.ndarray
    initial: float

    @property
    def linear(self) -> np.ndarray:
        return self.boundary + self.noise + self.initial

    @property
    def total(self) -> np.ndarray:
        return self.boundary + self.noise + self.backaction + self.initial


@dataclass
class MomentSeries:
    """The eight ladder moments on the grid, pair moments carrying their splits."""

    times: np.ndarray
    pair: SplitMoment        # <a_q a_k>
    cross: SplitMoment       # <a_q a_k^dag>
    n_k: SplitMoment         # <a_k^dag a_k>
    n_q: SplitMoment         # <a_q^dag a_q>
    square_k: SplitMoment    # <a_k^2>
    square_q: SplitMoment    # <a_q^2>
    mean_k: np.ndarray       # <a_k>
    mean_q: np.ndarray       # <a_q>


def _moment_tables(atom: AtomConfig, grid: PropagatorGrid, diffusion: DiffusionTable):
    """Boundary, noise and backaction (n_points, 4, 4) tables, F and the (n_points, 4) means.

    One pass over the grid in blocks of _BLOCK_ROWS rows; see the module docstring.
    """
    g, c, field = _slot_factors(atom)
    cc = np.outer(c, c)
    s, v, x, step = grid.source_cumint, grid.v_inverse, grid.state_traj, grid.step
    x0 = state_vector(atom.rho0)
    pairs0 = algebra.pair_table(x0)[_BLOCK]
    # X_j @ feed = [2D_S(s_j) = X(s_j) . Lambda_S, flattened | C_p X(s_j) as [m, p]]
    feed = np.concatenate((diffusion.einstein[:, _BLOCK[0], _BLOCK[1]].reshape(16, 64),
                           _STRUCTURE_FEED), axis=1)
    n = len(s)
    boundary, noise, backaction = (np.empty((n, 4, 4), dtype=complex) for _ in range(3))
    means = np.empty((n, 4), dtype=complex)
    carry_z, carry_sz = [], []
    # a last block of one row joins the one before: numpy would take that
    # row's feed as a vector product, which rounds differently
    edges = [*range(0, n - 1, _BLOCK_ROWS), n]
    for start, stop in zip(edges, edges[1:]):
        rows = slice(start, stop)
        s_b, v_b = s[rows], v[rows]
        m = len(s_b)
        s_t = s_b.transpose(0, 2, 1)
        s_flat = s_b.reshape(4 * m, 8)
        np.matmul((s_flat @ pairs0).reshape(m, 4, 8), s_t, out=boundary[rows])
        boundary[rows] *= cc
        np.matmul(s_flat, x0[_SECTOR], out=means[rows].reshape(4 * m))
        means[rows] *= c
        fed = x[rows] @ feed
        # the columns y = 2D_S V^T, y S^T and C_p X of one stacked kernel sum
        cols = np.empty((m, 8, 16), dtype=complex)
        np.matmul(fed[:, :64].reshape(m, 8, 8), v_b.transpose(0, 2, 1), out=cols[..., :8])
        np.matmul(cols[..., :8], s_t, out=cols[..., 8:12])
        cols[..., 12:] = fed[:, 64:].reshape(m, 8, 4)
        # h sum_{j <= i} w_j K(t_i, s_j) cols_j with K = (S_i - S_j) V_j
        z = v_b @ cols
        ks = s_b @ _cumulative_trapezoid(z, step, carry_z)
        ks -= _cumulative_trapezoid(s_b @ z, step, carry_sz)
        # noise: K 2D K^T = kernel sum of y times S_i^T minus that of y S^T
        np.matmul(ks[..., :8], s_t, out=noise[rows])
        noise[rows] -= ks[..., 8:12]
        noise[rows] *= cc
        # t[i, u, p] = h sum_j w_j K_u(t_i, s_j) . C_p X(s_j), times -i g_p
        t = ks[..., 12:] * (-1j * g)
        # [r, u]: c_u sum_p F[r, p] T[u, p] + c_r sum_p T[r, p] F[p, u]
        backaction[rows] = c * (field @ t.transpose(0, 2, 1)) + c[:, None] * (t @ field)
    return boundary, noise, backaction, field, means


def compute_moments(atom: AtomConfig, grid: PropagatorGrid,
                    diffusion: DiffusionTable) -> MomentSeries:
    """Assemble the full moment series consumed by the observables layer."""
    boundary, noise, backaction, field, means = _moment_tables(atom, grid, diffusion)

    def split(r: int, u: int) -> SplitMoment:
        return SplitMoment(boundary[:, r, u], noise[:, r, u], backaction[:, r, u],
                           float(field[r, u]))

    return MomentSeries(
        times=grid.times,
        pair=split(AQ, AK),
        cross=split(AQ, AK_DAG),
        n_k=split(AK_DAG, AK),
        n_q=split(AQ_DAG, AQ),
        square_k=split(AK, AK),
        square_q=split(AQ, AQ),
        mean_k=means[:, AK],
        mean_q=means[:, AQ],
    )
