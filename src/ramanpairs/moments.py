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

with K = (S_i - S_j) V_j and T the cumulative trapezoid.  The grid holds the
half kernel K_h of the slots AQ_DAG, AK on algebra.SECTOR_HALF0; AQ and
AK_DAG have conj(K_h) on SECTOR_CONJ0.  Three selection rules hold exactly
for every atom: the pair table and the Einstein map vanish on half x half
and conj x conj, each C_p X lies on slot p's own half, and F[r, u] = 0
unless u = DAGGER_SLOT[r].  So every part lives on the half x conj and
conj x half slot blocks, the second read off by conjugation, and one sum of
K_h over 16 columns gives them all: y_k and y_k conj(S)^T for
y_k = 2D_k conj(V)^T, 2D_0 = 2D_HC and 2D_1 = conj(2D_CH), whose sums give
the noise K 2D K^T, then C_p X on each slot's half (conjugated for AQ,
AK_DAG), the back-action integrals, gathered at DAGGER_SLOT.
2D(s) = X(s) . Lambda (noise.diffusion_table) and C_p X come from one
product of X with both maps.  The sum is causal, so the assembly makes one
pass over the grid in blocks of _BLOCK_ROWS rows, each carrying its running
sums into the next (propagator._cumulative_trapezoid): no full-grid
temporary is formed, and the sums do not depend on the block size.
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

_HALF, _CONJ = algebra.SECTOR_HALF0, algebra.SECTOR_CONJ0
_HC, _CH = np.ix_(_HALF, _CONJ), np.ix_(_CONJ, _HALF)
# X -> C_p X on slot p's own half, column i * 4 + p
_STRUCTURE_FEED = np.stack([_STRUCTURES[p, half] for p, half in
                            enumerate((_HALF, _HALF, _CONJ, _CONJ))]).transpose(2, 1, 0)

# Grid rows per pass of the moment assembly.  The quadrature is causal, so
# each block carries its prefix sums into the next and no full-grid
# temporary is formed; the (128, 6, 16) complex prefix sums are 192 KiB and stay in L2.
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


def _scatter(table: np.ndarray, pairs: np.ndarray) -> None:
    """Half x conj block of (m, 4, 4) tables from pairs[:, :, 0], conj x half from the conjugate."""
    table[:, :2, 2:] = pairs[:, :, 0]
    np.conjugate(pairs[:, :, 1], out=table[:, 2:, :2])


def _moment_tables(atom: AtomConfig, grid: PropagatorGrid, diffusion: DiffusionTable):
    """Boundary, noise and backaction (n_points, 4, 4) tables, F and the (n_points, 4) means.

    One pass over the grid in blocks of _BLOCK_ROWS rows; see the module docstring.
    """
    g, c, field = _slot_factors(atom)
    cc = np.outer(c, c)
    # backaction = back_r * B^T + back_u * B with B[u, r] = T[u, DAGGER_SLOT[r]]
    fd = field[range(4), DAGGER_SLOT]
    back_r, back_u = np.outer(fd, c), np.outer(c, fd[list(DAGGER_SLOT)])
    coupling = -1j * g.reshape(2, 2) * [[1], [-1]]  # -i g_p, conjugated on AQ, AK_DAG
    s, v, x, step = grid.source_cumint, grid.v_inverse, grid.state_traj, grid.step
    n = len(s)
    x0 = state_vector(atom.rho0)
    means = (s.reshape(2 * n, 4) @ np.stack((x0[_HALF], x0[_CONJ].conj()), axis=1)).reshape(n, 2, 2)
    means = c * np.concatenate((means[..., 0], means[..., 1].conj()), axis=1)
    pairs0 = algebra.pair_table(x0)
    pairs0 = np.concatenate((pairs0[_HC], pairs0[_CH].conj()), axis=1)
    # X -> [2D_HC, 2D_CH] as [i, k, j] | C_p X as [i, p]
    diff_feed = np.stack([diffusion.einstein[:, i, j] for i, j in (_HC, _CH)], axis=2)
    feed = np.concatenate((diff_feed.reshape(16, 32), _STRUCTURE_FEED.reshape(16, 16)), axis=1)
    boundary, noise, backaction = (np.zeros((n, 4, 4), dtype=complex) for _ in range(3))
    carry = []
    # a last block of one row joins the one before: numpy would take that
    # row's feed as a vector product, which rounds differently
    edges = [*range(0, n - 1, _BLOCK_ROWS), n]
    for start, stop in zip(edges, edges[1:]):
        rows = slice(start, stop)
        s_b = s[rows]
        m = len(s_b)
        # K_h(t_i, s_j) = S_i V_j - (S V)_j, from the factors [V; S V]
        factors = np.concatenate((v[rows], s_b @ v[rows]), axis=1)
        fed = x[rows] @ feed
        d2 = fed[:, :32].reshape(m, 4, 2, 4)  # [i, k, j]: 2D_0 = 2D_HC, 2D_1 = conj(2D_CH)
        np.conjugate(d2[:, :, 1], out=d2[:, :, 1])
        # the 16 columns [y_0, y_0 conj(S)^T, y_1, y_1 conj(S)^T, C_p X], one stacked kernel sum
        y = d2.reshape(m, 8, 4) @ factors.conj().transpose(0, 2, 1)
        cols = np.concatenate((y.reshape(m, 4, 12), fed[:, 32:].reshape(m, 4, 4)), axis=2)
        np.conjugate(cols[..., 14:], out=cols[..., 14:])
        # h sum_{j <= i} w_j K_h(t_i, s_j) cols_j = S_i T(V cols)_i - T(S V cols)_i
        sums = _cumulative_trapezoid(factors @ cols, step, carry)
        ks = s_b @ sums[:, :4] - sums[:, 4:]
        ys = ks[..., :12].reshape(m, 2, 2, 6)
        # boundary S P(0) conj(S)^T and the noise's kernel sums of y times conj(S_i)^T
        left = np.concatenate(((s_b.reshape(2 * m, 4) @ pairs0).reshape(m, 4, 4),
                               ys[..., :4].reshape(m, 4, 4)), axis=1)
        right = (left @ s_b.conj().transpose(0, 2, 1)).reshape(m, 2, 2, 2, 2)
        _scatter(boundary[rows], right[:, 0])
        _scatter(noise[rows], right[:, 1] - ys[..., 4:])
        # T[u, p] times -i g_p, non-zero only with u and p on one half
        gathered = np.zeros((m, 4, 4), dtype=complex)
        _scatter(gathered, ks[..., 12:].reshape(m, 2, 2, 2) * coupling)
        np.multiply(gathered.transpose(0, 2, 1), back_r, out=backaction[rows])
        backaction[rows] += back_u * gathered
    boundary *= cc
    noise *= cc
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
