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
three moments and the two means c_r S(t) X(0) out of these tables.  The
other three, <a_q a_k^dag>, <a_k^2> and <a_q^2>, sit on the conj x conj and
half x half slot blocks, which the selection rules below leave at exact zero.

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

    h sum_{s_j <= t_i} w_j K(t_i, s_j) y_j = [S_i, -1] R_i,
    R_i = h sum_{j <= i} w_j [V_j; S_j V_j] y_j,

in the frame of t_i's block (propagator.PropagatorGrid): K = (S_i - S_j) V_j
for s_j in the block, S its trapezoid from the block's first row and V the
inverse of its flow.  V comes from one batched inversion over the rows of
the distinct frames alone: a block whose frame is another's
(PropagatorGrid.shares), as in every drive-free stretch, reads that block's
S and the real forms of S^T and [V; S V]^T (below), a prefix of them if it
is shorter, and forms none of its own.  The row's own half weight drops
out, [S_i, -1] [V_i; S_i V_i] = 0, so R is a plain running sum.  An
earlier s_j enters R as [U_A(t_b, s_j); -K(t_b, s_j)], and at a block's
end every column of R turns to the next frame by R -> [[U_e, 0], [-S_e, 1]]
R, quadratic ones also by its conjugate transpose on the right.  The
boundary and the means take the same form with the s = 0 factor
[U_A(t_b, 0); -K(t_b, 0)], carried as more
columns of R.  The grid holds the half kernel K_h of the slots AQ_DAG, AK on
algebra.SECTOR_HALF0; AQ and AK_DAG have conj(K_h) on SECTOR_CONJ0.  Three
selection rules hold exactly for every atom: the pair table and the Einstein
map vanish on half x half and conj x conj, each C_p X lies on slot p's own
half, and F[r, u] = 0 unless u = DAGGER_SLOT[r].  So every part lives on the
half x conj and conj x half slot blocks, the second read off by
conjugation, and one sum of K_h over 16 columns gives them all: y_k and
y_k conj(S)^T for y_k = 2D_k conj(V)^T, 2D_0 = 2D_HC and 2D_1 =
conj(2D_CH), whose sums give the noise K 2D K^T, then C_p X on each slot's
half (conjugated for AQ, AK_DAG), the back-action integrals, gathered at
DAGGER_SLOT.  2D(s) = X(s) . Lambda (noise.diffusion_table) and C_p X come
from one product of X with both maps.  The sum is causal, so the assembly
makes one pass over the grid's blocks: no full-grid temporary is formed.
The per-row products take the frame factor F = [V; S V] or [S_i, -1] on
the right, transposed (the sums as cols^T F^T, the boundary and noise tables
as their conjugates), and run as float64 products X.view(float) @ real(F^T),
the real 2 x 2-block form built once per frame, because a stacked complex128
matmul calls BLAS once per tiny matrix, at several times a float64 one's cost.
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
# positions 0 and 3 of SECTOR_HALF0, the source rows ac and bd, as a slice that views
# them; ca and db are their conjugates at the same positions of SECTOR_CONJ0
_SOURCE = slice(0, 4, 3)
_HC, _CH = np.ix_(_HALF, _CONJ), np.ix_(_CONJ, _HALF)
# X -> C_p X on slot p's own half, column i * 4 + p
_STRUCTURE_FEED = np.stack([_STRUCTURES[p, half] for p, half in
                            enumerate((_HALF, _HALF, _CONJ, _CONJ))]).transpose(2, 1, 0)

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
    """The nonzero ladder moments on the grid, pair moments carrying their splits."""

    times: np.ndarray
    pair: SplitMoment        # <a_q a_k>
    n_k: SplitMoment         # <a_k^dag a_k>
    n_q: SplitMoment         # <a_q^dag a_q>
    mean_k: np.ndarray       # <a_k>
    mean_q: np.ndarray       # <a_q>


def _real_blocks(b: np.ndarray, out: np.ndarray) -> None:
    """Write B and iB, broadcast, into complex out (..., p, 2, q) for B (..., p, q).

    The float view of out, reshaped to (..., 2p, 2q), is then real(B), each
    entry b written as [[Re b, Im b], [-Im b, Re b]]: for complex X with a
    contiguous last axis, X.view(float) @ real(B) is (X @ B).view(float).
    """
    out[..., 0, :] = b
    np.multiply(b, 1j, out=out[..., 1, :])


def _scatter(table: np.ndarray, pairs: np.ndarray) -> None:
    """Half x conj block of (m, 4, 4) tables from pairs[:, :, 0], conj x half from the conjugate."""
    table[:, :2, 2:] = pairs[:, :, 0]
    np.conjugate(pairs[:, :, 1], out=table[:, 2:, :2])


def _moment_tables(atom: AtomConfig, grid: PropagatorGrid, diffusion: DiffusionTable):
    """Boundary, noise and backaction (n_points, 4, 4) tables, F and the (n_points, 4) means.

    One pass over the grid's blocks, each in its own frame; see the module docstring.
    """
    g, c, field = _slot_factors(atom)
    cc = np.outer(c, c)
    # backaction = back_r * B^T + back_u * B with B[u, r] = T[u, DAGGER_SLOT[r]]
    fd = field[range(4), DAGGER_SLOT]
    back_r, back_u = np.outer(fd, c), np.outer(c, fd[list(DAGGER_SLOT)])
    coupling = -1j * g.reshape(2, 2) * [[1], [-1]]  # -i g_p, conjugated on AQ, AK_DAG
    u, x, step, k = grid.flow, grid.state_traj, grid.step, grid.block
    n = len(u)
    # one inversion over the rows of the distinct frames; a block that shares one reads the
    # factors of its partner's, kept from when that block was assembled
    own = grid.shares == np.arange(len(grid.shares))
    v = np.linalg.inv(u if own.all() else u[np.repeat(own, k)[:n]])
    kept, partners, offset = {}, set(grid.shares[~own].tolist()), 0
    frame = np.eye(6, dtype=complex)
    x0 = state_vector(atom.rho0)
    pairs0 = algebra.pair_table(x0)
    # h X -> [2D_HC, 2D_CH] as [i, k, j] | C_p X as [i, p]
    diff_feed = np.stack([diffusion.einstein[:, i, j] for i, j in (_HC, _CH)], axis=2)
    feed = step * np.concatenate((diff_feed.reshape(16, 32), _STRUCTURE_FEED.reshape(16, 16)),
                                 axis=1)
    # R of one frame, columns [x0 | P0 | y_0 | y_1 | C_p X]: the first 14 are the s = 0
    # factor [U_A(t_b, 0); -K_h(t_b, 0)] times x0 and P0, the rest the running sums
    # h sum_j w_j [V_j; S_j V_j] cols_j over the earlier rows
    carry = np.zeros((6, 30), dtype=complex)
    carry[:4, 0], carry[:4, 1] = x0[_HALF], x0[_CONJ].conj()
    carry[:4, 2:6], carry[:4, 8:12] = pairs0[_HC], pairs0[_CH].conj()
    boundary, noise, backaction = (np.zeros((n, 4, 4), dtype=complex) for _ in range(3))
    means = np.empty((n, 4), dtype=complex)
    for block, start in enumerate(range(0, n, k)):
        rows = slice(start, start + k)
        m = min(k, n - start)
        if own[block]:
            v_b = v[offset:offset + m]
            offset += m
            s_b = _cumulative_trapezoid(u[rows, _SOURCE], step)
            # real([S, -1]^T) and real(F^T), F = [V; S V]: K_h(t_i, s_j) = S_i V_j - (S V)_j
            s_t = np.empty((m, 6, 2, 2), dtype=complex)
            _real_blocks(s_b.transpose(0, 2, 1), s_t[:, :4])
            _real_blocks(-np.eye(2), s_t[:, 4:])
            s_t = s_t.view(float).reshape(m, 12, 4)
            f_t = np.empty((m, 4, 2, 6), dtype=complex)
            _real_blocks(v_b.transpose(0, 2, 1), f_t[..., :4])
            f_t = f_t.view(float).reshape(m, 8, 12)
            np.matmul(f_t[..., :8], s_t[:, :8], out=f_t[..., 8:])
            frame_b = (s_b, f_t, s_t)
            if block in partners:
                kept[block] = frame_b
        else:  # a sharing block reads its partner's factors, the short last block a prefix
            frame_b = tuple(a[:m] for a in kept[grid.shares[block]])
        s_b, f_t, s_t = frame_b
        fed = x[rows] @ feed
        # conj of [2D_0, 2D_1] = [2D_HC, conj(2D_CH)] as [i, k, j]
        d2 = fed[:, :32].reshape(m, 4, 2, 4)
        np.conjugate(d2[:, :, 0], out=d2[:, :, 0])
        # the 16 columns [y_0, y_0 conj(S)^T, y_1, y_1 conj(S)^T, C_p X] as rows, y from
        # conj(y) = conj(2D) F^T, then one stacked kernel sum (F cols)^T = cols^T F^T
        y = (d2.reshape(m, 8, 4).view(float) @ f_t).view(complex)
        cols = np.empty((m, 16, 4), dtype=complex)
        cols[:, :12] = y.reshape(m, 4, 12).transpose(0, 2, 1)
        structure = fed[:, 32:].reshape(m, 4, 4).transpose(0, 2, 1)
        np.conjugate(structure[:, :2], out=cols[:, 12:14])
        cols[:, 14:] = structure[:, 2:]
        np.conjugate(cols, out=cols)
        sums = (cols.view(float) @ f_t).view(complex)
        if not start:
            sums[0] *= 0.5  # the trapezoid's half weight at s = 0
        sums[0] += carry[:, 14:].T
        np.cumsum(sums, axis=0, out=sums)
        # [S_i, -1] R: K_h(t_i, 0) x0, K_h(t_i, 0) P0 and the kernel sums; the row's own
        # trapezoid half weight drops out, as [S_i, -1] [V_i; S_i V_i] = 0
        fixed = (s_b.reshape(2 * m, 4) @ carry[:4, :14]).reshape(m, 2, 14) - carry[4:, :14]
        ks = (sums.view(float) @ s_t).view(complex)  # ([S_i, -1] R)^T
        means[rows, :2], means[rows, 2:] = fixed[..., 0], fixed[..., 1].conj()
        # conj of the boundary K P(0) K^T and the noise K 2D K^T, [i, r, (part, k), column]
        # times [S_i, -1]^T
        quad = np.empty((m, 2, 24), dtype=complex)
        np.conjugate(fixed[..., 2:], out=quad[..., :12])
        np.conjugate(ks[:, :12].transpose(0, 2, 1), out=quad[..., 12:])
        right = (quad.reshape(m, 8, 6).view(float) @ s_t).view(complex).reshape(m, 2, 4, 2)
        _scatter(boundary[rows], right[:, :, :2])
        _scatter(noise[rows], right[:, :, 2:])
        # T[u, p] times -i g_p, non-zero only with u and p on one half
        gathered = np.zeros((m, 4, 4), dtype=complex)
        _scatter(gathered, ks[:, 12:].transpose(0, 2, 1).reshape(m, 2, 2, 2) * coupling)
        np.multiply(gathered.transpose(0, 2, 1), back_r, out=backaction[rows])
        backaction[rows] += back_u * gathered
        if block < len(grid.ends):
            # the next frame: [U_A(t_b+1, 0); -K_h(t_b+1, 0)] = [[U_e, 0], [-S_e, 1]] times this
            # one's, on the left of every column and on the right of the quadratic parts
            frame[:4, :4] = grid.ends[block]
            frame[4:, :4] = -s_b[-1] - 0.5 * step * (u[start + m - 1] + grid.ends[block])[_SOURCE]
            carry = frame @ np.concatenate((carry[:, :14], sums[-1].T), axis=1)
            carry[:, 2:26] = (carry[:, 2:26].reshape(6, 4, 6) @ frame.conj().T).reshape(6, 24)
    # the blocks filled in the conjugates of the boundary and noise tables
    for table in boundary, noise:
        np.conjugate(table, out=table)
        table *= cc
    return boundary, noise, backaction, field, c * means


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
        n_k=split(AK_DAG, AK),
        n_q=split(AQ_DAG, AQ),
        mean_k=means[:, AK],
        mean_q=means[:, AQ],
    )
