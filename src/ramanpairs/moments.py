"""Equal-time field-operator moments split into boundary, noise and back-action parts.

Each ladder operator solves as

    op(t) = op(0) + c sum_m [ K_m(t, 0) X_m(0) + int_0^t K_m(t, s) F_m(s) ds ]

with the coupling prefactor c and kernel row listed in the ladder table below.
A product <A(t) B(t)> therefore decomposes into

    boundary   : c_A c_B  sum_mn K^A_m(t,0) K^B_n(t,0) <X_m(0) X_n(0)>
    noise      : c_A c_B  int_0^t sum_mn K^A_m(t,s) K^B_n(t,s) 2D_mn(s) ds
    backaction : the initial-field cross terms <A(0) dB(t)> + <dA(t) B(0)>
    initial    : the surviving free-field term (thermal occupation, if any),

because initial operators are uncorrelated with later noise and the initial
modes are statistically independent and unsqueezed.  One ordered rule covers
all eight moments; no per-moment hand derivation.

The backaction part exists because the atomic operators inside dB carry,
at first order in the couplings, products of initial field operators with
atomic structure matrices C_p (the commutators of the four field-coupling
terms with the operator basis).  Pairing those against A(0) leaves ordered
vacuum/thermal factors <a a^dag> = n_th + 1 and <a^dag a> = n_th, so

    <A(0) dB(t)> = sum_p <A(0) p(0)> c_B (-i g_p) int_0^t K^B(t,s) . C_p X(s) ds

and mirrored for <dA B(0)>.  Dropping these fixed-ordering corrections would
leave the photon numbers untouched in vacuum but mis-state the pair moment at
leading order, which the Fock-space verifier resolves unambiguously.

Every s-integral shares the propagator grid (trapezoid).  With the stacked
source rows S_i = S(t_i), shape (4, 16), the kernels factor as
K(t_i, s_j) = (S_i - S_j) V_j, so the noise parts of all 16 row pairs are one
(4, 4) table per grid time,

    N_i = S_i P_i S_i^T - S_i Q_i - L_i S_i^T + T_i,

where P, Q, L and T are the trapezoid-weighted cumulative sums over j <= i of
G_j, G_j S_j^T, S_j G_j and S_j G_j S_j^T with G_j = V_j 2D(s_j) V_j^T.  The
back-action integrals of every (row, field piece) pair follow the same way
from z_j = V_j C_p X_j as S_i sum_j w_j z_j - sum_j w_j S_j z_j.  This is the
same quadrature as the direct kernel loop at O(N 16^3) total cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import ROW_AC, ROW_BD, ROW_CA, ROW_DB
from .atom import AtomConfig, state_vector
from .errors import ConfigError
from .noise import DiffusionTable
from .propagator import PropagatorGrid


@dataclass(frozen=True)
class LadderSpec:
    """One field ladder operator: which mode, creation or not, kernel row."""

    which: str          # "a_k", "a_k_dag", "a_q", "a_q_dag"
    mode: str           # "k" or "q"
    creates: bool
    source_row: int     # 1-based row of the propagator feeding this operator
    phase: complex      # +i for annihilation, -i for creation

    @property
    def slot(self) -> int:
        """Position of source_row in the stacked source-row tables."""
        return algebra.SOURCE_ROWS.index(self.source_row)

    def prefactor(self, atom: AtomConfig) -> complex:
        g = atom.g_k if self.mode == "k" else atom.g_q
        return self.phase * g


LADDERS = {
    "a_k": LadderSpec("a_k", "k", False, ROW_BD, 1j),
    "a_k_dag": LadderSpec("a_k_dag", "k", True, ROW_DB, -1j),
    "a_q": LadderSpec("a_q", "q", False, ROW_CA, 1j),
    "a_q_dag": LadderSpec("a_q_dag", "q", True, ROW_AC, -1j),
}


def ladder(which: str) -> LadderSpec:
    try:
        return LADDERS[which]
    except KeyError:
        raise ConfigError(f"unknown ladder operator {which!r}, expected one of {tuple(LADDERS)}") from None


def _initial_pair_table(rho0: np.ndarray) -> np.ndarray:
    x0 = state_vector(rho0)
    valid = algebra.CONTRACT0 >= 0
    return np.where(valid, x0[np.where(valid, algebra.CONTRACT0, 0)], 0.0)


def _initial_field_term(a: LadderSpec, b: LadderSpec, atom: AtomConfig) -> float:
    """Thermal free-field contribution surviving in <A(0) B(0)>."""
    if a.mode != b.mode or a.creates == b.creates:
        return 0.0  # cross-mode or squeezing moment, independent unsqueezed modes
    n_th = atom.n_th_k if a.mode == "k" else atom.n_th_q
    return n_th if a.creates else n_th + 1.0


def _commutator_structure(u: str, v: str) -> np.ndarray:
    """Matrix C with (C X)_m = [sigma_uv, X_m] expanded over the operator basis."""
    iu, iv = algebra._RANK[u], algebra._RANK[v]
    c = np.zeros((16, 16), dtype=complex)
    for x in range(4):
        for y in range(4):
            row = 4 * x + y
            if iv == x:
                c[row, 4 * iu + y] += 1.0
            if y == iu:
                c[row, 4 * x + iv] -= 1.0
    return c


@dataclass(frozen=True)
class _FieldPiece:
    """One field-coupling term of the interaction, a_p(0) or a_p^dag(0) times C_p."""

    mode: str
    creates: bool
    structure: np.ndarray


_FIELD_PIECES = (
    _FieldPiece("k", False, _commutator_structure("d", "b")),
    _FieldPiece("k", True, _commutator_structure("b", "d")),
    _FieldPiece("q", False, _commutator_structure("a", "c")),
    _FieldPiece("q", True, _commutator_structure("c", "a")),
)


def _ordered_field_pair(left_creates: bool, right_creates: bool, n_th: float) -> float:
    """<l r> for two ladder operators of one initially thermal mode."""
    if left_creates == right_creates:
        return 0.0
    return n_th if left_creates else n_th + 1.0


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
    n_th_k: float
    n_th_q: float


def _trapezoid_cumsum(terms: np.ndarray) -> np.ndarray:
    """Cumulative sum over the grid axis with the s = 0 sample at half weight.

    The matching half weight at s = t_i is not needed: every kernel vanishes
    there, K(t_i, t_i) = 0.
    """
    return np.cumsum(terms, axis=0) - 0.5 * terms[0]


def _noise_table(grid: PropagatorGrid, diffusion: DiffusionTable) -> np.ndarray:
    """h * sum_j w_j K_r(t_i,s_j) 2D(s_j) K_u(t_i,s_j)^T for every slot pair (r, u)."""
    if diffusion.matrices.shape[0] != grid.n_points or \
            not np.allclose(diffusion.times, grid.times):
        raise ConfigError("diffusion table grid does not match the propagator grid")
    v = grid.v_inverse
    s = grid.source_cumint
    s_t = s.transpose(0, 2, 1)
    g = v @ diffusion.matrices @ v.transpose(0, 2, 1)
    sg = s @ g
    p = _trapezoid_cumsum(g)
    q = _trapezoid_cumsum(g @ s_t)
    left = _trapezoid_cumsum(sg)
    t = _trapezoid_cumsum(sg @ s_t)
    return grid.step * (s @ p @ s_t - s @ q - left @ s_t + t)


def _backaction_table(grid: PropagatorGrid) -> np.ndarray:
    """h * sum_j w_j K_r(t_i,s_j) . C_p X(s_j) for every (slot r, field piece p)."""
    structures = np.stack([piece.structure for piece in _FIELD_PIECES])
    cx = np.einsum("pmn,jn->jpm", structures, grid.state_traj)
    z = cx @ grid.v_inverse.transpose(0, 2, 1)  # z[j, p] = V_j C_p X_j
    s = grid.source_cumint
    return grid.step * (s @ _trapezoid_cumsum(z).transpose(0, 2, 1)
                        - _trapezoid_cumsum(s @ z.transpose(0, 2, 1)))


def _backaction_series(a: LadderSpec, b: LadderSpec, atom: AtomConfig,
                       table: np.ndarray) -> np.ndarray:
    """Initial-field cross terms <A(0) dB(t)> + <dA(t) B(0)> at leading order."""
    out = np.zeros(table.shape[0], dtype=complex)
    for p_idx, piece in enumerate(_FIELD_PIECES):
        g_p = atom.g_k if piece.mode == "k" else atom.g_q
        coeff = -1j * g_p
        n_th = atom.n_th_k if piece.mode == "k" else atom.n_th_q
        if a.mode == piece.mode:
            weight = _ordered_field_pair(a.creates, piece.creates, n_th)
            if weight != 0.0:
                out += weight * b.prefactor(atom) * coeff * table[:, b.slot, p_idx]
        if b.mode == piece.mode:
            weight = _ordered_field_pair(piece.creates, b.creates, n_th)
            if weight != 0.0:
                out += weight * a.prefactor(atom) * coeff * table[:, a.slot, p_idx]
    return out


def pair_moment(a: LadderSpec, b: LadderSpec, grid: PropagatorGrid,
                diffusion: DiffusionTable, atom: AtomConfig,
                _noise: np.ndarray | None = None,
                _backaction: np.ndarray | None = None) -> SplitMoment:
    """<A(t) B(t)> series for two ladder operators, split into parts."""
    if _noise is None:
        _noise = _noise_table(grid, diffusion)
    if _backaction is None:
        _backaction = _backaction_table(grid)
    c = a.prefactor(atom) * b.prefactor(atom)
    sa = grid.source_cumint[:, a.slot]
    sb = grid.source_cumint[:, b.slot]
    ip = _initial_pair_table(atom.rho0)
    boundary = c * np.einsum("im,mn,in->i", sa, ip, sb)
    return SplitMoment(boundary=boundary, noise=c * _noise[:, a.slot, b.slot],
                       backaction=_backaction_series(a, b, atom, _backaction),
                       initial=_initial_field_term(a, b, atom))


def single_moment(a: LadderSpec, grid: PropagatorGrid, atom: AtomConfig) -> np.ndarray:
    """<A(t)> series; identically zero when rho0 carries no source coherences."""
    x0 = state_vector(atom.rho0)
    return a.prefactor(atom) * (grid.source_cumint[:, a.slot] @ x0)


def compute_moments(atom: AtomConfig, grid: PropagatorGrid,
                    diffusion: DiffusionTable) -> MomentSeries:
    """Assemble the full moment series consumed by the observables layer."""
    noise = _noise_table(grid, diffusion)
    backaction = _backaction_table(grid)

    def pm(name_a, name_b):
        return pair_moment(ladder(name_a), ladder(name_b), grid, diffusion, atom,
                           _noise=noise, _backaction=backaction)

    return MomentSeries(
        times=grid.times,
        pair=pm("a_q", "a_k"),
        cross=pm("a_q", "a_k_dag"),
        n_k=pm("a_k_dag", "a_k"),
        n_q=pm("a_q_dag", "a_q"),
        square_k=pm("a_k", "a_k"),
        square_q=pm("a_q", "a_q"),
        mean_k=single_moment(ladder("a_k"), grid, atom),
        mean_q=single_moment(ladder("a_q"), grid, atom),
        n_th_k=atom.n_th_k,
        n_th_q=atom.n_th_q,
    )
