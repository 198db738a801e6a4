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

Every s-integral shares the propagator grid (trapezoid).  The double index
sum is contracted through prefix sums of G_j = V_j 2D(s_j) V_j^T, which gives
the same quadrature as the direct kernel loop at O(N 16^3) total cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import ROW_AC, ROW_BD, ROW_CA, ROW_DB, contract, levels
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


def initial_pair_expectation(m: int, n: int, rho0: np.ndarray) -> complex:
    """<X_m(0) X_n(0)> from the initial density matrix (1-based indices)."""
    p = contract(m, n)
    if p is None:
        return 0.0 + 0.0j
    x, v = levels(p)
    rank = algebra._RANK
    return complex(np.asarray(rho0, dtype=complex)[rank[v], rank[x]])


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


class _NoiseContraction:
    """Prefix-sum tables for the trapezoid s-integration of the noise parts."""

    def __init__(self, grid: PropagatorGrid, diffusion: DiffusionTable):
        if diffusion.matrices.shape[0] != grid.n_points or \
                not np.allclose(diffusion.times, grid.times):
            raise ConfigError("diffusion table grid does not match the propagator grid")
        v = grid.v_inverse
        g = v @ diffusion.matrices @ v.transpose(0, 2, 1)
        self.g0 = g[0]
        self.prefix_g = np.cumsum(g, axis=0)
        self.rows = dict(grid.row_cumint)
        self.step = grid.step
        # per-row contractions with G_j, cumulative in j
        self.right = {r: np.cumsum(np.einsum("jmn,jn->jm", g, s), axis=0)
                      for r, s in self.rows.items()}
        self.left = {r: np.cumsum(np.einsum("jm,jmn->jn", s, g), axis=0)
                     for r, s in self.rows.items()}
        self.scalar = {}
        for ra, sa in self.rows.items():
            ga = np.einsum("jm,jmn->jn", sa, g)
            for rb, sb in self.rows.items():
                self.scalar[ra, rb] = np.cumsum(np.einsum("jn,jn->j", ga, sb))

    def series(self, row_a: int, row_b: int) -> np.ndarray:
        """h * [sum_{j<=i} f_ij - f_i0 / 2] with f_ij the kernel-diffusion bilinear."""
        sa = self.rows[row_a]
        sb = self.rows[row_b]
        bulk = np.einsum("im,imn,in->i", sa, self.prefix_g - 0.5 * self.g0, sb)
        bulk -= np.einsum("im,im->i", sa, self.right[row_b])
        bulk -= np.einsum("in,in->i", self.left[row_a], sb)
        bulk += self.scalar[row_a, row_b]
        return self.step * bulk


class _BackactionIntegrals:
    """Trapezoid series of int_0^t K_row(t,s) . C_p X(s) ds per (row, piece)."""

    def __init__(self, grid: PropagatorGrid):
        self.rows = dict(grid.row_cumint)
        self.step = grid.step
        self.z = {}       # piece index -> V_j (C_p X_j), shape (n, 16)
        self.prefix = {}  # piece index -> cumulative sum of z
        self.mixed = {}   # (row, piece) -> cumulative sum of S_row(s_j) . z_j
        for p_idx, piece in enumerate(_FIELD_PIECES):
            y = grid.state_traj @ piece.structure.T
            z = np.einsum("jmn,jn->jm", grid.v_inverse, y)
            self.z[p_idx] = z
            self.prefix[p_idx] = np.cumsum(z, axis=0)

    def series(self, row: int, p_idx: int) -> np.ndarray:
        key = (row, p_idx)
        if key not in self.mixed:
            self.mixed[key] = np.cumsum(
                np.einsum("jm,jm->j", self.rows[row], self.z[p_idx]))
        s = self.rows[row]
        bulk = np.einsum("im,im->i", s, self.prefix[p_idx] - 0.5 * self.z[p_idx][0])
        return self.step * (bulk - self.mixed[key])


def _backaction_series(a: LadderSpec, b: LadderSpec, atom: AtomConfig,
                       integrals: _BackactionIntegrals) -> np.ndarray:
    """Initial-field cross terms <A(0) dB(t)> + <dA(t) B(0)> at leading order."""
    out = np.zeros(integrals.rows[a.source_row].shape[0], dtype=complex)
    for p_idx, piece in enumerate(_FIELD_PIECES):
        g_p = atom.g_k if piece.mode == "k" else atom.g_q
        coeff = -1j * g_p
        n_th = atom.n_th_k if piece.mode == "k" else atom.n_th_q
        if a.mode == piece.mode:
            weight = _ordered_field_pair(a.creates, piece.creates, n_th)
            if weight != 0.0:
                out += weight * b.prefactor(atom) * coeff * integrals.series(b.source_row, p_idx)
        if b.mode == piece.mode:
            weight = _ordered_field_pair(piece.creates, b.creates, n_th)
            if weight != 0.0:
                out += weight * a.prefactor(atom) * coeff * integrals.series(a.source_row, p_idx)
    return out


def pair_moment(a: LadderSpec, b: LadderSpec, grid: PropagatorGrid,
                diffusion: DiffusionTable, atom: AtomConfig,
                _contraction: _NoiseContraction | None = None,
                _integrals: _BackactionIntegrals | None = None) -> SplitMoment:
    """<A(t) B(t)> series for two ladder operators, split into parts."""
    if _contraction is None:
        _contraction = _NoiseContraction(grid, diffusion)
    if _integrals is None:
        _integrals = _BackactionIntegrals(grid)
    c = a.prefactor(atom) * b.prefactor(atom)
    sa = grid.row_cumint[a.source_row]
    sb = grid.row_cumint[b.source_row]
    ip = _initial_pair_table(atom.rho0)
    boundary = c * np.einsum("im,mn,in->i", sa, ip, sb)
    noise = c * _contraction.series(a.source_row, b.source_row)
    return SplitMoment(boundary=boundary, noise=noise,
                       backaction=_backaction_series(a, b, atom, _integrals),
                       initial=_initial_field_term(a, b, atom))


def single_moment(a: LadderSpec, grid: PropagatorGrid, atom: AtomConfig) -> np.ndarray:
    """<A(t)> series; identically zero when rho0 carries no source coherences."""
    x0 = state_vector(atom.rho0)
    return a.prefactor(atom) * (grid.row_cumint[a.source_row] @ x0)


def compute_moments(atom: AtomConfig, grid: PropagatorGrid,
                    diffusion: DiffusionTable) -> MomentSeries:
    """Assemble the full moment series consumed by the observables layer."""
    con = _NoiseContraction(grid, diffusion)
    integrals = _BackactionIntegrals(grid)

    def pm(name_a, name_b):
        return pair_moment(ladder(name_a), ladder(name_b), grid, diffusion, atom,
                           _contraction=con, _integrals=integrals)

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
