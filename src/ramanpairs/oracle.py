"""Brute-force verifier: full master equation with quantized field modes.

The atom is joined to one truncated Stokes mode and one truncated anti-Stokes
mode and the joint density matrix is integrated by DOP853 (`dop853.solve_ivp`,
the package's own NumPy stepper, which takes SciPy's steps), an adaptive
solve that shares no step rule with the pipeline's Magnus flow, under the
rotating-frame Hamiltonian

    H = -Delta_c |a><a| - Delta_p |d><d|
        - [Omega_p(t)|d><c| + Omega_c(t)|a><b| + g_k a_k |d><b| + g_q a_q |a><c| + h.c.]

plus the same radiative Lindblad channels as the drift matrix.  `_generator`
builds this generator once, from raw level projectors (the drift-matrix lift is
not reused), as sparse superoperators on vec(rho), one per time dependence:
L(t) = L0 + sum_i w_i(t) L_i.  An unchirped drive has Omega(t) = c E(t), a
constant times its real envelope, so its term is one operator weighted by E.
A steady drive (pulses.is_steady, E = 1) folds into L0; unchirped pulses with
one envelope share one piece, so fig2b's two pulses give L0 and one piece; a
chirped drive keeps two, weighted by Omega(t) and Omega*(t); and a drive with
omega_peak 0 adds nothing.  Each piece is a sum of Kronecker products of dense
joint-space operators, assembled from the outer products of their nonzeros in
one CSR conversion (`_liouvillian`): the pieces of fig2b or fig4c take
1.6-1.9 ms at cutoff 3.  scipy.sparse is imported inside the functions that
build these pieces, so it loads at the first build, not with the CLI that
reads OracleConfig; it is the only SciPy module a verify run loads.

H conserves Q = n_k - n_q - [level in {a, b}], and every jump shifts Q by the
same amount on both sides of rho, so L never couples entries of rho with
different Q(x) - Q(y).  The run does not hard-code that charge: it integrates
only the entries of vec(rho) reachable from the support of vec(rho0) through
the union sparsity pattern of the pieces, and every other entry stays exactly
zero.  From a diagonal rho0 at cutoff 3 that is 672 of 4096 entries when both
drives act (fig2b, fig7d) and 10 on fig7a-c, whose control is off; a coherent
rho0 or a thermal seed adds what it reaches.  The restricted pieces are stacked
into one matrix, so that each right-hand side is one product `stacked @ y` and
a weighted sum of its row blocks; it is stored dense when it has at most
_DENSE_ENTRIES (8192) entries, as fig7a-c's 10 x 10 does, and sparse otherwise,
as every two-drive run's 672 columns are.  One run on the 41 verifier points
takes about 21 ms (fig2b), 20 ms (fig7c), 28 ms (fig4c) and 44 ms (fig7d) on a
2-core host, one BLAS thread.  rtol must be at least propagator.MIN_RTOL
(100 eps), since the stepper takes rtol as given.

Moments come out as direct traces Tr(rho op), each one weight row on the
solved entries of vec(rho), with no kernel machinery or noise tables in this
code path, so agreement with the moments pipeline certifies the whole kernel
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .atom import AtomConfig
from .dop853 import solve_ivp
from .errors import ConfigError, CutoffError, check_solution, check_tolerances
from .propagator import MIN_RTOL
from .pulses import PulseSpec, envelope, is_steady, rabi

if TYPE_CHECKING:
    from collections.abc import Callable

    from scipy import sparse

_RANK = {"a": 0, "b": 1, "c": 2, "d": 3}
# A stacked generator of at most this many entries (rows x cols) is stored dense.  A sparse
# mat-vec costs about 3 us whatever its size; on sub-blocks of the fig2b and fig4c generators
# (2-core host, one BLAS thread) the dense one was faster up to 8192 entries (2.7 against
# 3.1 us), level near 11500 and slower from 18000 on.
_DENSE_ENTRIES = 8192


@dataclass(frozen=True)
class OracleConfig:
    """Truncation and coupling knobs of the verification run."""

    cutoff_k: int = 3
    cutoff_q: int = 3
    g_k: float = 0.01
    g_q: float = 0.01
    dim_cap: int = 256
    rtol: float = 1e-8
    atol: float = 1e-11
    leak_tol: float = 1e-4

    def __post_init__(self):
        if self.cutoff_k < 1 or self.cutoff_q < 1:
            raise ConfigError("Fock cutoffs must be >= 1")
        dim = 4 * (self.cutoff_k + 1) * (self.cutoff_q + 1)
        if dim > self.dim_cap:
            raise ConfigError(f"joint dimension {dim} exceeds cap {self.dim_cap}")
        # a NaN leak_tol would switch the truncation guard off (every comparison is False)
        check_tolerances(rtol=self.rtol, atol=self.atol, leak_tol=self.leak_tol)
        # the stepper takes rtol as given: below this floor it would run to tiny steps
        if self.rtol < MIN_RTOL:
            raise ConfigError(f"rtol: must be >= {MIN_RTOL:.3g}, got {self.rtol}")
        for key in ("g_k", "g_q"):
            value = getattr(self, key)
            if not np.isfinite(value) or value < 0:
                raise ConfigError(f"{key}: must be finite and >= 0, got {value}")


@dataclass
class OracleMoments:
    """Trace moments of the joint run (totals only, no boundary/noise split)."""

    times: np.ndarray
    pair: np.ndarray
    cross: np.ndarray
    n_k: np.ndarray
    n_q: np.ndarray
    square_k: np.ndarray
    square_q: np.ndarray
    mean_k: np.ndarray
    mean_q: np.ndarray
    atom_traj: np.ndarray      # <sigma_xy> marginals, shape (n_times, 16)
    top_layer_k: np.ndarray
    top_layer_q: np.ndarray


def _field_ops(dim_k: int, dim_q: int) -> tuple[np.ndarray, np.ndarray]:
    """Annihilators a_k, a_q on the Stokes (dim_k) x anti-Stokes (dim_q) space, dense."""
    a_k, a_q = (np.diag(np.sqrt(np.arange(1.0, dim)), 1) for dim in (dim_k, dim_q))
    return np.kron(a_k, np.eye(dim_q)), np.kron(np.eye(dim_k), a_q)


def _thermal(dim: int, n_th: float) -> np.ndarray:
    weights = (n_th / (1.0 + n_th)) ** np.arange(dim)  # vacuum at n_th = 0, as 0**0 = 1
    return np.diag(weights / weights.sum()).astype(complex)


def _level_op(x: str, y: str) -> np.ndarray:
    op = np.zeros((4, 4), dtype=complex)
    op[_RANK[x], _RANK[y]] = 1.0
    return op


def _decay_ops(atom: AtomConfig) -> list[tuple[float, np.ndarray]]:
    ops = []
    for (e, g, rate) in (("a", "b", atom.gamma_ab), ("a", "c", atom.gamma_ac),
                         ("d", "b", atom.gamma_db), ("d", "c", atom.gamma_dc)):
        if rate > 0:
            ops.append((rate, _level_op(g, e)))
    if atom.gamma_bc > 0:
        ops.append((0.5 * atom.gamma_bc, _level_op("b", "b") - _level_op("c", "c")))
    return ops


def _kron_sum(terms: list[tuple[np.ndarray, np.ndarray]], diagonal: np.ndarray | None = None
              ) -> sparse.csr_array:
    """sum_k kron(a_k, b_k) over dense (dim, dim) factor pairs, as CSR.

    Entry (r_a dim + r_b, c_a dim + c_b) of kron(a, b) is a[r_a, c_a] b[r_b, c_b],
    so the nonzeros come out as one outer product per pair.  A given
    `diagonal` (length dim**2) replaces the products' diagonal: the
    products overlap there, and the caller forms that sum in a fixed order.
    """
    from scipy import sparse

    dim = len(terms[0][0])
    rows, cols, vals = [], [], []
    for a, b in terms:
        r_a, c_a = np.nonzero(a)
        r_b, c_b = np.nonzero(b)
        rows.append(np.add.outer(r_a * dim, r_b).ravel())
        cols.append(np.add.outer(c_a * dim, c_b).ravel())
        vals.append(np.multiply.outer(a[r_a, c_a], b[r_b, c_b]).ravel())
    rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
    if diagonal is not None:
        off = rows != cols
        (on,) = np.nonzero(diagonal)
        rows, cols = np.concatenate([rows[off], on]), np.concatenate([cols[off], on])
        vals = np.concatenate([vals[off], diagonal[on]])
    return sparse.csr_array((vals, (rows, cols)), shape=(dim * dim, dim * dim))


def _liouvillian(atom: AtomConfig, levels: list[np.ndarray], dim_k: int, dim_q: int,
                 g_k: float, g_q: float) -> list[sparse.csr_array]:
    """[L0, L_1, ...]: one superoperator for each 4x4 level Hamiltonian term in `levels`.

    Superoperators on the row-major vec(rho) of atom x Stokes (dim_k) x
    anti-Stokes (dim_q), through vec(A rho B) = (A kron B^T) vec(rho), each
    built by `_kron_sum` from dense operators on the joint space.  L0 holds
    levels[0] (the detunings, and any drive folded in), the g_k, g_q
    couplings and every Lindblad channel; its diagonal is summed channel by
    channel, in the order of `_decay_ops`.  Each later L_i is the commutator
    rho -> -i [levels[i] kron 1_field, rho].
    """
    eye_f = np.eye(dim_k * dim_q)
    eye = np.eye(4 * dim_k * dim_q)

    def plus_hc(op):
        return op + op.conj().T

    def commutator(h):  # rho -> -i [h, rho] = -i h rho + i rho h
        return [(-1j * h, eye), (eye, 1j * h.T)]

    # joint operators as level x field Kronecker products: a_k sigma_db = sigma_db kron a_k
    a_k, a_q = _field_ops(dim_k, dim_q)
    h = (np.kron(levels[0], eye_f)
         - g_k * plus_hc(np.kron(_level_op("d", "b"), a_k))
         - g_q * plus_hc(np.kron(_level_op("a", "c"), a_q)))
    terms = commutator(h)
    h_diag = np.diag(h)
    diagonal = -1j * np.subtract.outer(h_diag, h_diag)
    for rate, op in _decay_ops(atom):
        jump = np.kron(op, eye_f)
        terms.append((rate * jump, jump.conj()))
        # J^dag J is diagonal for every channel, so -(1/2){J^dag J, rho} lies on the diagonal
        j, n = np.diag(jump), np.diag(np.kron(op.conj().T @ op, eye_f))
        diagonal = diagonal + rate * (np.multiply.outer(j, j.conj()) - 0.5 * np.add.outer(n, n))
    drives = [_kron_sum(commutator(np.kron(level, eye_f))) for level in levels[1:]]
    return [_kron_sum(terms, diagonal.ravel()), *drives]


def _generator(atom: AtomConfig, pump: PulseSpec, control: PulseSpec, dim_k: int, dim_q: int,
               g_k: float, g_q: float
               ) -> tuple[list[sparse.csr_array], Callable[[float], list[complex]]]:
    """The pieces L_i of L(t) = sum_i w_i(t) L_i, one per time dependence, and t -> [w_i(t)].

    The drive term of H is -(Omega sigma_xy + Omega* sigma_yx), with xy = dc
    for the pump and ab for the control.  An unchirped drive has
    Omega(t) = c E(t), c = Omega(center) and E the real `envelope`, so its
    term is one level operator weighted by E(t): a steady drive's E is 1
    and its term joins L0, and pulses with one envelope (shape, center,
    width) share a piece.  A chirped drive keeps two pieces, weighted by
    Omega(t) and Omega*(t), and a drive with omega_peak 0 adds nothing.
    """
    groups = {None: -control.detuning * _level_op("a", "a") - pump.detuning * _level_op("d", "d")}
    shaped, chirped, split = [], [], []
    for spec, (x, y) in ((pump, "dc"), (control, "ab")):
        if spec.omega_peak == 0:
            continue
        if spec.chirp:
            chirped.append(spec)
            split += [-_level_op(x, y), -_level_op(y, x)]
            continue
        key = None if is_steady(spec) else (spec.shape, spec.center, spec.width)
        if key not in groups:
            shaped.append(spec)
        c = rabi(spec, spec.center)
        groups[key] = groups.get(key, 0.0) - (c * _level_op(x, y) + c.conjugate() * _level_op(y, x))
    pieces = _liouvillian(atom, [*groups.values(), *split], dim_k, dim_q, g_k, g_q)

    def weights(t):
        w = [1.0]
        for spec in shaped:
            w.append(envelope(spec, t))
        for spec in chirped:
            omega = rabi(spec, t)
            w += [omega, omega.conjugate()]
        return w

    return pieces, weights


def _reachable(pieces: list[sparse.csr_array], y0: np.ndarray) -> np.ndarray:
    """Indices of vec(rho) that the flow from y0 can make non-zero, sorted.

    The smallest set holding the support of y0 and closed under the union
    sparsity pattern of the pieces: every entry outside it has zero
    derivative for all t, whatever the drive amplitudes.
    """
    pattern = sum(abs(piece) for piece in pieces).astype(bool)
    mask = y0 != 0
    while True:
        grown = mask | (pattern @ mask)
        if np.array_equal(grown, mask):
            return np.flatnonzero(mask)
        mask = grown


def _stacked(pieces: list[sparse.csr_array], keep: np.ndarray) -> sparse.csr_array | np.ndarray:
    """The pieces restricted to the kept entries and stacked row-wise, one mat-vec for all.

    Dense when it has at most _DENSE_ENTRIES entries, where a sparse
    product's fixed dispatch cost outweighs the dense product's work.
    """
    from scipy import sparse

    stacked = sparse.vstack([piece[keep][:, keep] for piece in pieces])
    return stacked.toarray() if np.prod(stacked.shape) <= _DENSE_ENTRIES else stacked


def oracle_moments(atom: AtomConfig, pump: PulseSpec, control: PulseSpec,
                   times: np.ndarray, cfg: OracleConfig | None = None) -> OracleMoments:
    """Integrate the joint master equation (DOP853) and trace out the listed moments.

    The couplings g_k, g_q come from cfg (the verifier chooses its own small
    values); everything else is shared with the kernel pipeline inputs.
    Raises CutoffError when the top Fock layer of either mode accumulates
    more than leak_tol of that mode's peak photon number.
    """
    cfg = cfg or OracleConfig()
    times = np.asarray(times, dtype=float)
    dim_k = cfg.cutoff_k + 1
    dim_q = cfg.cutoff_q + 1
    dim_f = dim_k * dim_q
    pieces, weights = _generator(atom, pump, control, dim_k, dim_q, cfg.g_k, cfg.g_q)
    rho0 = np.kron(np.kron(atom.rho0, _thermal(dim_k, atom.n_th_k)),
                   _thermal(dim_q, atom.n_th_q)).reshape(-1)
    keep = _reachable(pieces, rho0)
    stacked = _stacked(pieces, keep)

    def rhs(t, y):
        flows = stacked @ y
        if len(pieces) == 1:
            return flows
        return np.asarray(weights(t)) @ flows.reshape(len(pieces), -1)

    sol = solve_ivp(rhs, (times[0], times[-1]), rho0[keep], method="DOP853",
                    t_eval=times, rtol=cfg.rtol, atol=cfg.atol)
    check_solution(sol, "oracle", times[0])
    # <op> = Tr(rho op) = vec(op^T) . vec(rho).  On the kept entry (i, a, j, b) of vec(rho),
    # kron(1_atom, op)^T weighs delta_ij op[b, a], and kron(|x><y|, 1_field)^T weighs
    # delta_ab at i = y, j = x: one weight row per moment, all applied in one product
    i, a, j, b = np.unravel_index(keep, (4, dim_f, 4, dim_f))
    a_k, a_q = _field_ops(dim_k, dim_q)
    last = [np.diag(np.eye(dim)[-1]) for dim in (dim_k, dim_q)]  # projectors on the top layers
    field_ops = np.stack([a_k.T @ a_k, a_q.T @ a_q, np.kron(last[0], np.eye(dim_q)),
                          np.kron(np.eye(dim_k), last[1]), a_q @ a_k, a_q @ a_k.T, a_k @ a_k,
                          a_q @ a_q, a_k, a_q])
    rows = np.concatenate((field_ops[:, b, a] * (i == j),
                           np.equal.outer(np.arange(16), 4 * j + i) & (a == b)))
    n_k, n_q, top_k, top_q, pair, cross, square_k, square_q, mean_k, mean_q, *atom = rows @ sol.y
    n_k, n_q, top_k, top_q = n_k.real, n_q.real, top_k.real, top_q.real

    for label, top, n in (("Stokes", top_k, n_k), ("anti-Stokes", top_q, n_q)):
        scale = max(float(np.max(n)), 1e-300)
        worst = float(np.max(top))
        if worst > cfg.leak_tol * scale:
            raise CutoffError(
                f"{label} top Fock layer holds {worst:.3e}, more than "
                f"{cfg.leak_tol:.0e} of the peak photon number {scale:.3e}; "
                f"increase the cutoff")

    return OracleMoments(
        times=times,
        pair=pair,
        cross=cross,
        n_k=n_k.astype(complex),
        n_q=n_q.astype(complex),
        square_k=square_k,
        square_q=square_q,
        mean_k=mean_k,
        mean_q=mean_q,
        atom_traj=np.transpose(atom),  # <sigma_xy> = rho[y, x], column 4 x + y
        top_layer_k=top_k,
        top_layer_q=top_q,
    )
