"""Reference views and solves that only the tests read.

None of these feed the pipeline.  They restate what the library computes in
another form, so that the tests can check the pipeline's structures against
them: index tables for conjugation and populations, the density matrix of a
state vector, the normally ordered noise table, the whole-sector views of
the grid's 4x4 half, the explicit two-time kernel, the oracle's own build of
the atomic generator, the oracle's generator built from sparse Kronecker
products, the Lindblad lifts from np.kron, the exact maximum that the Magnus
substep bound caps, the full 16x16 flow started at an arbitrary grid point, with
the two-time kernels it gives, and the kernel quadrature and moment tables
over the whole sector and the whole window at once, from U(t, 0) rebuilt
out of the grid's frames, which the library forms on the half and streams
in row blocks, one frame each, and that streamed pass with every block's
frame inverted and integrated on its own, where the library shares them.
Two Magnus chains restate the library's without quiet runs: every
interval's own maps, and, for a constant drive, the powers of one step map
times each block's first row.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.integrate import cumulative_trapezoid, solve_ivp

from ramanpairs.algebra import (COMPLEMENT0, HERMITIAN, HERMITIAN_INV, LEVELS, SECTOR0,
                               SECTOR_CONJ0, SECTOR_HALF0, SOURCE_ROWS, dagger, idx, pair_table,
                               real_form)
from ramanpairs.atom import AtomConfig, DriftBuilder, state_vector
from ramanpairs.moments import (_CH, _CONJ, _HALF, _HC, _SOURCE, _STRUCTURE_FEED, _STRUCTURES,
                                DAGGER_SLOT, _scatter, _slot_factors)
from ramanpairs.noise import DiffusionTable
from ramanpairs.oracle import _decay_ops, _field_ops, _level_op, _liouvillian, _weights
from ramanpairs.propagator import (_BLOCK_STEPS, PropagatorGrid, _column_sums,
                                   _cumulative_trapezoid, _expm, _magnus_weights, _orbit,
                                   _prefix_products, _substeps)
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


def whole_flow(grid: PropagatorGrid) -> np.ndarray:
    """U_A(t_i, 0), (n_points, 4, 4): each row's frame flow after the earlier blocks' end maps."""
    bases = [np.eye(4)]
    for end in grid.ends:
        bases.append(end @ bases[-1])
    return grid.flow @ np.repeat(bases, grid.block, axis=0)[:len(grid.times)]


def sector_views(grid: PropagatorGrid) -> tuple[np.ndarray, np.ndarray]:
    """The whole-window kernel factors from the grid's frames, on the sector, in SECTOR0 order.

    Returns S, the trapezoid from t_0 of the four source rows of U(t, 0)
    over the eight sector columns, (n_points, 4, 8), and the inverse of the
    sector flow U(t, 0), blockdiag(V_A, conj V_A), (n_points, 8, 8): the
    rows ac, bd and V_A on SECTOR_HALF0, the rows ca, db and conj(V_A) on
    SECTOR_CONJ0.  Over long windows V_A loses its digits; the pipeline's
    frames never form it.
    """
    n = len(grid.times)
    half = np.searchsorted(SECTOR0, SECTOR_HALF0)
    conj = np.searchsorted(SECTOR0, SECTOR_CONJ0)
    flow = whole_flow(grid)
    cumint = _cumulative_trapezoid(flow[:, _SOURCE], grid.step)
    v_inverse = np.linalg.inv(flow)
    source = np.zeros((n, 4, 8), dtype=complex)
    source[:, :2, half] = cumint
    source[:, 2:, conj] = cumint.conj()
    inverse = np.zeros((n, 8, 8), dtype=complex)
    inverse[:, half[:, None], half] = v_inverse
    inverse[:, conj[:, None], conj] = v_inverse.conj()
    return source, inverse


def kernel(grid: PropagatorGrid, j: int) -> np.ndarray:
    """K(t_i, s_j) of the four source rows for every t_i, shape (n_points, 4, 16).

    The sector columns of sector_views scattered back to all sixteen; the
    other eight are zero.  Entries with t_i < s_j are extrapolations with no
    physical meaning.
    """
    s, v = sector_views(grid)
    k = np.zeros((len(grid.times), 4, 16), dtype=complex)
    k[..., SECTOR0] = (s - s[j]) @ v[j]
    return k


def kernel_sum(grid: PropagatorGrid, y: np.ndarray) -> np.ndarray:
    """h sum_{s_j <= t_i} w_j K(t_i, s_j) y_j: sector values (n, 8, k) -> (n, 4, k).

    With K = (S_i - S_j) V_j it is S_i times one trapezoid of V_j y_j minus
    the trapezoid of S_j V_j y_j, each over the whole grid at once.
    """
    s, v = sector_views(grid)
    z = v @ y
    return s @ _cumulative_trapezoid(z, grid.step) - _cumulative_trapezoid(s @ z, grid.step)


def kernel_form(grid: PropagatorGrid, d: np.ndarray) -> np.ndarray:
    """h sum_j w_j K(t_i, s_j) d_j K(t_i, s_j)^T for sector blocks d (n, 8, 8).

    With K^T = V_j^T (S_i - S_j)^T and y_j = d_j V_j^T, that is
    kernel_sum(y) S_i^T - kernel_sum(y S^T).
    """
    s, v = sector_views(grid)
    s_t = s.transpose(0, 2, 1)
    y = d @ v.transpose(0, 2, 1)
    return kernel_sum(grid, y) @ s_t - kernel_sum(grid, y @ s_t)


def moment_tables(atom: AtomConfig, grid: PropagatorGrid, diffusion: DiffusionTable):
    """moments._moment_tables over the whole grid at once, from kernel_sum and kernel_form.

    Every table is formed on the whole sector, with no use of the halves'
    selection rules.
    """
    g, c, field = _slot_factors(atom)
    cc = np.outer(c, c)
    s = sector_views(grid)[0]
    x0 = state_vector(atom.rho0)
    block = np.ix_(SECTOR0, SECTOR0)
    boundary = cc * (s @ pair_table(x0)[block] @ s.transpose(0, 2, 1))
    einstein = diffusion.einstein[:, block[0], block[1]].reshape(16, 64)
    noise = cc * kernel_form(grid, (grid.state_traj @ einstein).reshape(-1, 8, 8))
    cx = np.einsum("pmn,jn->jmp", _STRUCTURES[:, SECTOR0], grid.state_traj)
    t = kernel_sum(grid, cx) * (-1j * g)
    backaction = c * (field @ t.transpose(0, 2, 1)) + c[:, None] * (t @ field)
    means = c * (s @ x0[SECTOR0])
    return boundary, noise, backaction, field, means


def block_moment_tables(atom: AtomConfig, grid: PropagatorGrid, diffusion: DiffusionTable):
    """moments._moment_tables with every block's frame inverted and integrated on its own.

    One inversion of the whole grid's frames, and V, S and the factors [V; S V]
    formed anew in each block, as the assembly did before blocks shared frames.
    """
    g, c, field = _slot_factors(atom)
    cc = np.outer(c, c)
    # backaction = back_r * B^T + back_u * B with B[u, r] = T[u, DAGGER_SLOT[r]]
    fd = field[range(4), DAGGER_SLOT]
    back_r, back_u = np.outer(fd, c), np.outer(c, fd[list(DAGGER_SLOT)])
    coupling = -1j * g.reshape(2, 2) * [[1], [-1]]  # -i g_p, conjugated on AQ, AK_DAG
    u, x, step, k = grid.flow, grid.state_traj, grid.step, grid.block
    v = np.linalg.inv(u)
    n = len(u)
    frame = np.eye(6, dtype=complex)
    x0 = state_vector(atom.rho0)
    pairs0 = pair_table(x0)
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
        v_b = v[rows]
        m = len(v_b)
        s_b = _cumulative_trapezoid(u[rows, _SOURCE], step)
        # K_h(t_i, s_j) = S_i V_j - (S V)_j, from the factors [V; S V]
        factors = np.concatenate((v_b, s_b @ v_b), axis=1)
        fed = x[rows] @ feed
        d2 = fed[:, :32].reshape(m, 4, 2, 4)  # [i, k, j]: 2D_0 = 2D_HC, 2D_1 = conj(2D_CH)
        np.conjugate(d2[:, :, 1], out=d2[:, :, 1])
        # the 16 columns [y_0, y_0 conj(S)^T, y_1, y_1 conj(S)^T, C_p X], one stacked kernel sum
        y = d2.reshape(m, 8, 4) @ factors.conj().transpose(0, 2, 1)
        cols = np.concatenate((y.reshape(m, 4, 12), fed[:, 32:].reshape(m, 4, 4)), axis=2)
        np.conjugate(cols[..., 14:], out=cols[..., 14:])
        sums = factors @ cols
        if not start:
            sums[0] *= 0.5  # the trapezoid's half weight at s = 0
        sums[0] += carry[:, 14:]
        np.cumsum(sums, axis=0, out=sums)
        # [S_i, -1] R: K_h(t_i, 0) x0, K_h(t_i, 0) P0 and the kernel sums; the row's own
        # trapezoid half weight drops out, as [S_i, -1] [V_i; S_i V_i] = 0
        fixed = (s_b.reshape(2 * m, 4) @ carry[:4, :14]).reshape(m, 2, 14) - carry[4:, :14]
        ks = s_b @ sums[:, :4] - sums[:, 4:]
        means[rows, :2], means[rows, 2:] = fixed[..., 0], fixed[..., 1].conj()
        # boundary K P(0) K^T and noise K 2D K^T, [i, r, (part, k), column] times [S_i, -1]^T
        quad = np.concatenate((fixed[..., 2:], ks[..., :12]), axis=2).reshape(m, 2, 4, 6)
        right = (quad[..., :4].reshape(m, 8, 4) @ s_b.conj().transpose(0, 2, 1)).reshape(m, 2, 4, 2)
        right -= quad[..., 4:]
        _scatter(boundary[rows], right[:, :, :2])
        _scatter(noise[rows], right[:, :, 2:])
        # T[u, p] times -i g_p, non-zero only with u and p on one half
        gathered = np.zeros((m, 4, 4), dtype=complex)
        _scatter(gathered, ks[..., 12:].reshape(m, 2, 2, 2) * coupling)
        np.multiply(gathered.transpose(0, 2, 1), back_r, out=backaction[rows])
        backaction[rows] += back_u * gathered
        if block < len(grid.ends):
            # the next frame: [U_A(t_b+1, 0); -K_h(t_b+1, 0)] = [[U_e, 0], [-S_e, 1]] times this
            # one's, on the left of every column and on the right of the quadratic parts
            frame[:4, :4] = grid.ends[block]
            frame[4:, :4] = -s_b[-1] - 0.5 * step * (u[start + m - 1] + grid.ends[block])[_SOURCE]
            carry = frame @ np.concatenate((carry[:, :14], sums[-1]), axis=1)
            carry[:, 2:26] = (carry[:, 2:26].reshape(6, 4, 6) @ frame.conj().T).reshape(6, 24)
    boundary *= cc
    noise *= cc
    return boundary, noise, backaction, field, c * means


def atomic_liouvillian(atom: AtomConfig, pump: PulseSpec, control: PulseSpec,
                       t: float) -> np.ndarray:
    """Generator of d<sigma_xy>/dt at time t, g = 0: the oracle's build at cutoff 0.

    Shares no code with the drift-matrix lift.  X_m = <sigma_xy> = rho[y, x],
    so the generator on vec(rho) is conjugated by the transpose permutation.
    """
    pieces = _liouvillian(atom, pump, control, 1, 1, 0.0, 0.0)
    gen = sum(c * piece for c, piece in zip(_weights((pump, control), t), pieces))
    perm = np.arange(16).reshape(4, 4).T.reshape(-1)
    return gen.toarray()[np.ix_(perm, perm)]


def kron_liouvillian(atom: AtomConfig, pump: PulseSpec, control: PulseSpec, dim_k: int,
                     dim_q: int, g_k: float, g_q: float) -> list[sparse.csr_array]:
    """The pieces of oracle._liouvillian from sparse Kronecker products and sparse adds.

    Same arguments and order [L0, L_p, L_p', L_c, L_c'].  L0's channels are
    added one at a time, in the order of oracle._decay_ops.
    """
    eye_f = sparse.eye_array(dim_k * dim_q)
    eye = sparse.eye_array(4 * dim_k * dim_q)

    def sig(x, y):
        return sparse.kron(_level_op(x, y), eye_f)

    def plus_hc(op):
        return op + op.conj().T

    def commutator(h):  # rho -> -i [h, rho]
        return -1j * (sparse.kron(h, eye) - sparse.kron(eye, h.T))

    a_k, a_q = (sparse.kron(sparse.eye_array(4), a) for a in _field_ops(dim_k, dim_q))
    l0 = commutator(-control.detuning * sig("a", "a") - pump.detuning * sig("d", "d")
                    - g_k * plus_hc(a_k @ sig("d", "b")) - g_q * plus_hc(a_q @ sig("a", "c")))
    for rate, op in _decay_ops(atom):
        jump = sparse.kron(op, eye_f)
        number = jump.conj().T @ jump
        l0 = l0 + rate * (sparse.kron(jump, jump.conj())
                          - 0.5 * (sparse.kron(number, eye) + sparse.kron(eye, number.T)))
    drives = [commutator(-sig(x, y)) for x, y in ("dc", "cd", "ab", "ba")]
    return [piece.tocsr() for piece in (l0, *drives)]


def propagate_from(s_index: int, atom: AtomConfig, pump: PulseSpec, control: PulseSpec,
                   times: np.ndarray, rtol: float = 1e-9, atol: float = 1e-12) -> np.ndarray:
    """U(t, s_j) on the uniform grid tail t >= s_j, shape (n_tail, 16, 16).

    The full 16x16 flow dU/dt = M(t) U from the identity, 256 components in
    one DOP853 solve for every drive, constant ones included; the defaults are
    atom.evolve_state's tolerances.
    """
    tail = np.asarray(times, dtype=float)[s_index:]
    builder = DriftBuilder(atom, pump, control)

    def rhs(t, y):
        return (builder.entries(t) @ y.reshape(16, 16)).reshape(256)

    sol = solve_ivp(rhs, (tail[0], tail[-1]), np.eye(16, dtype=complex).reshape(256),
                    method="DOP853", t_eval=tail, rtol=rtol, atol=atol)
    assert sol.success, sol.message
    return sol.y.T.reshape(len(tail), 16, 16)


def full_kernel(atom: AtomConfig, pump: PulseSpec, control: PulseSpec, times: np.ndarray,
                j: int, rtol: float = 1e-9, atol: float = 1e-12) -> np.ndarray:
    """K(t_i, s_j) as `kernel` gives it, from the full flow: (S(t_i) - S(s_j)) U(s_j, 0)^-1.

    S integrates the four source rows of the 16x16 flow over all sixteen
    columns, and the inverse is the full 16x16 one.
    """
    u = propagate_from(0, atom, pump, control, times, rtol=rtol, atol=atol)
    rows = u[:, np.asarray(SOURCE_ROWS) - 1, :]
    s = cumulative_trapezoid(rows, x=np.asarray(times, dtype=float), axis=0, initial=0)
    return (s - s[j]) @ np.linalg.inv(u[j])


def lift(h: np.ndarray) -> np.ndarray:
    """algebra.lift from np.kron: i (h^T (x) 1 - 1 (x) h)."""
    h = np.asarray(h, dtype=complex)
    eye = np.eye(4)
    return 1j * (np.kron(h.T, eye) - np.kron(eye, h))


def dissipator(rate: float, jump: np.ndarray) -> np.ndarray:
    """algebra.dissipator from np.kron: rate (L* (x) L - (N^T (x) 1 + 1 (x) N) / 2)."""
    jump = np.asarray(jump, dtype=complex)
    n = jump.conj().T @ jump
    eye = np.eye(4)
    return rate * (np.kron(jump.conj(), jump) - 0.5 * (np.kron(n.T, eye) + np.kron(eye, n)))


def generator_norms(weights: np.ndarray, generators: np.ndarray) -> np.ndarray:
    """The exact 1-norm of sum_k w_k G_k for each row w of `weights` (n, k), over the first k.

    The norm of the 16x16 matrix is the larger of those of its sector half
    and its complement block.
    """
    first = generators.shape[0] - weights.shape[1]
    blocks = np.concatenate(
        (generators[first:, SECTOR_HALF0[:, None], SECTOR_HALF0].reshape(-1, 16),
         generators[first:, COMPLEMENT0[:, None], COMPLEMENT0].reshape(-1, 64)), axis=1)
    blocks = np.stack((blocks.real, blocks.imag), axis=-1).reshape(-1, 160)
    modulus = np.abs((weights @ blocks).view(complex))
    return np.maximum(np.einsum("nij->nj", modulus[:, :16].reshape(-1, 4, 4)).max(axis=1),
                      np.einsum("nij->nj", modulus[:, 16:].reshape(-1, 8, 8)).max(axis=1))


def largest_product(weights: np.ndarray, generators: np.ndarray) -> float:
    """The exact max_i |Omega_i|_1 |C_i|_1, the X that propagator._substeps bounds.

    Omega_i is interval i's Magnus generator with weights `weights` (n, 15),
    C_i its commutator term, each norm from generator_norms.  Taken over row
    blocks of 64 intervals.
    """
    return max(float(np.max(generator_norms(w, generators) * generator_norms(w[:, 5:], generators)))
               for w in np.split(weights, range(64, len(weights), 64)))


def _chain_start(x0: np.ndarray, n: int) -> np.ndarray:
    """The Magnus chain's (n, 2, 8, 6) table, filled at t_0 alone."""
    chain = np.zeros((n, 2, 8, 6))
    chain[0, 0, :4, :4] = np.eye(4)
    y0 = (HERMITIAN_INV @ x0).reshape(2, 8)
    chain[0, :, :, 4], chain[0, :, :, 5] = y0.real, y0.imag
    return chain


def _framed(chain: np.ndarray, block: int, fill
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """fill(first, last) on each block of intervals, U_A restarted at every block's first row.

    Returns U_A, the end maps and the state as _magnus_chain does, and every
    block as sharing its own frame alone, so the moment assembly forms each.
    """
    ends = []
    for first in range(0, len(chain) - 1, block):
        last = min(first + block, len(chain) - 1)
        fill(first, last)
        if last % block == 0:
            ends.append(chain[last, 0, :, :4].copy())
            chain[last, 0, :, :4] = chain[0, 0, :, :4]
    sector = chain[:, 0, :, :4]
    ends = np.reshape(ends, (-1, 8, 4))
    y = (chain[..., 4] + 1j * chain[..., 5]).reshape(len(chain), 16)
    return (sector[:, :4] + 1j * sector[:, 4:], ends[:, :4] + 1j * ends[:, 4:], y @ HERMITIAN.T,
            np.arange(len(range(0, len(chain), block))))


def _basis(builder: DriftBuilder) -> np.ndarray:
    """The generators' real sector and complement blocks, one row of 128 each."""
    real = real_form(builder.generators)
    return np.stack((real[:, :8, :8], real[:, 8:, 8:]), axis=1).reshape(15, 128)


def interval_chain(builder: DriftBuilder, x0: np.ndarray, times: np.ndarray, rtol: float,
                   block: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """propagator._magnus_chain with no quiet runs: every interval takes its own Magnus maps.

    The m substeps come from every interval's weights, and the batches of
    about _BLOCK_STEPS substeps start at each block's first row.
    """
    n = len(times)
    step = (times[-1] - times[0]) / (n - 1)
    basis, chain = _basis(builder), _chain_start(x0, n)
    weights = _magnus_weights(builder, times[:-1], step)
    m = _substeps(weights, _column_sums(builder.generators), rtol)
    per_block = max(1, _BLOCK_STEPS // m)

    def fill(first, last):
        for start in range(first, last, per_block):
            stop = min(start + per_block, last)
            starts = (times[start:stop, None] + (step / m) * np.arange(m)).ravel()
            w = _magnus_weights(builder, starts, step / m) if m > 1 else weights[start:stop]
            maps = _expm((w @ basis).reshape(stop - start, m, 2, 8, 8))
            interval = _prefix_products(maps.swapaxes(0, 1))[-1]
            chain[start + 1:stop + 1] = _prefix_products(interval) @ chain[start]

    return _framed(chain, block, fill)


def orbit_chain(builder: DriftBuilder, x0: np.ndarray, times: np.ndarray, rtol: float,
                block: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The Magnus chain of a constant M: the powers of the first interval's map exp(M h).

    The powers are the _orbit of the map from the identity; each block's rows
    are those powers times its first row.
    """
    step = (times[-1] - times[0]) / (len(times) - 1)
    powers = np.empty((block + 1, 2, 8, 8))
    powers[0] = np.eye(8)
    _orbit(_expm((_magnus_weights(builder, times[:1], step) @ _basis(builder)).reshape(2, 8, 8)),
           powers)
    chain = _chain_start(x0, len(times))

    def fill(first, last):
        chain[first + 1:last + 1] = powers[1:last - first + 1] @ chain[first]

    return _framed(chain, block, fill)


def savetxt_csv(path, header: list[str], table: dict[str, np.ndarray]) -> None:
    """A CSV as np.savetxt writes it in the runner's format: the byte reference of _write_csv."""
    np.savetxt(path, np.column_stack(list(table.values())), fmt="%.17g", delimiter=",",
               header="\n".join([*header, ",".join(table)]), comments="", encoding="utf-8")
