"""Two-time propagator of the drift system, in one flow frame per block of grid rows.

The field-operator solutions need K_r,m(t, s) = int_s^t U_{r,m}(tau, s) dtau
for the four source rows r in algebra.SOURCE_ROWS and every grid pair
t_i >= s_j.  M(t) never couples the eight coherences of algebra.SECTOR0 to
the other eight operators (see its docstring for the charge argument), and
on the sector it is blockdiag(A, conj A) over algebra.SECTOR_HALF0 and
SECTOR_CONJ0.  The source rows ac and bd lie in the half and ca, db are
their conjugates, so everything below stores only the 4x4 flow U_A of A.
Materializing the two-time store scales as O(N^2); instead the grid is cut
into blocks of rows, each in its own frame: U_A(t, t_b) from its first row
t_b.  In a block U_A(t, s) = U_A(t, t_b) U_A(s, t_b)^{-1}, so the kernel rows
ac and bd factor as

    K_h(t_i, s_j) = (S_h(t_i) - S_h(s_j)) U_A(s_j, t_b)^{-1},

with S_h the cumulative trapezoid of those rows of U_A(., t_b), and the rows
ca and db are conj(K_h) on SECTOR_CONJ0.  An earlier s_j enters through
K(t, s) = K(t_b, s) + S_h(t) U_A(t_b, s), so the moment assembly carries its
running sums from block to block by each block's end map.  Drives, chirps
and detunings are anti-Hermitian on the half, so the atom's dissipator
alone bounds how fast a frame's condition grows, and _block_rows keeps it
at most 10 for any window.  One flow per scenario feeds everything, and the
expectation trajectory U(t, 0) X(0) runs on across the frames; it also
carries the noise, since the moment assembly forms the diffusion blocks as
that trajectory times the atom's constant Einstein map
(noise.diffusion_table).

Every drive gets the flow from fourth-order Magnus step maps
(_magnus_chain): each interval's map is the exponential of
Omega = (h/2)(M_1 + M_2) + (sqrt(3)/12) h^2 [M_2, M_1] at its two Gauss
nodes, substepped so that the flow meets rtol (_substeps), and the grid
values are the running products of those maps.  A quiet interval, where no
drive acts, takes the one map of h times M's time-independent part
(_quiet), so a run of them is its powers; cw unchirped drives leave every
interval quiet, and their specs say so (_steady_drives), so one interval's
weights serve them all.  Every block frame restarts at the same identity
columns, so every block quiet over all its rows forms the same frame, the
same powers times the same identity, bit for bit, and PropagatorGrid.shares
names the first such block for the moment assembly, which inverts and
integrates that frame once.  Only U_A and the state are chained, in real
arithmetic (algebra.real_form).  Every exponential comes from _expm, a NumPy
scaling-and-squaring Taylor sum, so no scenario run loads a scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra
from .atom import GENERATOR_PAIRS, AtomConfig, DriftBuilder, state_vector
from .atom import evolve_state  # noqa: F401  (perfbench/tracing.py wraps propagator.evolve_state)
from .errors import ConfigError
from .errors import solve_ivp  # noqa: F401  (perfbench/tracing.py wraps propagator.solve_ivp)
from .pulses import PulseSpec

# Default relative tolerance of the Magnus flow, for the API and for [run] rtol;
# every time-dependent preset point then takes one substep per interval but
# fig3b's (2-4)
DEFAULT_RTOL = 1e-8
# The smallest [run] rtol: 100 float64 eps, SciPy's floor for solve_ivp.  The
# substeps grow as rtol^(-1/4); at rtol 1e-30 fig2b would take 194,026 per interval.
MIN_RTOL = 100 * np.finfo(float).eps

_ROUNDOFF = 2.0 ** -53
# Gauss-Legendre nodes of a step, as fractions of it, and the weight of the
# commutator term of the fourth-order Magnus generator (Blanes, Casas, Oteo &
# Ros, Phys. Rep. 470, 151 (2009))
_GAUSS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_COMMUTATOR = math.sqrt(3.0) / 12.0
# Magnus substeps per batch of the chain: a (64, 2, 8, 8) float batch is 64 KiB
_BLOCK_STEPS = 64
# Most grid rows per block, each block in its own flow frame (_block_rows); the
# moment assembly streams the blocks, and its (128, 6, 16) complex running sums
# are 192 KiB
_BLOCK_ROWS = 128


def _cumulative_trapezoid(v: np.ndarray, step: float) -> np.ndarray:
    """Trapezoid integral of v over the first axis from its first row to every row.

    (2 sum_{j <= i} v_j - v_0 - v_i) h / 2, formed in place on the cumsum.
    """
    out = np.cumsum(v, axis=0)
    out *= 2.0
    out -= v
    out -= v[0]
    out *= 0.5 * step
    return out


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of every square matrix in a (..., k, k), by scaling and squaring.

    One scaling for the batch: a / 2^s with s the least such that the largest
    1-norm theta is <= 1/2.  The Taylor polynomial takes the least degree d
    whose truncation bound theta^(d+1) / (d+1)! is below the unit roundoff,
    so rounding sets the accuracy (Moler & Van Loan, SIAM Rev. 45, 3 (2003)).
    It is evaluated by Paterson-Stockmeyer (Higham, Functions of Matrices,
    SIAM 2008, section 4.2): with the powers up to A^r, r ~ sqrt(d + 1), the
    d + 1 terms fall into chunks of r, summed in one product with their
    coefficients, then nested in Horner form in A^r.  That takes about
    2 sqrt(d) products of the batch, then s squarings.
    """
    norm = float(np.einsum("...ij->...j", np.abs(a)).max(initial=0.0))
    squarings = max(0, math.ceil(math.log2(2.0 * norm))) if norm > 0 else 0
    scaled = a / 2.0 ** squarings if squarings else a
    theta = norm / 2.0 ** squarings
    degree, bound = 0, theta
    while bound > _ROUNDOFF:
        degree += 1
        bound *= theta / (degree + 1)
    size = math.ceil(math.sqrt(degree + 1))
    chunks = math.ceil((degree + 1) / size)
    powers = np.empty((size, *a.shape), dtype=scaled.dtype)
    powers[0] = np.eye(a.shape[-1])
    for i in range(1, size):
        powers[i] = scaled if i == 1 else scaled @ powers[i - 1]
    taylor = np.zeros(chunks * size)
    taylor[:degree + 1] = 1.0 / np.cumprod([1.0, *range(1, degree + 1)])
    sums = (taylor.reshape(chunks, size) @ powers.reshape(size, -1)).reshape(chunks, *a.shape)
    out = sums[-1]
    if chunks > 1:
        top = scaled @ powers[-1]
        for j in range(chunks - 2, -1, -1):
            out = top @ out + sums[j]
    for _ in range(squarings):
        out = out @ out
    return out


def _orbit(step_map: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill out[i] with step_map^i @ out[0] for every i, in place.

    Doubling: with the first k terms known, the next k are step_map^k times
    them, so the table takes about log2(len(out)) batched products.
    """
    n = len(out)
    power, k = step_map, 1
    while k < n:
        m = min(k, n - k)
        np.matmul(power, out[:m], out=out[k:k + m])
        power = power @ power
        k += m
    return out


def _magnus_weights(builder: DriftBuilder, starts: np.ndarray, step: float) -> np.ndarray:
    """Weights of builder.generators in the Magnus generator of each step from t in starts.

    Omega = (h/2)(M_1 + M_2) + (sqrt(3)/12) h^2 [M_2, M_1] with M_1, M_2 at the
    two Gauss nodes; over M = sum_k r_k G_k the commutator is
    sum_{k<l} (r2_k r1_l - r2_l r1_k) [G_k, G_l].  Shape (len(starts), 15).
    """
    r1 = builder.coefficients(starts + _GAUSS[0] * step)
    r2 = builder.coefficients(starts + _GAUSS[1] * step)
    k, l = GENERATOR_PAIRS
    return np.concatenate((0.5 * step * (r1 + r2),
                           _COMMUTATOR * step * step * (r2[:, k] * r1[:, l] - r2[:, l] * r1[:, k])),
                          axis=1)


def _column_sums(generators: np.ndarray) -> np.ndarray:
    """Column sums of |G_k| on the sector half and on the complement block, (12, 15).

    A 1-norm of sum_k w_k G_k is the larger of those of the sector half A (the
    conjugate half has the same) and the complement block, so by the triangle
    inequality the column maxima of this table @ |w|^T bound it for each row w
    of a weight table (n, 15): one product for all n.
    """
    return np.concatenate(
        (np.abs(generators[:, algebra.SECTOR_HALF0[:, None], algebra.SECTOR_HALF0]).sum(axis=1),
         np.abs(generators[:, algebra.COMPLEMENT0[:, None], algebra.COMPLEMENT0]).sum(axis=1)),
        axis=1).T


def _substeps(weights: np.ndarray, columns: np.ndarray, rtol: float) -> int:
    """Magnus substeps per grid interval, m = ceil((0.1 X / rtol)^(1/4)); 1 for no interval.

    X bounds max_i |Omega_i|_1 |C_i|_1 through `columns` (_column_sums) over
    the intervals with Magnus weights `weights` (n, 15), Omega_i the one-step
    generator of interval i as a 16x16 matrix and C_i its commutator term.
    The step's local error goes as |Omega| |C| ~ h^5; over twenty drives the
    error of the whole flow stayed below 0.07 max_i |Omega_i| |C_i|, and m
    substeps divide it by about m^4.
    """
    magnitude = np.abs(weights).T
    bound = np.max((columns @ magnitude).max(axis=0) * (columns[:, 5:] @ magnitude[5:]).max(axis=0),
                   initial=0.0)
    return max(1, math.ceil((0.1 * float(bound) / rtol) ** 0.25))


def _quiet(weights: np.ndarray, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The steady generator's weights, (15,), and which intervals are quiet, (n,).

    A weight with one value on every interval (the static piece, a cw unchirped
    drive) keeps it in the steady generator, the others are 0.  An interval is
    quiet when the _column_sums bound puts its generator within the unit
    roundoff of the steady one; as |exp(X) - exp(Y)| <= |X - Y| e^max(|X|, |Y|),
    its map is then exp(steady) to one rounding.
    """
    steady = np.where((weights == weights[0]).all(axis=0), weights[0], 0.0)
    return steady, (columns @ np.abs(weights - steady).T).max(axis=0) <= _ROUNDOFF


def _prefix_products(maps: np.ndarray) -> np.ndarray:
    """maps[i] @ ... @ maps[0] for every i, in place, by doubling: log2(len(maps)) products.

    The products run over the first axis, so a view with the grid's substeps
    first multiplies each interval's substep maps into one as its last row.
    """
    k = 1
    while k < len(maps):
        maps[k:] = maps[k:] @ maps[:-k]
        k *= 2
    return maps


def _block_rows(builder: DriftBuilder, step: float) -> int:
    """Rows per block: at most _BLOCK_ROWS, spanning at most ln 10 / (mu(D) + mu(-D)) in time.

    mu(X) is the top eigenvalue of X's Hermitian part.  On the sector half A(t)
    has the Hermitian part of the atom's dissipator D alone, so
    |U_A(t, t_b)| <= e^{mu(D)(t - t_b)} and |U_A(t, t_b)^-1| <= e^{mu(-D)(t - t_b)}:
    a frame of that span has condition at most 10.  A block takes at least
    one interval.
    """
    static = builder.generators[0, algebra.SECTOR_HALF0[:, None], algebra.SECTOR_HALF0]
    eigenvalues = np.linalg.eigvalsh(0.5 * (static + static.conj().T))
    spread = float(eigenvalues[-1] - eigenvalues[0]) * step  # a subnormal one gives inf, no warning
    return max(1, int(min(_BLOCK_ROWS, math.log(10.0) / spread if spread > 0 else math.inf)))


def _steady_drives(builder: DriftBuilder) -> bool:
    """True when both drives are cw and unchirped, so that M and every step map are constant."""
    return all(spec.shape == "cw" and spec.chirp == 0 for spec in (builder.pump, builder.control))


def _magnus_chain(builder: DriftBuilder, x0: np.ndarray, times: np.ndarray, rtol: float,
                  block: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """U_A(t_i, t_b) of each row's block, (n, 4, 4), the end maps, U(t_i, t_0) x0, (n, 16), and
    the block whose frame each block shares, (n_blocks,).

    Blocks of `block` rows each restart U_A on algebra.SECTOR_HALF0 at the
    identity on their first row t_b; end map b is U_A(t_b + block h, t_b),
    (n_blocks - 1, 4, 4), and the state runs on.
    A run of quiet intervals (_quiet) takes the powers of the one steady map;
    cw unchirped drives (_steady_drives) make every interval quiet from the
    weights of the first alone.  A block quiet over every interval of its
    rows takes the same product of the same powers with the same restarted
    identity columns as the first such block, so it holds a prefix of that
    block's frame, bit for bit, and shares it.
    Each driven interval gets m equal substeps (_substeps over the driven
    intervals alone), each map the exponential of its Magnus generator in the
    real coordinates of algebra.HERMITIAN, where it is block diagonal: R(A)
    on the sector, an 8x8 block on the complement.  A batch of about
    _BLOCK_STEPS substeps takes one _expm; the m maps of an interval
    multiply into one, and the batch's prefix products carry the chain on
    from its first point.
    The chain holds per grid point the first four columns of the sector flow,
    [Re U_A; Im U_A], and the state's coordinates y = HERMITIAN^-1 X as real
    and imaginary columns.  No per-substep table outlives its batch.
    """
    n = len(times)
    step = (times[-1] - times[0]) / (n - 1)
    real = algebra.real_form(builder.generators)
    basis = np.stack((real[:, :8, :8], real[:, 8:, 8:]), axis=1).reshape(15, 128)
    # per grid point: [Re U_A; Im U_A | Re y_S, Im y_S] and [0 | Re y_C, Im y_C]
    chain = np.zeros((n, 2, 8, 6))
    chain[0, 0, :4, :4] = np.eye(4)
    y0 = (algebra.HERMITIAN_INV @ x0).reshape(2, 8)
    chain[0, :, :, 4], chain[0, :, :, 5] = y0.real, y0.imag
    columns = _column_sums(builder.generators)
    if _steady_drives(builder):  # every interval has the first one's weights: all are quiet
        weights = np.broadcast_to(_magnus_weights(builder, times[:1], step), (n - 1, 15))
        steady, quiet = weights[0], np.ones(n - 1, dtype=bool)
    else:
        weights = _magnus_weights(builder, times[:-1], step)
        steady, quiet = _quiet(weights, columns)
    if quiet.any():  # the steady map's powers, up to a frame's length
        powers = np.empty((min(block, n - 1) + 1, 2, 8, 8))
        powers[0] = np.eye(8)
        _orbit(_expm((steady @ basis).reshape(2, 8, 8)), powers)
    m = _substeps(weights[~quiet], columns, rtol)
    per_block = max(1, _BLOCK_STEPS // m)
    # quiet runs and frames cut the grid; a frame starts on every block's first row
    edges = sorted({0, *range(block, n, block), n - 1,
                    *(np.flatnonzero(quiet[1:] != quiet[:-1]) + 1).tolist()})
    ends = []
    for first, last in zip(edges[:-1], edges[1:]):
        if quiet[first]:  # a run of quiet intervals: powers of the one steady map
            chain[first + 1:last + 1] = powers[1:last - first + 1] @ chain[first]
        else:
            for start in range(first, last, per_block):
                stop = min(start + per_block, last)
                starts = (times[start:stop, None] + (step / m) * np.arange(m)).ravel()
                w = _magnus_weights(builder, starts, step / m) if m > 1 else weights[start:stop]
                maps = _expm((w @ basis).reshape(stop - start, m, 2, 8, 8))
                interval = _prefix_products(maps.swapaxes(0, 1))[-1]
                chain[start + 1:stop + 1] = _prefix_products(interval) @ chain[start]
        if last % block == 0:  # a frame starts at last: keep this one's end map
            ends.append(chain[last, 0, :, :4].copy())
            chain[last, 0, :, :4] = chain[0, 0, :, :4]
    ends = np.reshape(ends, (-1, 8, 4))
    # a block whose frame rows all come from quiet intervals shares the first such block's
    firsts = np.arange(0, n, block)
    steady_blocks = [quiet[first:first + block - 1].all() for first in firsts]
    shares = np.arange(len(firsts))
    if any(steady_blocks):
        shares[steady_blocks] = steady_blocks.index(True)
    half, y = np.empty((n, 4, 4), dtype=complex), np.empty((n, 2, 8), dtype=complex)
    half.real, half.imag = chain[:, 0, :4, :4], chain[:, 0, 4:, :4]
    y.real, y.imag = chain[..., 4], chain[..., 5]
    return half, ends[:, :4] + 1j * ends[:, 4:], y.reshape(n, 16) @ algebra.HERMITIAN.T, shares


@dataclass
class PropagatorGrid:
    """Uniform-grid propagator data consumed by the moment assembly.

    times is the uniform grid, cut into blocks of `block` rows.  flow[i] =
    U_A(t_i, t_b) is the sector half's flow from the first row t_b of row
    i's block, its frame, with condition at most 10 (_block_rows); the sector
    block of U(t_i, t_b) is blockdiag(U_A, conj U_A) over
    algebra.SECTOR_HALF0 and SECTOR_CONJ0.  ends[b] = U_A(t_b + block h, t_b)
    takes block b's frame to the next block's first row, and state_traj[i] =
    U(t_i, 0) X(0) is the 16-component expectation trajectory.  Block b's
    frame rows are the first rows of block shares[b]'s, bit for bit: the
    first block quiet over all its rows for each such block, b itself for
    the others.
    """

    times: np.ndarray
    step: float
    state_traj: np.ndarray  # (n_points, 16)
    flow: np.ndarray        # (n_points, 4, 4)
    ends: np.ndarray        # (n_blocks - 1, 4, 4)
    block: int
    shares: np.ndarray      # (n_blocks,)


def build_propagator_grid(atom: AtomConfig, pump: PulseSpec, control: PulseSpec,
                          t_end: float, n_intervals: int,
                          rtol: float = DEFAULT_RTOL) -> PropagatorGrid:
    """Solve the flow from 0 on a uniform grid, in one frame per block, and the state."""
    if not 0 < t_end < math.inf:
        raise ConfigError(f"t_end must be finite and > 0, got {t_end}")
    if n_intervals < 2:
        raise ConfigError(f"need at least 2 grid intervals, got {n_intervals}")

    times = np.linspace(0.0, float(t_end), int(n_intervals) + 1)
    step = float(times[1] - times[0])
    builder = DriftBuilder(atom, pump, control)
    block = _block_rows(builder, step)
    flow, ends, state_traj, shares = _magnus_chain(builder, state_vector(atom.rho0), times, rtol,
                                                   block)
    return PropagatorGrid(times=times, step=step, state_traj=state_traj, flow=flow, ends=ends,
                          block=block, shares=shares)
