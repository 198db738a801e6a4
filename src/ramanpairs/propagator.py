"""Two-time propagator of the drift system and the kernel quadrature on its grid.

The field-operator solutions need K_r,m(t, s) = int_s^t U_{r,m}(tau, s) dtau
for the four source rows r in algebra.SOURCE_ROWS and every grid pair
t_i >= s_j.  M(t) never couples the eight coherences of algebra.SECTOR0 to
the other eight operators (see its docstring for the charge argument), and
on the sector it is blockdiag(A, conj A) over algebra.SECTOR_HALF0 and
SECTOR_CONJ0.  The source rows ac and bd lie in the half and ca, db are
their conjugates, so everything below stores only the 4x4 flow U_A of A.
Materializing the two-time store scales as O(N^2); instead the build
exploits the exact flow identity U_A(t, s) = U_A(t, 0) V(s) with
V(s) = U_A(s, 0)^{-1}.  The kernel rows ac and bd then factor as

    K_h(t_i, s_j) = (S_h(t_i) - S_h(s_j)) V(s_j),

with S_h the cumulative trapezoid of those rows of U_A(., 0), and the rows
ca and db are conj(K_h) on SECTOR_CONJ0.  Every s-integral is then a prefix
sum over s_j <= t_i of these factors, O(N) in all: the moment assembly takes
them in row blocks, and _cumulative_trapezoid, the one trapezoid rule,
carries each running sum from block to block.  One flow per scenario feeds
everything, and the expectation trajectory is U(t, 0) X(0); it also carries
the noise, since the moment assembly forms the diffusion blocks as that
trajectory times the atom's constant Einstein map (noise.diffusion_table).

Every drive gets the flow from fourth-order Magnus step maps
(_magnus_chain): each interval's map is the exponential of
Omega = (h/2)(M_1 + M_2) + (sqrt(3)/12) h^2 [M_2, M_1] at its two Gauss
nodes, substepped so that the flow meets rtol (_substeps), and the grid
values are the running products of those maps.  A constant M (both drives
cw and unchirped) has one map, exp(M h) exactly, and the grid values are its
powers.  Only U_A is chained, in real arithmetic (algebra.real_form), with
the complement carrying X(0) alone; V is the batched 4x4 inverse of U_A, and
the state follows from U_A, its conjugate and the complement.  Every
exponential comes from _expm, a NumPy scaling-and-squaring Taylor sum, so no
scenario run loads a scipy module.

The inverse grows like exp(decay * t), so long windows lose the kernels to
cancellation without any solver complaint.  The build therefore checks
the condition number of U_A(t_end, 0), which has the singular values of the
sector block the kernels invert, and raises IntegrationError past
MAX_CONDITION.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra
from .atom import GENERATOR_PAIRS, AtomConfig, DriftBuilder, state_vector
from .atom import evolve_state  # noqa: F401  (perfbench/tracing.py wraps propagator.evolve_state)
from .errors import ConfigError, IntegrationError
from .errors import solve_ivp  # noqa: F401  (perfbench/tracing.py wraps propagator.solve_ivp)
from .pulses import PulseSpec

# Largest condition number of the sector block U_S(t_end, 0), the block the
# kernels invert, that the factorization trusts; its half U_A(t_end, 0) has the
# same.  Preset scenarios stay below 1e3.  fig2b stretched to t_end 10 reaches 1.1e8 and still meets the Fock
# oracle to 1.5e-3 in n_k; at t_end 20 it reaches 5.5e16 and n_k comes out
# tens of times off.  The block reads 6-7x below the full 16x16 flow, which
# passes 1e12 at t_end 13.6; the limit 1e11, passed at 13.4 (1.9e11 at 13.7,
# 3.4e11 at 14, 2.5e12 at 15), admits no window a 1e12 guard on the full
# flow would refuse.
MAX_CONDITION = 1e11

# Default relative tolerance of the Magnus flow, for the API and for [run] rtol;
# every time-dependent preset point then takes one substep per interval but
# fig3b's (2-4)
DEFAULT_RTOL = 1e-8

# positions in SECTOR_HALF0 of the source rows ac and bd; the other two, ca and
# db, are their conjugates and sit at the same positions of SECTOR_CONJ0
_SOURCE = [list(algebra.SECTOR_HALF0).index(row - 1) for row in algebra.SOURCE_ROWS[:2]]
_ROUNDOFF = 2.0 ** -53
# Gauss-Legendre nodes of a step, as fractions of it, and the weight of the
# commutator term of the fourth-order Magnus generator (Blanes, Casas, Oteo &
# Ros, Phys. Rep. 470, 151 (2009))
_GAUSS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_COMMUTATOR = math.sqrt(3.0) / 12.0
# Magnus substeps per block of the grid pass: a (64, 2, 8, 8) float block is 64 KiB
_BLOCK_STEPS = 64


def _cumulative_trapezoid(v: np.ndarray, step: float, carry: list | None = None) -> np.ndarray:
    """Trapezoid integral of v over the grid axis from t_0 to every row of v.

    (2 sum_{j <= i} v_j - v_0 - v_i) h / 2, formed in place on the cumsum.
    Without `carry`, v is the whole grid.  A grid streamed in consecutive row
    blocks passes one list as `carry`, empty before the first block; each
    block reads from it and leaves in it [sum of v through the block's last
    row, v_0].  The running sum enters the block's first row ahead of the
    cumsum, so the additions associate as in one cumsum over the whole grid
    and blocks of any size give the same bits.  The rule reads no row beyond
    the block; a wider one would need a halo row at each block edge.
    """
    if carry:
        out = v.copy()
        out[0] += carry[0]
        np.cumsum(out, axis=0, out=out)
        first = carry[1]
    else:
        out = np.cumsum(v, axis=0)
        first = v[0].copy()
    if carry is not None:
        carry[:] = out[-1].copy(), first
    out *= 2.0
    out -= v
    out -= first
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


def _substeps(weights: np.ndarray, generators: np.ndarray, rtol: float) -> int:
    """Magnus substeps per grid interval, m = ceil((0.1 X / rtol)^(1/4)).

    X bounds max_i |Omega_i|_1 |C_i|_1 over the intervals with Magnus weights
    `weights` (n, 15), Omega_i the one-step generator of interval i as a 16x16
    matrix on the operators and C_i its commutator term.  The 1-norm of either
    is the larger of those of its sector half A (the conjugate half has the
    same) and its complement block, and by the triangle inequality every
    column sum of |sum_k w_k G_k| is at most sum_k |w_k| times that column sum
    of |G_k|: one (n, 15) product per factor.  The step's local error goes as
    |Omega| |C| ~ h^5; over twenty drives the error of the whole flow stayed
    below 0.07 max_i |Omega_i| |C_i|, and m substeps divide it by about m^4.
    """
    # the column sums of |G_k| on the sector half and on the complement block, (15, 12)
    columns = np.concatenate(
        (np.abs(generators[:, algebra.SECTOR_HALF0[:, None], algebra.SECTOR_HALF0]).sum(axis=1),
         np.abs(generators[:, algebra.COMPLEMENT0[:, None], algebra.COMPLEMENT0]).sum(axis=1)),
        axis=1)
    magnitude = np.abs(weights)
    bound = np.max((magnitude @ columns).max(axis=1) * (magnitude[:, 5:] @ columns[5:]).max(axis=1))
    return max(1, math.ceil((0.1 * float(bound) / rtol) ** 0.25))


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


def _magnus_chain(builder: DriftBuilder, x0: np.ndarray, times: np.ndarray,
                  rtol: float) -> tuple[np.ndarray, np.ndarray]:
    """U_A(t_i, t_0), (n, 4, 4), and the complement y[8:] of HERMITIAN^-1 U(t_i, t_0) x0, (n, 8).

    Each grid interval gets m equal substeps (_substeps), each map the
    exponential of its Magnus generator in the real coordinates of
    algebra.HERMITIAN, where it is block diagonal: R(A) on the sector, an
    8x8 block on the complement.  A block of about _BLOCK_STEPS substeps
    takes one batched _expm; the m maps of an interval multiply into one, and
    the block's prefix products carry the chain on from its first point.  A
    constant drive has one exact map, exp(M h), and the chain is its _orbit.
    The chain holds two things per grid point: the first four columns of the
    sector flow, [Re U_A; Im U_A], and the complement of y as its real and
    imaginary columns.  No per-substep table outlives its block.
    """
    n = len(times)
    step = (times[-1] - times[0]) / (n - 1)
    real = algebra.real_form(builder.generators)
    basis = np.stack((real[:, :8, :8], real[:, 8:, 8:]), axis=1).reshape(15, 128)
    # per grid point: [Re U_A; Im U_A] and [Re y_C, Im y_C, 0, 0]
    chain = np.zeros((n, 2, 8, 4))
    chain[0, 0, :4] = np.eye(4)
    y0 = (algebra.HERMITIAN_INV @ x0)[8:]
    chain[0, 1, :, 0], chain[0, 1, :, 1] = y0.real, y0.imag
    if builder.constant:  # every step map is the same exact exp(M h): no commutator term
        step_map = _expm((_magnus_weights(builder, times[:1], step) @ basis).reshape(2, 8, 8))
        _orbit(step_map, chain)
    else:
        weights = _magnus_weights(builder, times[:-1], step)
        m = _substeps(weights, builder.generators, rtol)
        per_block = max(1, _BLOCK_STEPS // m)
        for start in range(0, n - 1, per_block):
            stop = min(start + per_block, n - 1)
            if m > 1:
                starts = times[start:stop, None] + (step / m) * np.arange(m)
                w = _magnus_weights(builder, starts.ravel(), step / m)
            else:
                w = weights[start:stop]
            maps = _expm((w @ basis).reshape(stop - start, m, 2, 8, 8))
            interval = _prefix_products(maps.swapaxes(0, 1))[-1]
            chain[start + 1:stop + 1] = _prefix_products(interval) @ chain[start]
    half, rest = np.empty((n, 4, 4), dtype=complex), np.empty((n, 8), dtype=complex)
    half.real, half.imag = chain[:, 0, :4], chain[:, 0, 4:]
    rest.real, rest.imag = chain[:, 1, :, 0], chain[:, 1, :, 1]
    return half, rest


def _solve_flow(builder: DriftBuilder, x0: np.ndarray, times: np.ndarray,
                rtol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U_A(t_i, times[0]), the flow on algebra.SECTOR_HALF0, its inverse, and the state.

    U_A and the complement come from the Magnus chain (exact for a constant
    M, substepped to rtol otherwise); the inverse is the batched 4x4 inverse
    of U_A, and the state is U_A x0 on SECTOR_HALF0, conj(U_A) x0 on
    SECTOR_CONJ0 and the chained complement.
    """
    half, rest = _magnus_chain(builder, x0, times, rtol)
    state = np.empty((len(times), 16), dtype=complex)
    state[:, algebra.SECTOR_HALF0] = half @ x0[algebra.SECTOR_HALF0]
    state[:, algebra.SECTOR_CONJ0] = (half @ x0[algebra.SECTOR_CONJ0].conj()).conj()
    state[:, algebra.COMPLEMENT0] = rest @ algebra.HERMITIAN[algebra.COMPLEMENT0, 8:].T
    return half, np.linalg.inv(half), state


@dataclass
class PropagatorGrid:
    """Uniform-grid propagator data consumed by the moment assembly.

    times is the uniform grid.  Everything derives from the one solved flow
    U(t_i, 0), whose sector block is blockdiag(U_A, conj U_A) over
    algebra.SECTOR_HALF0 and SECTOR_CONJ0.  v_inverse[j] is U_A(s_j, 0)^-1,
    one batched 4x4 inversion, state_traj[i] = U(t_i, 0) X(0) the
    16-component expectation trajectory, and source_cumint[i, r] the
    cumulative trapezoid S_h of the source rows ac (r = 0) and bd (r = 1) of
    U_A(., 0); ca and db have conj(S_h).
    """

    times: np.ndarray
    step: float
    state_traj: np.ndarray   # (n_points, 16)
    v_inverse: np.ndarray    # (n_points, 4, 4)
    source_cumint: np.ndarray  # (n_points, 2, 4)


def build_propagator_grid(atom: AtomConfig, pump: PulseSpec, control: PulseSpec,
                          t_end: float, n_intervals: int,
                          rtol: float = DEFAULT_RTOL) -> PropagatorGrid:
    """Solve the flow from 0 on a uniform grid and derive the inverse, state and row integrals."""
    if t_end <= 0:
        raise ConfigError(f"t_end must be > 0, got {t_end}")
    if n_intervals < 2:
        raise ConfigError(f"need at least 2 grid intervals, got {n_intervals}")

    times = np.linspace(0.0, float(t_end), int(n_intervals) + 1)
    half, v_inverse, state_traj = _solve_flow(DriftBuilder(atom, pump, control),
                                              state_vector(atom.rho0), times, rtol)
    # blockdiag(U_A, conj U_A) has the singular values of U_A, each twice
    condition = np.linalg.cond(half[-1])
    if condition > MAX_CONDITION:
        raise IntegrationError(
            f"propagator U(t_end, 0) has condition number {condition:.3g} on its "
            f"sector block (limit {MAX_CONDITION:.0e}); its inverse cannot carry the "
            f"kernels over this window, shorten t_end", time=float(times[-1]))
    step = float(times[1] - times[0])
    return PropagatorGrid(times=times, step=step, state_traj=state_traj, v_inverse=v_inverse,
                          source_cumint=_cumulative_trapezoid(half[:, _SOURCE, :], step))
