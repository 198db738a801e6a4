import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from ramanpairs.algebra import (SECTOR0, SECTOR_CONJ0, SECTOR_HALF0, SOURCE_ROWS, idx, levels, op,
                               pair_table)
from ramanpairs.atom import AtomConfig, state_vector
from ramanpairs.config import apply_override
from ramanpairs import propagator
from ramanpairs.moments import (AK, AK_DAG, AQ, AQ_DAG, DAGGER_SLOT, _SOURCE, _STRUCTURES,
                                _moment_tables, _real_blocks, _slot_factors, compute_moments)
from ramanpairs.noise import diffusion_table
from ramanpairs.observables import duan
from ramanpairs.presets import preset
from ramanpairs.propagator import _BLOCK_ROWS, build_propagator_grid
from ramanpairs.pulses import PulseSpec, off

from conftest import gauss_pulse, rho_symmetric
from reference import block_moment_tables, kernel, moment_tables


def test_initial_pair_table_examples():
    """<X_m(0) X_n(0)> read from the 0-based pair table of the initial state."""
    rho_c = np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex)
    table = pair_table(state_vector(rho_c))
    assert table[idx("c", "a") - 1, idx("a", "c") - 1] == 1.0
    assert table[idx("c", "a") - 1, idx("b", "c") - 1] == 0.0
    table = pair_table(state_vector(rho_symmetric()))
    assert table[idx("d", "b") - 1, idx("b", "d") - 1] == 0.0


def test_slot_table():
    """Slot r is the ladder fed by SOURCE_ROWS[r]: a_q^dag (3), a_k (8), a_q (9), a_k^dag (14)."""
    assert SOURCE_ROWS == (3, 8, 9, 14)
    assert list(SECTOR_HALF0[_SOURCE] + 1) == [3, 8] and list(SECTOR_CONJ0[_SOURCE] + 1) == [9, 14]
    assert (AQ_DAG, AK, AQ, AK_DAG) == (0, 1, 2, 3)
    assert DAGGER_SLOT == (2, 3, 0, 1)
    atom = AtomConfig(g_k=0.3, g_q=0.7, n_th_k=0.2, n_th_q=0.05, rho0=rho_symmetric())
    g, c, field = _slot_factors(atom)
    assert np.array_equal(g, [0.7, 0.3, 0.7, 0.3])
    assert np.array_equal(c, [-0.7j, 0.3j, 0.7j, -0.3j])
    expected = np.zeros((4, 4))
    expected[AK_DAG, AK] = 0.2            # <a_k^dag a_k> = n_th_k
    expected[AK, AK_DAG] = 1.2            # <a_k a_k^dag> = n_th_k + 1
    expected[AQ_DAG, AQ] = 0.05
    expected[AQ, AQ_DAG] = 1.05
    assert np.array_equal(field, expected)
    # each structure is the commutator with the operator multiplying A_r(0) in the coupling:
    # row m of C_r expands [sigma_uv, E_m] over the unit matrices E_n
    basis = np.stack([op(*levels(m)) for m in range(1, 17)])
    for slot, (u, v) in ((AQ_DAG, "ca"), (AK, "db"), (AQ, "ac"), (AK_DAG, "bd")):
        sigma = op(u, v)
        for m, e in enumerate(basis):
            expanded = np.tensordot(_STRUCTURES[slot][m], basis, axes=1)
            assert np.array_equal(expanded, sigma @ e - e @ sigma)


def _pipeline(atom, pump, control, t_end=1.0, n=150):
    grid = build_propagator_grid(atom, pump, control, t_end, n)
    diffusion = diffusion_table(atom)
    return grid, diffusion, compute_moments(atom, grid, diffusion)


def test_decoupled_modes_keep_initial_values():
    atom = AtomConfig(g_k=0.0, g_q=0.0, n_th_k=0.3, n_th_q=0.7, rho0=rho_symmetric())
    pump = PulseSpec(shape="cw", omega_peak=5.0)
    _, _, ms = _pipeline(atom, pump, pump)
    assert np.max(np.abs(ms.n_k.total - 0.3)) < 1e-14
    assert np.max(np.abs(ms.n_q.total - 0.7)) < 1e-14
    assert np.max(np.abs(ms.pair.total)) < 1e-14
    # the thermal law of uncoupled modes, D = 2 + 2 (n_th_k + n_th_q), at every grid point
    for d in duan(ms):
        assert np.max(np.abs(d - (2.0 + 2.0 * (0.3 + 0.7)))) <= 1e-15


def test_initial_time_values_are_thermal():
    atom = AtomConfig(n_th_k=0.2, n_th_q=0.05, rho0=rho_symmetric())
    pump = gauss_pulse(omega=8.0, center=0.4, width=0.1)
    _, _, ms = _pipeline(atom, pump, pump)
    assert ms.n_k.total[0] == pytest.approx(0.2, abs=1e-12)
    assert ms.n_q.total[0] == pytest.approx(0.05, abs=1e-12)
    assert abs(ms.pair.total[0]) < 1e-12


def test_coupling_scaling_is_exactly_quadratic():
    pump = gauss_pulse(omega=9.0, center=0.4, width=0.12, detuning=-1.0)
    control = PulseSpec(shape="cw", omega_peak=4.0, detuning=0.5, phase0=0.3)
    rho = rho_symmetric()
    rho[1, 2] = 0.25  # ground coherence links the two Raman branches
    rho[2, 1] = 0.25
    runs = {}
    for lam, g in (("g", 0.05), ("2g", 0.10)):
        atom = AtomConfig(g_k=g, g_q=g, rho0=rho)
        runs[lam] = _pipeline(atom, pump, control)[2]
    runs["2g_k"] = _pipeline(AtomConfig(g_k=0.10, g_q=0.05, rho0=rho), pump, control)[2]
    # every part, back-action included, is bilinear in the two couplings
    for attr, factor, factor_k in (("pair", 4.0, 2.0), ("n_k", 4.0, 4.0), ("n_q", 4.0, 1.0)):
        small = getattr(runs["g"], attr).total
        scale = np.abs(small).max()
        assert scale > 0.0, attr
        for lam, f in (("2g", factor), ("2g_k", factor_k)):
            big = getattr(runs[lam], attr).total
            assert np.max(np.abs(big - f * small)) < 1e-9 * scale, (attr, lam)


def test_hermiticity_pairing():
    rho = rho_symmetric()
    rho[1, 3] = 0.1 + 0.04j   # b-d coherence feeds the Stokes rows
    rho[3, 1] = np.conj(rho[1, 3])
    rho[1, 1] = 0.45
    rho[3, 3] = 0.05
    atom = AtomConfig(g_k=0.1, g_q=0.06, n_th_k=0.2, n_th_q=0.05, rho0=rho)
    pump = gauss_pulse(omega=6.0, center=0.4, width=0.15, detuning=-1.0, phase0=0.4)
    grid, diffusion, ms = _pipeline(atom, pump, PulseSpec(shape="cw", omega_peak=3.0))
    boundary, noise, backaction, field, _ = _moment_tables(atom, grid, diffusion)
    total = boundary + noise + backaction + field
    assert np.max(np.abs(total[:, AQ, AK])) > 1e-6
    for r in range(4):
        for u in range(4):
            # <A_r A_u> = conj <A_u^dag A_r^dag>
            mirror = np.conj(total[:, DAGGER_SLOT[u], DAGGER_SLOT[r]])
            assert np.max(np.abs(total[:, r, u] - mirror)) < 1e-10, (r, u)
    assert np.array_equal(ms.pair.total, total[:, AQ, AK])


def _commutator_gap(label, intervals=None):
    """max_t |<a_q a_k> - <a_k a_q>| of a preset's pipeline, over the pair's maximum."""
    cfg = preset(label).scenarios[0]
    cfg = replace(cfg, grid_points=intervals or cfg.grid_points)
    grid = build_propagator_grid(cfg.atom, cfg.pump, cfg.control, cfg.t_end, cfg.grid_points,
                                 rtol=cfg.rtol)
    total = sum(_moment_tables(cfg.atom, grid, diffusion_table(cfg.atom))[:4])
    return np.max(np.abs(total[:, AQ, AK] - total[:, AK, AQ])) / np.max(np.abs(total[:, AQ, AK]))


@pytest.mark.parametrize("label", ["fig2a", "fig2b"])
def test_modes_commute_to_rounding_under_identical_drives(label):
    """a_k and a_q commute; with pump and control identical the two orderings agree to rounding."""
    assert _commutator_gap(label) < 1e-12


@pytest.mark.parametrize("label", ["fig4c", "fig7d"])
def test_commutator_gap_is_the_second_order_quadrature_error(label):
    """With distinct drives <a_q a_k> - <a_k a_q> is the kernel quadrature's error.

    It falls about 4x per halving of the step, the trapezoid rule's h^2; a
    fourth-order rule would read about 16.
    """
    assert 3.5 < _commutator_gap(label, 200) / _commutator_gap(label, 400) < 4.5


def test_split_additivity_is_bitwise():
    atom = AtomConfig(n_th_k=0.1, rho0=rho_symmetric())
    pump = gauss_pulse(omega=7.0, center=0.3, width=0.1)
    _, _, ms = _pipeline(atom, pump, pump, t_end=0.8, n=100)
    split = ms.n_k
    reference = split.boundary + split.noise + split.backaction + split.initial
    assert np.array_equal(split.total, reference)


def _random_state_atom(rates, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return AtomConfig(*rates, rho0=rho / np.trace(rho).real)


def _thermal_atom(rates, n_th_k, n_th_q):
    return AtomConfig(*rates, n_th_k=n_th_k, n_th_q=n_th_q, rho0=rho_symmetric())


RATES = st.tuples(*[st.floats(min_value=0.0, max_value=3.0)] * 5)
N_TH = st.floats(min_value=0.0, max_value=0.5)
ATOM = st.one_of(st.builds(_random_state_atom, RATES, st.integers(0, 2**32 - 1)),
                 st.builds(_thermal_atom, RATES, N_TH, N_TH))
DETUNING = st.floats(min_value=-10.0, max_value=10.0)
CHIRP = st.floats(min_value=-60.0, max_value=60.0)
DRIVE = st.one_of(
    st.builds(PulseSpec, shape=st.just("gaussian"), omega_peak=st.floats(0.0, 15.0),
              center=st.floats(0.2, 1.5), width=st.floats(0.05, 0.5), detuning=DETUNING,
              chirp=CHIRP),
    st.builds(PulseSpec, shape=st.just("cw"), omega_peak=st.floats(0.0, 10.0),
              detuning=DETUNING, chirp=CHIRP))


# no explain phase, as the other property tests of this module
@settings(max_examples=30, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
@given(rates=RATES, n_th=st.tuples(N_TH, N_TH), seed=st.integers(0, 2**32 - 1))
def test_structures_and_field_table_keep_to_their_halves(rates, n_th, seed):
    """C_p X lies on slot p's own half, fed by the complement alone; F[r, u] = 0 unless u = r^dag.

    Exact zeros, for any rates, thermal occupations and Hermitian rho0.  The
    slots AQ_DAG, AK have their source rows on SECTOR_HALF0 and AQ, AK_DAG
    on SECTOR_CONJ0, so the back-action T[u, p] lives on one half and the
    assembly gathers it at DAGGER_SLOT instead of multiplying by F.
    """
    atom = _random_state_atom(rates, seed)
    atom = AtomConfig(*rates, n_th_k=n_th[0], n_th_q=n_th[1], rho0=atom.rho0)
    x = state_vector(atom.rho0)
    halves = [SECTOR_HALF0 if row - 1 in SECTOR_HALF0 else SECTOR_CONJ0 for row in SOURCE_ROWS]
    assert [half is SECTOR_HALF0 for half in halves] == [True, True, False, False]
    for structure, own in zip(_STRUCTURES, halves):
        other = SECTOR_CONJ0 if own is SECTOR_HALF0 else SECTOR_HALF0
        assert (structure[other] == 0).all()
        assert (structure[np.ix_(own, SECTOR0)] == 0).all()
        assert ((structure @ x)[other] == 0).all()
    field = _slot_factors(atom)[2]
    off_dagger = np.ones((4, 4), dtype=bool)
    off_dagger[range(4), DAGGER_SLOT] = False
    assert (field[off_dagger] == 0).all()


# no explain phase: on a failing example it runs for minutes at hundreds of MB before reporting
@settings(max_examples=15, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
@given(atom=ATOM, pump=DRIVE, control=DRIVE, t_end=st.floats(0.5, 2.0),
       n=st.sampled_from([60, 120]))
@example(atom=AtomConfig(rho0=rho_symmetric()), pump=gauss_pulse(omega=10.0, center=0.5,
         width=1.0 / 15.0), control=gauss_pulse(omega=10.0, center=0.5, width=1.0 / 15.0),
         t_end=2.0, n=300)
@example(atom=_random_state_atom((0.0,) * 5, 1),  # no decay: the noise is 0
         pump=PulseSpec(shape="cw", omega_peak=4.0, detuning=3.0),
         control=PulseSpec(shape="cw", omega_peak=2.0, detuning=0.55), t_end=1.0, n=60)
def test_photon_numbers_real_nonnegative(atom, pump, control, t_end, n):
    """n_k, n_q and their boundary and noise parts are real and >= 0 up to rounding of their maxima.

    The conversion and squeezing moments <a_q a_k^dag>, <a_k^2> and <a_q^2>
    are exact zeros in every table: they change the charge of SECTOR0 by 2,
    and no atomic expectation carries that charge.  MomentSeries leaves them out.

    The scale of each bound is floored at 1e-10, so no bound is tighter than
    1e-20: a series whose maximum is below that, such as the tail of a weak
    pulse or the noise of a tiny dephasing rate, carries residues of the
    larger terms it is summed from (up to 6e-22 seen) and its sign means
    nothing.  Without decay and dephasing the noise is exactly 0, because
    Lambda comes from the dissipators alone; a Lambda that keeps the detuning
    terms leaves a 2e-21 residue in the second example.
    """
    grid, diffusion, ms = _pipeline(atom, pump, control, t_end=t_end, n=n)
    boundary, noise, backaction, field, _ = _moment_tables(atom, grid, diffusion)
    for table in (boundary, noise, backaction, field[None]):
        for r, u in ((AQ, AK_DAG), (AK, AK), (AQ, AQ)):
            assert not table[:, r, u].any(), (r, u)
    for split in (ms.n_k, ms.n_q):
        for part in (split.total, split.boundary, split.noise):
            scale = max(np.max(np.abs(part)), 1e-10)
            assert np.max(np.abs(part.imag)) <= 1e-10 * scale
            assert part.real.min() >= -1e-10 * scale
        if not any(rate for *_, rate in atom.decay_channels()) and atom.gamma_bc == 0:
            assert not split.noise.any()


# slot of the mirror image of slots AQ_DAG, AK, AQ, AK_DAG: a_q^dag <-> a_k^dag, a_k <-> a_q
MIRROR_SLOT = [AK_DAG, AQ, AK, AQ_DAG]
COUPLING = st.floats(min_value=0.0, max_value=0.3)


# no explain phase, as in the Einstein-relation property test of test_noise.py
@settings(max_examples=10, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
@given(rates=RATES, g=st.tuples(COUPLING, COUPLING), n_th=st.tuples(N_TH, N_TH),
       seed=st.integers(0, 2**32 - 1), pump=DRIVE, control=DRIVE, t_end=st.floats(0.5, 1.5))
@example(rates=(0.0, 0.0, 3.0, 3.0, 1.0), g=(0.25, 0.0), n_th=(0.0, 0.0), seed=0,
         pump=gauss_pulse(omega=0.0, center=1.0, width=0.5),
         control=gauss_pulse(omega=1.0, center=1.0, width=0.5), t_end=1.5)
def test_mirror_relabelling_permutes_the_moment_tables(rates, g, n_th, seed, pump, control, t_end):
    """a<->d, b<->c with pump<->control, k<->q: every (n, 4, 4) table permutes its slots.

    gamma_ab<->gamma_dc, gamma_ac<->gamma_db, g_k<->g_q, n_th_k<->n_th_q, and
    rho0 is relabelled the same way.  The mirror takes the source rows
    |a><c|, |b><d| onto |d><b|, |c><a|, so slot r goes to MIRROR_SLOT[r].
    The example's flow from 0 has condition 81 at t_end, and its noise table
    missed the gate (1.28e-12) when the kernels inverted that flow; in frames
    of 30 rows it is 1.4e-14.
    """
    ab, ac, db, dc, bc = rates
    rho = _random_state_atom(rates, seed).rho0
    atom = AtomConfig(ab, ac, db, dc, bc, g_k=g[0], g_q=g[1], n_th_k=n_th[0], n_th_q=n_th[1],
                      rho0=rho)
    mirrored = AtomConfig(dc, db, ac, ab, bc, g_k=g[1], g_q=g[0], n_th_k=n_th[1],
                          n_th_q=n_th[0], rho0=rho[::-1, ::-1].copy())
    grid, diffusion, _ = _pipeline(atom, pump, control, t_end=t_end, n=60)
    tables = _moment_tables(atom, grid, diffusion)[:3]
    grid, diffusion, _ = _pipeline(mirrored, control, pump, t_end=t_end, n=60)
    mirror_tables = _moment_tables(mirrored, grid, diffusion)[:3]
    for table, mirror in zip(tables, mirror_tables):  # boundary, noise, backaction
        permuted = table[:, MIRROR_SLOT][:, :, MIRROR_SLOT]
        assert np.max(np.abs(mirror - permuted)) <= 1e-12 * np.max(np.abs(table))


def test_single_moment_zero_for_diagonal_initial_state():
    atom = AtomConfig(rho0=rho_symmetric())
    pump = gauss_pulse(omega=8.0, center=0.4, width=0.15)
    grid, _, ms = _pipeline(atom, pump, pump)
    assert np.max(np.abs(ms.mean_k)) < 1e-14
    assert np.max(np.abs(ms.mean_q)) < 1e-14


def test_single_moment_matches_decaying_coherence_integral():
    """Undriven b-d coherence: <a_k> = i g rho_db(0) (e^{lambda t} - 1)/lambda."""
    rho = np.diag([0.0, 0.5, 0.0, 0.5]).astype(complex)
    rho[1, 3] = 0.01
    rho[3, 1] = 0.01
    atom = AtomConfig(gamma_ab=0.6, gamma_ac=0.9, gamma_db=0.8, gamma_dc=1.2, rho0=rho)
    pump = PulseSpec(shape="cw", omega_peak=0.0, detuning=-3.0)
    grid, _, ms = _pipeline(atom, pump, off(), t_end=1.5, n=400)
    mean_k = ms.mean_k
    # sigma_bd rotates at delta_b - delta_d = +Delta_p in this frame
    lam = -0.5 * (atom.gamma_db + atom.gamma_dc) + 1j * pump.detuning
    expected = 1j * atom.g_k * 0.01 * (np.exp(lam * grid.times) - 1.0) / lam
    assert np.max(np.abs(mean_k - expected)) < 1e-6


@pytest.mark.parametrize("part", ["noise", "backaction"])
def test_noise_part_equals_direct_double_loop(part):
    """Both kernel-sum tables equal the explicit trapezoid over s_j of the 16-column kernels."""
    atom = AtomConfig(n_th_k=0.2, n_th_q=0.1, rho0=rho_symmetric())
    pump = gauss_pulse(omega=6.0, center=0.3, width=0.12)
    grid, diffusion, _ = _pipeline(atom, pump, pump, t_end=0.6, n=80)
    _, noise, backaction, _, _ = _moment_tables(atom, grid, diffusion)
    g, c, field = _slot_factors(atom)
    h = grid.step
    for i in (25, 80):
        acc = np.zeros((4, 4), dtype=complex)
        for j in range(i + 1):
            k = kernel(grid, j)[i]
            weight = 0.5 if j in (0, i) else 1.0
            if part == "noise":
                acc += weight * (k @ np.tensordot(grid.state_traj[j], diffusion.einstein, 1) @ k.T)
            else:  # acc[u, p] sums K_u(t_i, s_j) . C_p X(s_j)
                acc += weight * (k @ (_STRUCTURES @ grid.state_traj[j]).T)
        if part == "noise":
            expected, got = np.outer(c, c) * h * acc, noise[i]
        else:
            t = h * acc * (-1j * g)
            expected = c * (field @ t.T) + c[:, None] * (t @ field)
            got = backaction[i]
        assert np.max(np.abs(expected)) > 0.0
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_backaction_vanishes_for_photon_numbers_in_vacuum():
    atom = AtomConfig(rho0=rho_symmetric())
    pump = gauss_pulse(omega=9.0, center=0.4, width=0.1)
    _, _, ms = _pipeline(atom, pump, pump)
    assert np.max(np.abs(ms.n_k.backaction)) < 1e-16
    assert np.max(np.abs(ms.n_q.backaction)) < 1e-16
    assert np.max(np.abs(ms.pair.backaction)) > 0.0  # the pair term is live


def _coherent_thermal_atom():
    """Thermal modes (both back-action terms live) and a b-d coherence (live means)."""
    rho = np.diag([0.0, 0.45, 0.5, 0.05]).astype(complex)
    rho[1, 3] = rho[3, 1] = 0.1
    return AtomConfig(gamma_bc=0.3, n_th_k=0.2, n_th_q=0.1, rho0=rho)


_CHIRPED = gauss_pulse(omega=8.0, center=0.4, width=0.12, chirp=40.0)
_CW_PUMP = PulseSpec(shape="cw", omega_peak=5.0, detuning=-1.5)
_CW_CONTROL = PulseSpec(shape="cw", omega_peak=3.0)


@pytest.mark.parametrize("n", [2, _BLOCK_ROWS - 2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                               2 * _BLOCK_ROWS, 1600])
@pytest.mark.parametrize("pump, control", [(_CHIRPED, _CHIRPED), (_CW_PUMP, _CW_CONTROL)],
                         ids=["chirped", "cw"])
def test_streamed_tables_match_the_whole_grid_assembly(pump, control, n):
    """Row blocks across every block-edge case give the whole-grid kernel_sum/kernel_form tables."""
    atom = _coherent_thermal_atom()
    grid = build_propagator_grid(atom, pump, control, 1.0, n)
    diffusion = diffusion_table(atom)
    got = _moment_tables(atom, grid, diffusion)
    expected = moment_tables(atom, grid, diffusion)
    for name, table, ref in zip(("boundary", "noise", "backaction", "field", "means"),
                                got, expected):
        scale = np.max(np.abs(ref))
        assert scale > 0.0, name
        assert np.max(np.abs(table - ref)) <= 1e-13 * scale, name


@pytest.mark.parametrize("name", ["fig2b", "fig4c", "fig7d"])
def test_short_blocks_give_the_same_tables(monkeypatch, name):
    """Frames of 7 rows rather than 128 move every table by at most 1e-12 of its maximum."""
    cfg = preset(name).scenarios[0]

    def tables():
        grid = build_propagator_grid(cfg.atom, cfg.pump, cfg.control, cfg.t_end, cfg.grid_points,
                                     rtol=cfg.rtol)
        return grid.block, _moment_tables(cfg.atom, grid, diffusion_table(cfg.atom))

    block, want = tables()
    monkeypatch.setattr(propagator, "_BLOCK_ROWS", 7)
    short, got = tables()
    assert (block, short) == (_BLOCK_ROWS, 7)
    for name, table, ref in zip(("boundary", "noise", "backaction", "field", "means"), got, want):
        assert np.max(np.abs(table - ref)) <= 1e-12 * np.max(np.abs(ref)), name


@pytest.mark.parametrize("label, intervals", [
    ("fig2a", None), ("fig7d", None), ("fig2b", None), ("fig4c", None), ("fig7b", None),
    ("fig6b", None), ("fig2a", 12 * _BLOCK_ROWS), ("fig2b", 12 * _BLOCK_ROWS)])
def test_shared_frames_give_the_per_block_tables_bit_for_bit(label, intervals):
    """Blocks that share a frame read its factors, and every table keeps its bits.

    The reference inverts the whole grid and integrates every block's frame
    itself.  fig6b at Rabi frequency 50 shares no frame; a grid of a whole
    number of blocks ends in a block of one row.
    """
    chosen = preset(label)
    cfg = (chosen.scenarios[0] if chosen.scenarios
           else apply_override(chosen.scan, "both.omega_peak", 50.0))
    cfg = replace(cfg, grid_points=intervals or cfg.grid_points)
    grid = build_propagator_grid(cfg.atom, cfg.pump, cfg.control, cfg.t_end, cfg.grid_points,
                                 rtol=cfg.rtol)
    diffusion = diffusion_table(cfg.atom)
    assert (grid.shares != np.arange(len(grid.shares))).any() == (label != "fig6b")
    assert intervals is None or len(grid.times) % grid.block == 1
    for got, want in zip(_moment_tables(cfg.atom, grid, diffusion),
                         block_moment_tables(cfg.atom, grid, diffusion)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_real_block_products_match_the_complex_ones():
    """X.view(float) @ real(B) is (X @ B).view(float) to rounding, on the assembly's views.

    X is a column slice of a block of fed rows reshaped to (m, 8, 4), as the
    assembly passes it, or a last-axis slice of stacked sums; B a transposed
    stack, as S^T and V^T are, so real(B) is written from strided entries.
    real(V^T) real(S^T) is real((S V)^T), the factor that completes
    real(F^T), and [S^T; -1] written in two parts, the -1 broadcast over the
    stack, multiplies the whole sums as [S_i, -1] does.
    """
    rng = np.random.default_rng(34)
    m = 5

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def real(b):
        *lead, p, q = b.shape
        out = np.empty((*lead, p, 2, q), dtype=complex)
        _real_blocks(b, out)
        return out.view(float).reshape(*lead, 2 * p, 2 * q)

    def assert_rounding(got, want, bound):
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 32 * np.finfo(float).eps * bound)

    fed, sums = draw(m, 48), draw(m, 16, 6)
    v_t, s_t = draw(m, 4, 4).transpose(0, 2, 1), draw(m, 2, 4).transpose(0, 2, 1)
    for x in (fed[:, :32].reshape(m, 8, 4), sums[..., :4]):
        assert not x.flags.c_contiguous
        for b in (v_t, s_t):
            got = (x.view(float) @ real(b)).view(complex)
            assert_rounding(got, x @ b, np.abs(x) @ np.abs(b))
    product = real(v_t) @ real(s_t)
    want = real(v_t @ s_t)
    assert_rounding(product, want, np.abs(want).max(axis=(1, 2), keepdims=True))
    frame = np.empty((m, 6, 2, 2), dtype=complex)
    _real_blocks(s_t, frame[:, :4])
    _real_blocks(-np.eye(2), frame[:, 4:])
    got = (sums.view(float) @ frame.view(float).reshape(m, 12, 4)).view(complex)
    want = sums[..., :4] @ s_t - sums[..., 4:]
    assert_rounding(got, want, np.abs(sums[..., :4]) @ np.abs(s_t) + np.abs(sums[..., 4:]))


def test_moment_assembly_working_memory():
    """The assembly holds its 1.3 MB of outputs and one block of rows, no full-grid temporary."""
    cfg = preset("fig2a").scenarios[0]
    assert cfg.grid_points == 1600
    grid = build_propagator_grid(cfg.atom, cfg.pump, cfg.control, cfg.t_end, cfg.grid_points)
    diffusion = diffusion_table(cfg.atom)
    tracemalloc.start()
    try:
        _moment_tables(cfg.atom, grid, diffusion)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6
