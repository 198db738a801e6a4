import numpy as np
import pytest

from ramanpairs.algebra import SOURCE_ROWS, idx, levels, op
from ramanpairs.atom import AtomConfig
from ramanpairs.errors import ConfigError
from ramanpairs.moments import (AK, AK_DAG, AQ, AQ_DAG, DAGGER_SLOT, _STRUCTURES,
                                _initial_pair_table, _moment_tables,
                                _slot_factors, compute_moments)
from ramanpairs.noise import DiffusionTable, diffusion_table
from ramanpairs.propagator import build_propagator_grid
from ramanpairs.pulses import PulseSpec, off

from conftest import gauss_pulse, rho_symmetric
from reference import kernel


def test_initial_pair_table_examples():
    """<X_m(0) X_n(0)> read from the 0-based initial pair table."""
    rho_c = np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex)
    table = _initial_pair_table(rho_c)
    assert table[idx("c", "a") - 1, idx("a", "c") - 1] == 1.0
    assert table[idx("c", "a") - 1, idx("b", "c") - 1] == 0.0
    table = _initial_pair_table(rho_symmetric())
    assert table[idx("d", "b") - 1, idx("b", "d") - 1] == 0.0


def test_slot_table():
    """Slot r is the ladder fed by SOURCE_ROWS[r]: a_q^dag (3), a_k (8), a_q (9), a_k^dag (14)."""
    assert SOURCE_ROWS == (3, 8, 9, 14)
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
    diffusion = diffusion_table(grid, atom, pump, control)
    return grid, diffusion, compute_moments(atom, grid, diffusion)


def test_decoupled_modes_keep_initial_values():
    atom = AtomConfig(g_k=0.0, g_q=0.0, n_th_k=0.3, n_th_q=0.7, rho0=rho_symmetric())
    pump = PulseSpec(shape="cw", omega_peak=5.0)
    _, _, ms = _pipeline(atom, pump, pump)
    assert np.max(np.abs(ms.n_k.total - 0.3)) < 1e-14
    assert np.max(np.abs(ms.n_q.total - 0.7)) < 1e-14
    for split in (ms.pair, ms.cross, ms.square_k, ms.square_q):
        assert np.max(np.abs(split.total)) < 1e-14


def test_initial_time_values_are_thermal():
    atom = AtomConfig(n_th_k=0.2, n_th_q=0.05, rho0=rho_symmetric())
    pump = gauss_pulse(omega=8.0, center=0.4, width=0.1)
    _, _, ms = _pipeline(atom, pump, pump)
    assert ms.n_k.total[0] == pytest.approx(0.2, abs=1e-12)
    assert ms.n_q.total[0] == pytest.approx(0.05, abs=1e-12)
    assert abs(ms.pair.total[0]) < 1e-12
    assert abs(ms.cross.total[0]) < 1e-12


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
    # conversion and squeezing moments vanish by the loop selection rules
    # (the atom keeps a which-path record), at every coupling strength
    for run in runs.values():
        assert np.max(np.abs(run.cross.total)) < 1e-15
        assert np.max(np.abs(run.square_k.total)) < 1e-15
        assert np.max(np.abs(run.square_q.total)) < 1e-15


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


def test_split_additivity_is_bitwise():
    atom = AtomConfig(n_th_k=0.1, rho0=rho_symmetric())
    pump = gauss_pulse(omega=7.0, center=0.3, width=0.1)
    _, _, ms = _pipeline(atom, pump, pump, t_end=0.8, n=100)
    split = ms.n_k
    reference = split.boundary + split.noise + split.backaction + split.initial
    assert np.array_equal(split.total, reference)


def test_photon_numbers_real_nonnegative():
    atom = AtomConfig(rho0=rho_symmetric())
    pump = gauss_pulse(omega=10.0, center=0.5, width=1.0 / 15.0)
    _, _, ms = _pipeline(atom, pump, pump, t_end=2.0, n=300)
    for split in (ms.n_k, ms.n_q):
        assert np.max(np.abs(split.total.imag)) < 1e-12
        assert split.total.real.min() > -1e-10
        assert split.boundary.real.min() > -1e-12
        assert split.noise.real.min() > -1e-12


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


def test_noise_part_equals_direct_double_loop():
    atom = AtomConfig(rho0=rho_symmetric())
    pump = gauss_pulse(omega=6.0, center=0.3, width=0.12)
    grid, diffusion, ms = _pipeline(atom, pump, pump, t_end=0.6, n=80)
    _, prefactor, _ = _slot_factors(atom)
    slot_a, slot_b = AK_DAG, AK
    c = prefactor[slot_a] * prefactor[slot_b]
    h = grid.step
    for i in (25, 80):
        acc = 0.0 + 0.0j
        for j in range(i + 1):
            k = kernel(grid, j)[i]
            ka, kb = k[slot_a], k[slot_b]
            weight = 0.5 if j in (0, i) else 1.0
            acc += weight * (ka @ diffusion.matrices[j] @ kb)
        assert ms.n_k.noise[i] == pytest.approx(c * h * acc, rel=1e-12, abs=1e-18)


def test_backaction_vanishes_for_photon_numbers_in_vacuum():
    atom = AtomConfig(rho0=rho_symmetric())
    pump = gauss_pulse(omega=9.0, center=0.4, width=0.1)
    _, _, ms = _pipeline(atom, pump, pump)
    assert np.max(np.abs(ms.n_k.backaction)) < 1e-16
    assert np.max(np.abs(ms.n_q.backaction)) < 1e-16
    assert np.max(np.abs(ms.pair.backaction)) > 0.0  # the pair term is live


def test_grid_mismatch_rejected():
    atom = AtomConfig(rho0=rho_symmetric())
    pump = gauss_pulse(omega=5.0, center=0.3, width=0.1)
    grid, diffusion, _ = _pipeline(atom, pump, pump, t_end=0.6, n=80)
    other_grid = build_propagator_grid(atom, pump, pump, 0.6, 60)
    bad = DiffusionTable(times=other_grid.times,
                         matrices=np.zeros((61, 16, 16), dtype=complex))
    with pytest.raises(ConfigError):
        compute_moments(atom, grid, bad)
