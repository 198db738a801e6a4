import numpy as np
import pytest
from scipy.linalg import expm

from ramanpairs.algebra import idx, levels
from ramanpairs.atom import AtomConfig, DriftBuilder, evolve_state, state_vector
from ramanpairs.errors import ConfigError
from ramanpairs.pulses import PulseSpec, off

from conftest import gauss_pulse, rho_symmetric
from reference import DAGGER0, POPULATION0, atomic_liouvillian, density_matrix


def test_free_degenerate_atom_gives_zero_matrix():
    atom = AtomConfig(gamma_ab=0, gamma_ac=0, gamma_db=0, gamma_dc=0, g_k=0, g_q=0)
    m = DriftBuilder(atom, off(), off()).entries(0.0)
    assert np.max(np.abs(m)) == 0.0


def test_bc_coherence_decay_free_without_dephasing():
    atom = AtomConfig(gamma_bc=0.0)
    m = DriftBuilder(atom, off(), off()).entries(0.0)
    row = idx("b", "c") - 1
    assert m[row, row] == pytest.approx(0.0, abs=1e-14)


def test_population_rows_sum_to_zero_random_config():
    rng = np.random.default_rng(7)
    for _ in range(5):
        rates = rng.uniform(0.0, 2.0, size=5)
        atom = AtomConfig(gamma_ab=rates[0], gamma_ac=rates[1], gamma_db=rates[2],
                          gamma_dc=rates[3], gamma_bc=rates[4])
        pump = gauss_pulse(omega=rng.uniform(0, 20), center=0.4, width=0.2,
                           detuning=rng.uniform(-50, 50), chirp=rng.uniform(-100, 100))
        control = PulseSpec(shape="cw", omega_peak=rng.uniform(0, 20),
                            detuning=rng.uniform(-50, 50), phase0=rng.uniform(0, 6))
        m = DriftBuilder(atom, pump, control).entries(rng.uniform(0, 1))
        assert np.max(np.abs(m[POPULATION0, :].sum(axis=0))) < 1e-12


def test_conjugate_mirror_symmetry():
    atom = AtomConfig(gamma_bc=0.4)
    pump = gauss_pulse(omega=8.0, detuning=-3.0, chirp=30.0, phase0=1.1)
    control = PulseSpec(shape="cw", omega_peak=4.0, detuning=2.0, phase0=0.4)
    for t in (0.0, 0.33, 0.8):
        m = DriftBuilder(atom, pump, control).entries(t)
        assert np.max(np.abs(m[np.ix_(DAGGER0, DAGGER0)] - np.conj(m))) < 1e-12


def test_matches_independent_liouvillian_rebuild():
    atom = AtomConfig(gamma_ab=0.8, gamma_ac=1.2, gamma_db=0.6, gamma_dc=1.4, gamma_bc=0.3)
    pump = gauss_pulse(omega=7.0, center=0.4, width=0.2, detuning=-3.0, chirp=2.0, phase0=0.3)
    control = PulseSpec(shape="cw", omega_peak=4.0, detuning=1.5, phase0=-0.7)
    for t in (0.0, 0.37, 1.1):
        ours = DriftBuilder(atom, pump, control).entries(t)
        theirs = atomic_liouvillian(atom, pump, control, t)
        assert np.max(np.abs(ours - theirs)) < 1e-13


def test_state_vector_roundtrip():
    rho = rho_symmetric()
    rho[1, 2] = 0.2 - 0.1j
    rho[2, 1] = np.conj(rho[1, 2])
    x = state_vector(rho)
    assert x[idx("b", "c") - 1] == pytest.approx(rho[2, 1])  # <sigma_bc> = rho_cb
    assert np.allclose(density_matrix(x), rho)


def test_zero_drift_freezes_state():
    atom = AtomConfig(gamma_ab=0, gamma_ac=0, gamma_db=0, gamma_dc=0, rho0=rho_symmetric())
    times = np.linspace(0.0, 2.0, 41)
    traj = evolve_state(atom, off(), off(), times)
    assert np.max(np.abs(traj - traj[0])) < 1e-12


def test_cw_drive_matches_matrix_exponential():
    atom = AtomConfig(rho0=rho_symmetric())
    pump = PulseSpec(shape="cw", omega_peak=10.0, detuning=1.0)
    control = PulseSpec(shape="cw", omega_peak=10.0, detuning=-2.0)
    times = np.linspace(0.0, 1.5, 31)
    traj = evolve_state(atom, pump, control, times)
    m = DriftBuilder(atom, pump, control).entries(0.0)
    x0 = state_vector(atom.rho0)
    for i in (10, 20, 30):
        expected = expm(m * times[i]) @ x0
        assert np.max(np.abs(traj[i] - expected)) < 1e-8


def test_trace_and_positivity_on_resonant_drive():
    atom = AtomConfig(rho0=rho_symmetric())
    pump = PulseSpec(shape="cw", omega_peak=10.0)
    control = PulseSpec(shape="cw", omega_peak=10.0)
    times = np.linspace(0.0, 3.0, 121)
    traj = evolve_state(atom, pump, control, times)
    pops = traj[:, POPULATION0].real
    assert np.max(np.abs(traj[:, POPULATION0].sum(axis=1) - 1.0)) < 1e-10
    assert pops.std(axis=0).max() > 1e-3  # populations actually oscillate
    for i in (0, 40, 80, 120):
        rho = density_matrix(traj[i])
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
        assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() > -1e-8


def test_dark_ground_states_are_stationary():
    for level in (1, 2):  # b and c
        rho = np.zeros((4, 4), dtype=complex)
        rho[level, level] = 1.0
        atom = AtomConfig(rho0=rho)
        times = np.linspace(0.0, 2.0, 21)
        traj = evolve_state(atom, off(), off(), times)
        assert np.max(np.abs(traj - traj[0])) < 1e-12


def test_gauge_covariance_common_phase():
    atom = AtomConfig(rho0=rho_symmetric())
    times = np.linspace(0.0, 1.5, 61)
    base_p = gauss_pulse(omega=8.0, center=0.4, width=0.15)
    base_c = gauss_pulse(omega=6.0, center=0.5, width=0.2)
    ref = evolve_state(atom, base_p, base_c, times)[:, POPULATION0]
    shifted_p = PulseSpec(shape="gaussian", omega_peak=8.0, center=0.4, width=0.15, phase0=1.234)
    shifted_c = PulseSpec(shape="gaussian", omega_peak=6.0, center=0.5, width=0.2, phase0=1.234)
    out = evolve_state(atom, shifted_p, shifted_c, times)[:, POPULATION0]
    assert np.max(np.abs(out - ref)) < 1e-9


def test_atom_config_validation():
    with pytest.raises(ConfigError):
        AtomConfig(gamma_ab=-0.1)
    with pytest.raises(ConfigError):
        AtomConfig(rho0=np.eye(4))  # trace 4
    bad = np.diag([0.6, 0.4, 0.0, 0.0]).astype(complex)
    bad[0, 1] = 0.9  # non-Hermitian and non-positive
    with pytest.raises(ConfigError):
        AtomConfig(rho0=bad)
    skew = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ConfigError):
        AtomConfig(rho0=skew)
    for value in (np.nan, np.inf, complex(0.0, np.nan)):
        for entry in ((0, 0), (1, 2)):
            rho = rho_symmetric()
            rho[entry] = value
            with pytest.raises(ConfigError, match="finite"):
                AtomConfig(rho0=rho)


def test_mirror_relabelling_permutes_the_drift_matrix():
    """a<->d, b<->c with pump<->control, gamma_ab<->gamma_dc, gamma_ac<->gamma_db: M' = P M P^T."""
    mirror = dict(zip("abcd", "dcba"))
    perm = [idx(*(mirror[level] for level in levels(m))) - 1 for m in range(1, 17)]
    p = np.eye(16)[perm]  # (P X)_m = X_{mirror(m)}
    rng = np.random.default_rng(5)
    for _ in range(20):
        ab, ac, db, dc, bc = rng.uniform(0.0, 2.0, size=5)
        pump, control = (gauss_pulse(omega=rng.uniform(0, 15), center=rng.uniform(0.2, 0.6),
                                     width=rng.uniform(0.05, 0.3), detuning=rng.uniform(-20, 20),
                                     chirp=rng.uniform(-80, 80), phase0=rng.uniform(0, 6))
                         for _ in range(2))
        atom = AtomConfig(gamma_ab=ab, gamma_ac=ac, gamma_db=db, gamma_dc=dc, gamma_bc=bc)
        swapped = AtomConfig(gamma_ab=dc, gamma_ac=db, gamma_db=ac, gamma_dc=ab, gamma_bc=bc)
        times = rng.uniform(0.0, 1.0, size=3)
        m = np.stack([DriftBuilder(atom, pump, control).entries(t) for t in times])
        m_swapped = np.stack([DriftBuilder(swapped, control, pump).entries(t) for t in times])
        assert np.max(np.abs(m_swapped - p @ m @ p.T)) < 1e-13
