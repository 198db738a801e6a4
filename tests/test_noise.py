import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from scipy.integrate import solve_ivp

from ramanpairs.algebra import SECTOR0, SECTOR_CONJ0, SECTOR_HALF0, idx, pair_table
from ramanpairs.atom import AtomConfig, DriftBuilder, state_vector
from ramanpairs.noise import diffusion_matrix, diffusion_table
from ramanpairs.propagator import build_propagator_grid
from ramanpairs.pulses import PulseSpec, off

from conftest import gauss_pulse, rho_symmetric
from reference import DAGGER0, POPULATION0, atomic_liouvillian, normal_ordered


def test_zero_drift_gives_zero_diffusion():
    x = state_vector(rho_symmetric())
    d2 = diffusion_matrix(np.zeros((16, 16), dtype=complex), x)
    assert np.max(np.abs(d2)) == 0.0


def test_pure_hamiltonian_dynamics_is_noiseless():
    # no dissipation at all: detuned, driven, but unitary
    atom = AtomConfig(gamma_ab=0, gamma_ac=0, gamma_db=0, gamma_dc=0)
    pump = gauss_pulse(omega=9.0, detuning=-4.0, chirp=15.0)
    control = PulseSpec(shape="cw", omega_peak=5.0, detuning=2.0)
    m = DriftBuilder(atom, pump, control).entries(0.41)
    x = state_vector(rho_symmetric())
    assert np.max(np.abs(diffusion_matrix(m, x))) < 1e-12


def _driven_table():
    atom = AtomConfig(gamma_ab=0.9, gamma_ac=1.1, gamma_db=1.2, gamma_dc=0.8,
                      gamma_bc=0.25, rho0=rho_symmetric())
    pump = gauss_pulse(omega=7.0, center=0.4, width=0.15, detuning=-2.0)
    control = PulseSpec(shape="cw", omega_peak=4.0, detuning=1.0)
    grid = build_propagator_grid(atom, pump, control, 1.0, 120)
    einstein = diffusion_table(atom).einstein
    return [np.tensordot(x, einstein, 1) for x in grid.state_traj[::15]]


def test_population_sum_rule_and_conjugation():
    for d2 in _driven_table():
        assert np.max(np.abs(d2[POPULATION0, :].sum(axis=0))) < 1e-10
        assert np.max(np.abs(d2[np.ix_(DAGGER0, DAGGER0)].T - np.conj(d2))) < 1e-12


def test_normal_ordered_matrix_positive_semidefinite():
    for d2 in _driven_table():
        c = normal_ordered(d2)
        herm = 0.5 * (c + c.conj().T)
        assert np.max(np.abs(c - herm)) < 1e-10
        assert np.linalg.eigvalsh(herm).min() > -1e-9


def test_two_level_radiative_block():
    """Only a->c decay: <F_ca F_ac> strength equals gamma (rho_aa + rho_cc)."""
    rho = np.diag([0.35, 0.0, 0.65, 0.0]).astype(complex)
    atom = AtomConfig(gamma_ab=0, gamma_ac=1.3, gamma_db=0, gamma_dc=0, rho0=rho)
    m = DriftBuilder(atom, off(), off()).entries(0.0)
    x = state_vector(rho)
    d2 = diffusion_matrix(m, x)
    ca, ac, aa = idx("c", "a") - 1, idx("a", "c") - 1, idx("a", "a") - 1
    expected = 1.3 * (rho[0, 0].real + rho[2, 2].real)
    assert d2[ca, ac] == pytest.approx(expected, rel=1e-6)
    # normally ordered component vanishes in vacuum, population noise is gamma rho_aa
    assert abs(d2[ac, ca]) < 1e-12
    assert d2[aa, aa] == pytest.approx(1.3 * rho[0, 0].real, rel=1e-6)


def test_einstein_relation_against_regression_finite_difference():
    """2D_mn == d<X_m X_n>/dt - drift terms, via an independent Liouvillian."""
    atom = AtomConfig(gamma_ab=0.7, gamma_ac=1.2, gamma_db=0.9, gamma_dc=1.1,
                      rho0=rho_symmetric())
    pump = PulseSpec(shape="cw", omega_peak=5.0, detuning=-1.0)
    control = PulseSpec(shape="cw", omega_peak=3.0)
    gen = atomic_liouvillian(atom, pump, control, 0.0)

    def rhs(t, x):
        return gen @ x

    h_fd = 1e-5
    t_eval = np.array([0.5 - h_fd, 0.5, 0.5 + h_fd])
    sol = solve_ivp(rhs, (0.0, t_eval[-1]), state_vector(atom.rho0), t_eval=t_eval,
                    rtol=1e-12, atol=1e-15)
    x_prev, x_mid, x_next = sol.y.T
    d2 = diffusion_matrix(gen, x_mid)

    from ramanpairs.algebra import CONTRACT0
    for m, n in ((idx("c", "a") - 1, idx("a", "c") - 1),
                 (idx("d", "b") - 1, idx("b", "d") - 1),
                 (idx("a", "a") - 1, idx("a", "a") - 1),
                 (idx("c", "a") - 1, idx("a", "a") - 1)):
        p = CONTRACT0[m, n]
        lhs = 0.0 if p < 0 else (x_next[p] - x_prev[p]) / (t_eval[2] - t_eval[0])
        drift = sum(gen[m, r] * (x_mid[CONTRACT0[r, n]] if CONTRACT0[r, n] >= 0 else 0.0)
                    for r in range(16))
        drift += sum(gen[n, r] * (x_mid[CONTRACT0[m, r]] if CONTRACT0[m, r] >= 0 else 0.0)
                     for r in range(16))
        assert d2[m, n] == pytest.approx(lhs - drift, rel=2e-6, abs=2e-8)


def test_dark_state_noise_structure():
    """Atom parked in b, no drives: no excitation-normal-ordered noise, and
    none of it feeds the field moments; the vacuum-fluctuation components of
    the empty excited levels stay finite as they must.
    """
    rho = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
    atom = AtomConfig(rho0=rho)
    m = DriftBuilder(atom, off(), off()).entries(0.0)
    d2 = diffusion_matrix(m, state_vector(rho))
    ac, ca = idx("a", "c") - 1, idx("c", "a") - 1
    aa = idx("a", "a") - 1
    ba, ab = idx("b", "a") - 1, idx("a", "b") - 1
    assert abs(d2[ac, ca]) < 1e-12       # sigma_+ sigma_- channel is silent
    assert abs(d2[aa, aa]) < 1e-12       # no population noise without excitation
    assert d2[ba, ab] == pytest.approx(atom.gamma_ab + atom.gamma_ac, rel=1e-12)

    from ramanpairs.moments import compute_moments
    grid = build_propagator_grid(atom, off(), off(), 1.0, 60)
    ms = compute_moments(atom, grid, diffusion_table(atom))
    for split in (ms.pair, ms.n_k, ms.n_q):
        assert np.max(np.abs(split.noise)) < 1e-12


def test_table_matches_pointwise_evaluation(small_driven_run):
    atom, pump, control, grid, diffusion, _, _ = small_driven_run
    builder = DriftBuilder(atom, pump, control)
    for t, x in zip(grid.times, grid.state_traj):
        direct = diffusion_matrix(builder.entries(t), x)
        assert np.allclose(np.tensordot(x, diffusion.einstein, 1), direct, rtol=0, atol=1e-14)


# radiative rates stay >= 0.5: the cancellation leaves a rounding floor of
# about eps |Omega| / gamma relative, 1.4e-14 at Omega 50 and gamma 0.5
RADIATIVE = st.floats(min_value=0.5, max_value=3.0)
REAL = st.floats(min_value=-20.0, max_value=20.0)
PULSE = st.builds(PulseSpec, shape=st.sampled_from(["cw", "gaussian"]),
                  omega_peak=st.floats(min_value=0.0, max_value=50.0),
                  center=st.floats(min_value=0.0, max_value=2.0),
                  width=st.floats(min_value=0.05, max_value=1.0),
                  detuning=REAL, chirp=REAL, phase0=REAL)


# no explain phase, as in the oracle's Liouvillian property test
@settings(max_examples=30, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
@given(radiative=st.tuples(RADIATIVE, RADIATIVE, RADIATIVE, RADIATIVE),
       gamma_bc=st.floats(min_value=0.0, max_value=3.0), pump=PULSE, control=PULSE,
       t=st.floats(min_value=0.0, max_value=2.0), seed=st.integers(0, 2**32 - 1))
def test_drives_and_detunings_drop_out_of_the_einstein_relation(radiative, gamma_bc, pump,
                                                                control, t, seed):
    """2D = Lambda X with Lambda set by the dissipators alone, as the table assumes."""
    atom = AtomConfig(*radiative, gamma_bc=gamma_bc)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    x = state_vector(rho / np.trace(rho))
    driven = diffusion_matrix(DriftBuilder(atom, pump, control).entries(t), x)
    drive_free = diffusion_matrix(DriftBuilder(atom, off(), off()).entries(0.0), x)
    assert np.max(np.abs(driven - drive_free)) <= 1e-13 * np.max(np.abs(drive_free))


RATE = st.floats(min_value=0.0, max_value=3.0)
N_TH = st.floats(min_value=0.0, max_value=0.5)


# no explain phase, as the other property tests of this module
@settings(max_examples=30, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
@given(rates=st.tuples(RATE, RATE, RATE, RATE), gamma_bc=RATE, n_th=st.tuples(N_TH, N_TH),
       seed=st.integers(0, 2**32 - 1))
def test_sector_tables_vanish_within_each_half(rates, gamma_bc, n_th, seed):
    """pair_table and the Einstein map are exactly 0 on half x half and conj x conj of the sector.

    The halves are SECTOR_HALF0 and SECTOR_CONJ0, and the map's sector block
    is fed only by the eight COMPLEMENT0 expectations.  The moment assembly
    forms its boundary and noise parts on the half x conj and conj x half
    slot blocks alone because of these zeros.
    """
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    atom = AtomConfig(*rates, gamma_bc=gamma_bc, n_th_k=n_th[0], n_th_q=n_th[1],
                      rho0=rho / np.trace(rho).real)
    x = state_vector(atom.rho0)
    einstein = diffusion_table(atom).einstein
    for table in (pair_table(x), np.tensordot(x, einstein, 1), *einstein):
        assert (table[np.ix_(SECTOR_HALF0, SECTOR_HALF0)] == 0).all()
        assert (table[np.ix_(SECTOR_CONJ0, SECTOR_CONJ0)] == 0).all()
    assert (einstein[SECTOR0][:, SECTOR0[:, None], SECTOR0] == 0).all()
