from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from ramanpairs.atom import AtomConfig, evolve_state
from ramanpairs.config import apply_override
from ramanpairs.errors import ConfigError, CutoffError
from ramanpairs.moments import compute_moments
from ramanpairs.noise import diffusion_table
from ramanpairs.oracle import OracleConfig, _liouvillian, oracle_moments
from ramanpairs.presets import PRESET_NAMES, preset
from ramanpairs.propagator import build_propagator_grid
from ramanpairs.pulses import PulseSpec, rabi
from ramanpairs.runner import run_verification

from conftest import gauss_pulse, rho_symmetric


def test_dimension_cap_enforced():
    with pytest.raises(ConfigError):
        OracleConfig(cutoff_k=8, cutoff_q=8, dim_cap=256)
    with pytest.raises(ConfigError):
        OracleConfig(cutoff_k=0)


def test_decoupled_vacuum_modes_stay_empty():
    atom = AtomConfig(rho0=rho_symmetric())
    pump = PulseSpec(shape="cw", omega_peak=5.0)
    times = np.linspace(0.0, 1.0, 11)
    out = oracle_moments(atom, pump, pump, times,
                         OracleConfig(cutoff_k=1, cutoff_q=1, g_k=0.0, g_q=0.0))
    assert np.max(np.abs(out.n_k)) < 1e-12
    assert np.max(np.abs(out.n_q)) < 1e-12
    assert np.max(np.abs(out.pair)) < 1e-12


def test_atomic_marginal_matches_evolve_state():
    atom = AtomConfig(gamma_ab=0.9, gamma_ac=1.1, gamma_db=1.0, gamma_dc=0.7,
                      rho0=rho_symmetric())
    pump = gauss_pulse(omega=6.0, center=0.4, width=0.15, detuning=-2.0)
    control = PulseSpec(shape="cw", omega_peak=3.0, detuning=1.0)
    times = np.linspace(0.0, 1.2, 25)
    out = oracle_moments(atom, pump, control, times,
                         OracleConfig(cutoff_k=1, cutoff_q=1, g_k=0.0, g_q=0.0,
                                      rtol=1e-10, atol=1e-13))
    reference = evolve_state(atom, pump, control, times, rtol=1e-11, atol=1e-14)
    assert np.max(np.abs(out.atom_traj - reference)) < 1e-9


def test_cutoff_convergence_on_detuned_raman():
    atom = AtomConfig()
    pump = PulseSpec(shape="cw", omega_peak=5.0, detuning=-50.0)
    control = PulseSpec(shape="cw", omega_peak=0.0)
    times = np.linspace(0.0, 1.5, 16)
    runs = {}
    for cutoff in (2, 3):
        cfg = OracleConfig(cutoff_k=cutoff, cutoff_q=cutoff, g_k=0.01, g_q=0.01)
        runs[cutoff] = oracle_moments(atom, pump, control, times, cfg)
    scale = np.abs(runs[3].n_k).max()
    assert np.max(np.abs(runs[2].n_k - runs[3].n_k)) < 0.01 * scale


@pytest.mark.parametrize("name, omega", [("fig4c", None), ("fig3b", 5.0)])
def test_cutoff_convergence_on_chirped_and_detuned_presets(name, omega):
    """Cutoff 3, the verifier default, agrees with cutoff 4 at g = 0.01."""
    chosen = preset(name)
    cfg = (chosen.scenarios[0] if omega is None
           else apply_override(chosen.scan, chosen.scan.scan.parameter, omega))
    times = np.linspace(0.0, cfg.t_end, 41)  # the verifier thins 1600 intervals to 41 points
    runs = [oracle_moments(cfg.atom, cfg.pump, cfg.control, times,
                           OracleConfig(cutoff_k=cutoff, cutoff_q=cutoff))
            for cutoff in (3, 4)]
    for series in (lambda o: o.n_k.real, lambda o: o.n_q.real, lambda o: np.abs(o.pair)):
        low, high = (series(run) for run in runs)
        assert np.max(np.abs(low - high)) < 1e-5 * np.max(np.abs(high))


def test_leakage_guard_raises_with_advice():
    atom = AtomConfig()
    pump = PulseSpec(shape="cw", omega_peak=5.0)  # resonant, floods the mode
    times = np.linspace(0.0, 3.0, 31)
    with pytest.raises(CutoffError, match="increase the cutoff"):
        oracle_moments(atom, pump, PulseSpec(shape="cw", omega_peak=0.0), times,
                       OracleConfig(cutoff_k=1, cutoff_q=1, g_k=0.25, g_q=0.25))


def test_thermal_seeding_agreement_small_window():
    """Stimulated (thermal-weighted) terms also match the joint computation."""
    g = 0.02
    atom = AtomConfig(g_k=g, g_q=g, n_th_k=0.02, rho0=rho_symmetric())
    pump = gauss_pulse(omega=10.0, center=0.4, width=0.1)
    grid = build_propagator_grid(atom, pump, pump, 1.0, 300)
    ms = compute_moments(atom, grid, diffusion_table(grid, atom, pump, pump))
    times = grid.times[::30]
    out = oracle_moments(atom, pump, pump, times,
                         OracleConfig(cutoff_k=4, cutoff_q=2, g_k=g, g_q=g,
                                      rtol=1e-9, atol=1e-12))
    sel = slice(None, None, 30)
    assert np.abs(ms.n_k.backaction).max() > 1e-8  # stimulated part is live
    for pipe, orc in ((ms.n_k.total[sel], out.n_k), (ms.n_q.total[sel], out.n_q),
                      (ms.pair.total[sel], out.pair)):
        scale = max(np.abs(orc).max(), 1e-12)
        assert np.max(np.abs(pipe - orc)) < 0.01 * scale


def test_joint_trace_and_moment_agreement_small_window():
    """Short-window cross check of every moment the pipeline produces."""
    g = 0.02
    atom = AtomConfig(g_k=g, g_q=g, rho0=rho_symmetric())
    pump = gauss_pulse(omega=10.0, center=0.4, width=0.1)
    grid = build_propagator_grid(atom, pump, pump, 1.0, 250)
    ms = compute_moments(atom, grid, diffusion_table(grid, atom, pump, pump))
    times = grid.times[::25]
    out = oracle_moments(atom, pump, pump, times,
                         OracleConfig(cutoff_k=2, cutoff_q=2, g_k=g, g_q=g))
    sel = slice(None, None, 25)
    for name, pipe, orc in (("n_k", ms.n_k.total[sel], out.n_k),
                            ("n_q", ms.n_q.total[sel], out.n_q),
                            ("pair", ms.pair.total[sel], out.pair),
                            ("cross", ms.cross.total[sel], out.cross),
                            ("square_k", ms.square_k.total[sel], out.square_k),
                            ("square_q", ms.square_q.total[sel], out.square_q)):
        scale = max(np.abs(orc).max(), 1e-12)
        assert np.max(np.abs(pipe - orc)) < 0.02 * scale, name


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_every_preset_agrees_with_oracle(name):
    """Each preset's last scenario (or first scan value) meets the oracle at g = 0.01."""
    chosen = preset(name)
    if chosen.kind == "scan":
        scan = chosen.scan.scan
        cfg = apply_override(chosen.scan, scan.parameter, scan.values[0])
    else:
        cfg = chosen.scenarios[-1]
    _, _, report = run_verification(replace(cfg, scan=None, verify=OracleConfig()))
    assert report["n_k_points"] > 0
    for key in ("n_k_max_rel_err", "n_q_max_rel_err", "abs_pair_max_rel_err"):
        assert report[key] < 0.05, key  # the gate of acceptance criterion 7


RATE = st.floats(min_value=0.0, max_value=3.0)
REAL = st.floats(min_value=-20.0, max_value=20.0)


# no explain phase: it reruns a failing example a thousand times, minutes at dim 64
@settings(max_examples=30, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
@given(rates=st.tuples(RATE, RATE, RATE, RATE, RATE), detunings=st.tuples(REAL, REAL),
       chirps=st.tuples(REAL, REAL), phases=st.tuples(REAL, REAL),
       couplings=st.tuples(RATE, RATE), cutoffs=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       t=st.floats(min_value=0.0, max_value=2.0), seed=st.integers(0, 2**32 - 1))
def test_liouvillian_keeps_trace_and_hermiticity(rates, detunings, chirps, phases, couplings,
                                                 cutoffs, t, seed):
    atom = AtomConfig(*rates)
    pump = PulseSpec(shape="gaussian", omega_peak=8.0, center=0.7, width=0.3,
                     detuning=detunings[0], chirp=chirps[0], phase0=phases[0])
    control = PulseSpec(shape="cw", omega_peak=5.0, detuning=detunings[1],
                        chirp=chirps[1], phase0=phases[1])
    dim_k, dim_q = cutoffs[0] + 1, cutoffs[1] + 1
    l0, l_p, l_p_conj, l_c, l_c_conj = _liouvillian(atom, pump, control, dim_k, dim_q, *couplings)
    om_p, om_c = rabi(pump, t), rabi(control, t)
    gen = l0 + om_p * l_p + np.conj(om_p) * l_p_conj + om_c * l_c + np.conj(om_c) * l_c_conj

    dim = 4 * dim_k * dim_q
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = x + x.conj().T
    drho = (gen @ rho.reshape(-1)).reshape(dim, dim)
    scale = float(np.abs(drho).max()) + 1.0
    trace = abs(complex(np.trace(drho)))
    antihermitian = float(np.abs(drho - drho.conj().T).max())
    assert trace < 1e-12 * dim * scale
    assert antihermitian < 1e-12 * scale
