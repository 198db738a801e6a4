from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from ramanpairs import propagator
from ramanpairs.algebra import SECTOR0, SOURCE_ROWS, idx
from ramanpairs.atom import AtomConfig, DriftBuilder, evolve_state, state_vector
from ramanpairs.config import apply_override
from ramanpairs.errors import ConfigError
from ramanpairs.presets import PRESET_NAMES, preset
from ramanpairs.propagator import build_propagator_grid
from ramanpairs.pulses import PulseSpec, off
from ramanpairs.runner import run_scenario

from conftest import gauss_pulse, rho_symmetric
from reference import DAGGER0, full_kernel, kernel, propagate_from

BLOCK = np.ix_(SECTOR0, SECTOR0)


def test_constant_drive_matches_matrix_exponential():
    """The exact path's sector flow, inverse and state are expm(M t) and its inverse."""
    atom = AtomConfig(rho0=rho_symmetric())
    pump = PulseSpec(shape="cw", omega_peak=6.0, detuning=2.0)
    control = PulseSpec(shape="cw", omega_peak=3.0, detuning=-1.0)
    builder = DriftBuilder(atom, pump, control)
    assert builder.constant
    times = np.linspace(0.0, 1.2, 25)
    x0 = state_vector(atom.rho0)
    u, v, state = propagator._solve_flow(builder, x0, times, 1e-9, 1e-12)
    m = builder.entries(0.0)
    for i in (8, 16, 24):
        assert np.max(np.abs(u[i] - expm(m * times[i])[BLOCK])) < 1e-8
        assert np.max(np.abs(v[i] - expm(-m * times[i])[BLOCK])) < 1e-8
        assert np.max(np.abs(state[i] - expm(m * times[i]) @ x0)) < 1e-8
    # time-translation invariance of the cw flow: started at t_12 it steps as from 0
    u_mid, _, _ = propagator._solve_flow(builder, state[12], times[12:], 1e-9, 1e-12)
    assert np.max(np.abs(u_mid[8] - u[8])) < 1e-8
    assert np.max(np.abs(u_mid[8] @ u[12] - u[20])) < 1e-8


def _tight_flow(builder, times):
    """Independent reference for U(t, 0): RK45 at rtol 1e-12, not the library's DOP853."""

    def rhs(t, y):
        return (builder.entries(t) @ y.reshape(16, 16)).reshape(256)

    sol = solve_ivp(rhs, (times[0], times[-1]), np.eye(16, dtype=complex).reshape(256),
                    method="RK45", t_eval=times, rtol=1e-12, atol=1e-14)
    assert sol.success
    return sol.y.T.reshape(len(times), 16, 16)


@pytest.mark.parametrize("name", ["fig2a", "fig7d"])
def test_constant_drive_grid_matches_tight_solve(name):
    cfg = preset(name).scenarios[0]
    builder = DriftBuilder(cfg.atom, cfg.pump, cfg.control)
    assert builder.constant
    grid = build_propagator_grid(cfg.atom, cfg.pump, cfg.control, cfg.t_end, 200)
    x0 = state_vector(cfg.atom.rho0)
    # the exact path: sector block and state from powers of expm(M h)
    u_sector, _, state = propagator._solve_flow(builder, x0, grid.times, 1e-9, 1e-12)
    reference = _tight_flow(builder, grid.times)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(u_sector - reference[:, BLOCK[0], BLOCK[1]])) < 1e-9 * scale
    assert np.max(np.abs(state - reference @ x0)) < 1e-9 * scale
    assert np.array_equal(grid.state_traj, state)
    # the exact path's v_inverse, powers of expm(-M_S h), inverts the forward flow's sector block
    worst = max(np.max(np.abs(grid.v_inverse[j] @ u_sector[j] - np.eye(8)))
                for j in (10, 100, 200))
    assert worst < 1e-7
    for j in (0, 80, 200):
        assert np.max(np.abs(kernel(grid, j)[j])) < 1e-12


def _fig6b_drives(omega):
    cfg = apply_override(preset("fig6b").scan, "both.omega_peak", omega)
    return cfg.pump, cfg.control


@pytest.mark.parametrize("pump, control", [
    (PulseSpec("cw", 5.0, detuning=-50.0, chirp=20.0), PulseSpec("cw", 10.0)),
    (PulseSpec("cw", 5.0), PulseSpec("cw", 10.0, chirp=-0.5)),
    (gauss_pulse(omega=10.0), PulseSpec("cw", 10.0)),
    (off(), gauss_pulse(omega=10.0, detuning=-2.0)),
    _fig6b_drives(50.0),  # the costliest scan point
])
def test_time_dependent_drive_grid_matches_tight_solve(pump, control):
    atom = AtomConfig(rho0=rho_symmetric())
    builder = DriftBuilder(atom, pump, control)
    assert not builder.constant
    grid = build_propagator_grid(atom, pump, control, 3.0, 200)
    u_from0 = propagate_from(0, atom, pump, control, grid.times)
    reference = _tight_flow(builder, grid.times)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(u_from0 - reference)) < 1e-7 * scale
    # the build's co-solved sector block and state
    x0 = state_vector(atom.rho0)
    u_sector, _, state = propagator._solve_flow(builder, x0, grid.times, 1e-9, 1e-12)
    assert np.max(np.abs(u_sector - reference[:, BLOCK[0], BLOCK[1]])) < 1e-7 * scale
    assert np.max(np.abs(state - reference @ x0)) < 1e-7 * scale
    assert np.array_equal(grid.state_traj, state)


def test_constant_drive_presets():
    """A wrong classification would write a silently wrong CSV."""
    constant = set()
    for name in PRESET_NAMES:
        chosen = preset(name)
        if chosen.kind == "scan":
            scan = chosen.scan.scan
            cfgs = [apply_override(chosen.scan, scan.parameter, v) for v in scan.values]
        else:
            cfgs = chosen.scenarios
        constant.update(cfg.label for cfg in cfgs
                        if DriftBuilder(cfg.atom, cfg.pump, cfg.control).constant)
    assert constant == {"fig2a", "fig5_cw", "fig7a", "fig7c", "fig7d"}


def test_composition_residual_small():
    """The DOP853 sector flow composes, U_S(t_i, s_j) U_S(s_j, 0) = U_S(t_i, 0), and so does X."""
    atom = AtomConfig(rho0=rho_symmetric())
    pump = gauss_pulse(omega=10.0, center=0.5, width=1.0 / 15.0)
    control = gauss_pulse(omega=10.0, center=0.5, width=1.0 / 15.0)
    builder = DriftBuilder(atom, pump, control)
    assert not builder.constant
    times = np.linspace(0.0, 2.0, 81)
    u_full, _, state = propagator._solve_flow(builder, state_vector(atom.rho0), times,
                                              1e-9, 1e-12)
    rng = np.random.default_rng(3)
    for _ in range(4):
        j = int(rng.integers(5, 60))
        i = int(rng.integers(j + 5, 80))
        u_tail, _, state_tail = propagator._solve_flow(builder, state[j], times[j:], 1e-9, 1e-12)
        assert np.max(np.abs(u_full[i] - u_tail[i - j] @ u_full[j])) < 1e-8
        assert np.max(np.abs(state[i] - state_tail[i - j])) < 1e-8


def test_grid_build_invariants():
    atom = AtomConfig(rho0=rho_symmetric())
    pump = gauss_pulse(omega=8.0)
    control = gauss_pulse(omega=8.0)
    grid = build_propagator_grid(atom, pump, control, 1.5, 150)
    # the flow the build solves starts at the identity and carries the state
    u_from0 = propagate_from(0, atom, pump, control, grid.times)
    assert np.allclose(u_from0[0], np.eye(16))
    # X is solved together with the sector block, so it matches U X(0) to the solve's accuracy
    assert np.max(np.abs(grid.state_traj - u_from0 @ state_vector(atom.rho0))) < 1e-8
    # v_inverse really inverts the forward flow's sector block
    worst = max(np.max(np.abs(grid.v_inverse[j] @ u_from0[j][BLOCK] - np.eye(8)))
                for j in (10, 75, 150))
    assert worst < 1e-7
    # kernels vanish on the diagonal
    for j in (0, 60, 150):
        assert np.max(np.abs(kernel(grid, j)[j])) < 1e-12


def _record_calls(monkeypatch, owner, attr):
    """Wrap owner.attr so that the result of every call lands in the returned list."""
    results = []
    original = getattr(owner, attr)

    def recorded(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(owner, attr, recorded)
    return results


@pytest.mark.parametrize("name, solves, inversions", [("fig2a", 0, 0), ("fig2b", 1, 1)])
def test_pipeline_drift_evaluations_ode_solves_and_inversions(monkeypatch, name, solves,
                                                              inversions):
    cfg = replace(preset(name).scenarios[0], grid_points=100)
    calls = {attr: _record_calls(monkeypatch, owner, attr)
             for owner, attr in ((DriftBuilder, "entries"), (propagator, "solve_ivp"),
                                 (np.linalg, "inv"))}
    run_scenario(cfg)
    counts = {attr: len(results) for attr, results in calls.items()}
    assert counts["solve_ivp"] == solves
    assert counts["inv"] == inversions
    # only the flow evaluates M: once for expm(+-M h), or once per ODE right-hand side
    nfev = sum(sol.nfev for sol in calls["solve_ivp"])
    assert counts["entries"] == (nfev if solves else 1)


def test_state_traj_matches_evolve_state():
    """U(t, 0) X(0) reproduces the direct state solve on a chirped, detuned pulse."""
    atom = AtomConfig(gamma_bc=0.3, rho0=rho_symmetric())
    pump = gauss_pulse(omega=9.0, center=0.4, width=0.12, detuning=-2.5, chirp=60.0)
    control = gauss_pulse(omega=7.0, center=0.5, width=0.15, detuning=1.5, chirp=-40.0)
    grid = build_propagator_grid(atom, pump, control, 1.5, 150)
    reference = evolve_state(atom, pump, control, grid.times)
    assert np.max(np.abs(grid.state_traj - reference)) < 1e-8


def _chirped_pulses():
    return (AtomConfig(gamma_bc=0.3, rho0=rho_symmetric()),
            gauss_pulse(omega=9.0, center=0.4, width=0.12, detuning=-2.5, chirp=60.0),
            gauss_pulse(omega=7.0, center=0.5, width=0.15, detuning=1.5, chirp=-40.0), 1.5)


def _fig2a():
    cfg = preset("fig2a").scenarios[0]
    return cfg.atom, cfg.pump, cfg.control, cfg.t_end


@pytest.mark.parametrize("scenario", [_chirped_pulses, _fig2a])
def test_sector_kernels_match_full_flow_kernels(scenario):
    """The 8x8 sector build gives the kernels of the full 16x16 flow and its inverse."""
    atom, pump, control, t_end = scenario()
    tight = dict(rtol=1e-12, atol=1e-14)
    grid = build_propagator_grid(atom, pump, control, t_end, 150, **tight)
    for j in (0, 40, 150):
        full = full_kernel(atom, pump, control, grid.times, j, **tight)
        assert np.max(np.abs(kernel(grid, j) - full)) < 1e-9 * np.max(np.abs(full))


def test_free_evolution_kernel_is_linear_in_time():
    atom = AtomConfig(gamma_ab=0, gamma_ac=0, gamma_db=0, gamma_dc=0)
    grid = build_propagator_grid(atom, off(), off(), 2.0, 100)
    row = idx("d", "b")
    for i, j in ((40, 10), (100, 0), (77, 77)):
        expected = np.zeros(16)
        expected[row - 1] = grid.times[i] - grid.times[j]
        assert np.allclose(kernel(grid, j)[i, SOURCE_ROWS.index(row)], expected, atol=1e-12)


def test_kernels_match_direct_row_integration():
    """Group-property kernels equal direct trapezoids of a from-s_j solve."""
    atom = AtomConfig(rho0=rho_symmetric())
    pump = gauss_pulse(omega=9.0, center=0.4, width=0.12, detuning=-1.5)
    control = PulseSpec(shape="cw", omega_peak=5.0, detuning=0.7)
    n = 64
    grid = build_propagator_grid(atom, pump, control, 1.0, n)
    j = 20
    u_tail = propagate_from(j, atom, pump, control, grid.times)
    h = grid.step
    k = kernel(grid, j)
    for slot, row in enumerate(SOURCE_ROWS):
        samples = u_tail[:, row - 1, :]
        direct = np.zeros((n + 1, 16), dtype=complex)
        acc = np.zeros(16, dtype=complex)
        for i in range(j + 1, n + 1):
            acc = acc + 0.5 * h * (samples[i - j] + samples[i - j - 1])
            direct[i] = acc
        fast = k[:, slot]
        assert np.max(np.abs(fast[j:] - direct[j:])) < 1e-7


def test_kernel_conjugation_mirror():
    """Resonant real drives: the sigma_db kernel row is the conjugate of the
    sigma_bd row with dagger-permuted columns."""
    atom = AtomConfig(rho0=rho_symmetric())
    pump = gauss_pulse(omega=10.0, center=0.5, width=1.0 / 15.0)
    control = gauss_pulse(omega=10.0, center=0.5, width=1.0 / 15.0)
    grid = build_propagator_grid(atom, pump, control, 1.0, 80)
    for j in (0, 30):
        k = kernel(grid, j)
        k_db = k[:, SOURCE_ROWS.index(14)]
        k_bd = k[:, SOURCE_ROWS.index(8)]
        assert np.max(np.abs(k_db[j:] - np.conj(k_bd[j:, DAGGER0]))) < 1e-10


def test_kernel_quadrature_richardson_ratio():
    atom = AtomConfig(rho0=rho_symmetric())
    pump = gauss_pulse(omega=10.0, center=0.5, width=1.0 / 15.0)
    control = gauss_pulse(omega=10.0, center=0.5, width=1.0 / 15.0)
    tight = dict(rtol=1e-11, atol=1e-14)
    ref = build_propagator_grid(atom, pump, control, 1.5, 960, **tight)
    errors = {}
    for n in (120, 240):
        grid = build_propagator_grid(atom, pump, control, 1.5, n, **tight)
        step = 960 // n
        errors[n] = np.abs(grid.source_cumint - ref.source_cumint[::step]).max()
    ratio = errors[120] / errors[240]
    assert 2.7 < ratio < 5.5


def test_build_validation():
    atom = AtomConfig()
    with pytest.raises(ConfigError):
        build_propagator_grid(atom, off(), off(), -1.0, 100)
    with pytest.raises(ConfigError):
        build_propagator_grid(atom, off(), off(), 1.0, 1)
