from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from ramanpairs import propagator
from ramanpairs.algebra import SOURCE_ROWS, idx
from ramanpairs.atom import AtomConfig, DriftBuilder, evolve_state, state_vector
from ramanpairs.config import apply_override
from ramanpairs.errors import ConfigError
from ramanpairs.presets import PRESET_NAMES, preset
from ramanpairs.propagator import build_propagator_grid
from ramanpairs.pulses import PulseSpec, off
from ramanpairs.runner import run_scenario

from conftest import gauss_pulse, rho_symmetric
from reference import DAGGER0, kernel, propagate_from


def test_constant_drive_matches_matrix_exponential():
    atom = AtomConfig(rho0=rho_symmetric())
    pump = PulseSpec(shape="cw", omega_peak=6.0, detuning=2.0)
    control = PulseSpec(shape="cw", omega_peak=3.0, detuning=-1.0)
    times = np.linspace(0.0, 1.2, 25)
    u = propagate_from(0, atom, pump, control, times)
    m = DriftBuilder(atom, pump, control).entries(0.0)
    for i in (8, 16, 24):
        assert np.max(np.abs(u[i] - expm(m * times[i]))) < 1e-8
    # time-translation invariance of the cw flow
    u_mid = propagate_from(12, atom, pump, control, times)
    assert np.max(np.abs(u_mid[8] - u[8])) < 1e-8


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
    u_from0 = propagate_from(0, cfg.atom, cfg.pump, cfg.control, grid.times)
    reference = _tight_flow(builder, grid.times)
    assert np.max(np.abs(u_from0 - reference)) < 1e-9 * np.max(np.abs(reference))
    # the exact path's v_inverse, powers of expm(-M h), inverts the forward flow
    worst = max(np.max(np.abs(grid.v_inverse[j] @ u_from0[j] - np.eye(16)))
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
    assert np.max(np.abs(u_from0 - reference)) < 1e-7 * np.max(np.abs(reference))


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
    atom = AtomConfig(rho0=rho_symmetric())
    pump = gauss_pulse(omega=10.0, center=0.5, width=1.0 / 15.0)
    control = gauss_pulse(omega=10.0, center=0.5, width=1.0 / 15.0)
    times = np.linspace(0.0, 2.0, 81)
    u_full = propagate_from(0, atom, pump, control, times)
    rng = np.random.default_rng(3)
    for _ in range(4):
        j = int(rng.integers(5, 60))
        i = int(rng.integers(j + 5, 80))
        u_tail = propagate_from(j, atom, pump, control, times)
        residual = np.max(np.abs(u_full[i] - u_tail[i - j] @ u_full[j]))
        assert residual < 1e-8


def test_grid_build_invariants():
    atom = AtomConfig(rho0=rho_symmetric())
    pump = gauss_pulse(omega=8.0)
    control = gauss_pulse(omega=8.0)
    grid = build_propagator_grid(atom, pump, control, 1.5, 150)
    # the flow the build solves starts at the identity and carries the state
    u_from0 = propagate_from(0, atom, pump, control, grid.times)
    assert np.allclose(u_from0[0], np.eye(16))
    assert np.array_equal(grid.state_traj, u_from0 @ state_vector(atom.rho0))
    # v_inverse really inverts the forward flow
    worst = max(np.max(np.abs(grid.v_inverse[j] @ u_from0[j] - np.eye(16)))
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
