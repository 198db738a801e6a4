import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from ramanpairs import propagator
from ramanpairs.algebra import SECTOR0, SECTOR_CONJ0, SECTOR_HALF0, SOURCE_ROWS, idx, real_form
from ramanpairs.atom import AtomConfig, DriftBuilder, evolve_state, state_vector
from ramanpairs.config import apply_override
from ramanpairs.errors import ConfigError
from ramanpairs.presets import PRESET_NAMES, preset
from ramanpairs.propagator import build_propagator_grid
from ramanpairs.pulses import PulseSpec, off
from ramanpairs.runner import run_scenario

from conftest import gauss_pulse, rho_symmetric
from reference import DAGGER0, full_kernel, kernel, largest_product, propagate_from

BLOCK = np.ix_(SECTOR0, SECTOR0)
HALF = np.ix_(SECTOR_HALF0, SECTOR_HALF0)


def _sector_error(half, reference):
    """Largest deviation of blockdiag(half, conj half) from the sector of (n, 16, 16) flows."""
    return max(np.max(np.abs(half - reference[:, SECTOR_HALF0[:, None], SECTOR_HALF0])),
               np.max(np.abs(half.conj() - reference[:, SECTOR_CONJ0[:, None], SECTOR_CONJ0])))


def test_constant_drive_matches_matrix_exponential():
    """The exact path's half flow, inverse and state are expm(M t) and its inverse."""
    atom = AtomConfig(rho0=rho_symmetric())
    pump = PulseSpec(shape="cw", omega_peak=6.0, detuning=2.0)
    control = PulseSpec(shape="cw", omega_peak=3.0, detuning=-1.0)
    builder = DriftBuilder(atom, pump, control)
    assert builder.constant
    times = np.linspace(0.0, 1.2, 25)
    x0 = state_vector(atom.rho0)
    u, v, state = propagator._solve_flow(builder, x0, times, 1e-9)
    m = builder.entries(0.0)
    for i in (8, 16, 24):
        assert np.max(np.abs(u[i] - expm(m * times[i])[HALF])) < 1e-8
        assert np.max(np.abs(v[i] - expm(-m * times[i])[HALF])) < 1e-8
        assert np.max(np.abs(state[i] - expm(m * times[i]) @ x0)) < 1e-8
    # time-translation invariance of the cw flow: started at t_12 it steps as from 0
    u_mid, _, _ = propagator._solve_flow(builder, state[12], times[12:], 1e-9)
    assert np.max(np.abs(u_mid[8] - u[8])) < 1e-8
    assert np.max(np.abs(u_mid[8] @ u[12] - u[20])) < 1e-8


RATE = st.floats(min_value=0.0, max_value=3.0)
CW = st.builds(PulseSpec, shape=st.just("cw"), omega_peak=st.floats(0.0, 20.0),
               detuning=st.floats(-60.0, 60.0), phase0=st.floats(-3.2, 3.2))


# no explain phase, as the other pipeline property tests
@settings(max_examples=60, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
@given(rates=st.tuples(RATE, RATE, RATE, RATE, RATE), pump=CW, control=CW,
       log_step=st.floats(min_value=-4.0, max_value=np.log10(3.0)))
@example(rates=(1.0, 1.0, 1.0, 1.0, 0.5), pump=PulseSpec(shape="cw", omega_peak=5.0,
         detuning=-50.0), control=PulseSpec(shape="cw", omega_peak=20.0, detuning=60.0),
         log_step=np.log10(3.0))  # |A|_1 ~ 200: seven squarings
def test_step_exponential_matches_scipy_expm(rates, pump, control, log_step):
    """expm(M h), whole and as the chain's real blocks, from 1e-4 up to a whole window.

    The steps span |M h|_1 from below 1e-2, where the Taylor sum alone
    serves, to above 50, where the squarings do most of the work.
    """
    m_step = DriftBuilder(AtomConfig(*rates), pump, control).entries(0.0) * 10.0 ** log_step
    real = real_form(m_step)
    for a in (m_step, np.stack((real[:8, :8], real[8:, 8:]))):
        reference = expm(a)
        error = np.max(np.abs(propagator._expm(a) - reference))
        assert error <= 1e-12 * np.max(np.abs(reference))


def _tight_flow(builder, times):
    """Independent reference for U(t, 0): RK45 at rtol 1e-12, not the library's Magnus flow."""

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
    # the exact path: half block and state from powers of the one step map exp(M h)
    half, _, state = propagator._solve_flow(builder, x0, grid.times, 1e-9)
    reference = _tight_flow(builder, grid.times)
    scale = np.max(np.abs(reference))
    assert _sector_error(half, reference) < 1e-9 * scale
    assert np.max(np.abs(state - reference @ x0)) < 1e-9 * scale
    assert np.array_equal(grid.state_traj, state)
    # v_inverse inverts the forward flow's half block
    worst = max(np.max(np.abs(grid.v_inverse[j] @ half[j] - np.eye(4)))
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
    grid = build_propagator_grid(atom, pump, control, 3.0, 200, rtol=1e-9)
    u_from0 = propagate_from(0, atom, pump, control, grid.times)
    reference = _tight_flow(builder, grid.times)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(u_from0 - reference)) < 1e-7 * scale
    # the build's half block and state, chained together
    x0 = state_vector(atom.rho0)
    half, _, state = propagator._solve_flow(builder, x0, grid.times, 1e-9)
    assert _sector_error(half, reference) < 1e-7 * scale
    assert np.max(np.abs(state - reference @ x0)) < 1e-7 * scale
    assert np.array_equal(grid.state_traj, state)


def _chirped_pulses():
    return (AtomConfig(gamma_bc=0.3, rho0=rho_symmetric()),
            gauss_pulse(omega=9.0, center=0.4, width=0.12, detuning=-2.5, chirp=60.0),
            gauss_pulse(omega=7.0, center=0.5, width=0.15, detuning=1.5, chirp=-40.0), 1.5)


def _substeps(builder, times, rtol):
    """The substeps per interval that the Magnus flow takes on this grid."""
    weights = propagator._magnus_weights(builder, times[:-1], times[1] - times[0])
    return propagator._substeps(weights, builder.generators, rtol)


def test_magnus_flow_is_fourth_order():
    """One Magnus step per interval: halving the step cuts the flow's error 16-fold."""
    atom, pump, control, t_end = _chirped_pulses()
    builder = DriftBuilder(atom, pump, control)
    x0 = state_vector(atom.rho0)
    coarse = np.linspace(0.0, t_end, 801)
    reference = _tight_flow(builder, coarse)
    errors = []
    for n in (800, 1600):
        times = np.linspace(0.0, t_end, n + 1)
        assert _substeps(builder, times, 1e-2) == 1
        half, _, _ = propagator._solve_flow(builder, x0, times, 1e-2)
        errors.append(_sector_error(half[::n // 800], reference))
    # far above the tight solve's error
    assert errors[1] > 1e-10 * np.max(np.abs(reference[:, BLOCK[0], BLOCK[1]]))
    assert 12.0 < errors[0] / errors[1] < 20.0


DETUNING = st.floats(-60.0, 60.0)
CHIRP = st.floats(-300.0, 300.0)
DRIVE = st.one_of(
    st.builds(gauss_pulse, omega=st.floats(0.0, 50.0), center=st.floats(-0.5, 3.5),
              width=st.floats(0.02, 1.0), detuning=DETUNING, chirp=CHIRP),
    st.builds(PulseSpec, shape=st.just("cw"), omega_peak=st.floats(0.0, 50.0),
              detuning=DETUNING, chirp=st.one_of(st.just(0.0), CHIRP)))


def _exact_rule(weights, generators, rtol):
    """The substeps of the rule m = ceil((0.1 X / rtol)^(1/4)) at the exact maximum X."""
    return max(1, math.ceil((0.1 * largest_product(weights, generators) / rtol) ** 0.25))


@settings(max_examples=60, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
@given(rates=st.tuples(RATE, RATE, RATE, RATE, RATE), pump=DRIVE, control=DRIVE,
       t_end=st.floats(0.1, 3.0), n=st.integers(2, 400), rtol=st.floats(1e-12, 1e-4))
@example(rates=(1.0, 1.0, 1.0, 1.0, 0.0), pump=PulseSpec("cw", 5.0, detuning=-2.0),
         control=gauss_pulse(omega=0.0), t_end=3.0, n=1600, rtol=1e-8)  # every product is 0
def test_substep_bound_is_at_least_the_exact_maximum(rates, pump, control, t_end, n, rtol):
    """The triangle-inequality bound of _substeps is no less than the exact maximum X.

    An exact norm passes its bound only by rounding, so the test allows a
    relative 1e-12.  _substeps returns 2 or more exactly when its bound
    exceeds 10 rtol, so at rtol = 0.1 X (1 - 1e-12) it returns at least 2
    when the bound is at least X (1 - 1e-12).  Then it never takes fewer
    substeps than the exact rule.
    """
    builder = DriftBuilder(AtomConfig(*rates), pump, control)
    times = np.linspace(0.0, t_end, n + 1)
    weights = propagator._magnus_weights(builder, times[:-1], times[1] - times[0])
    exact = largest_product(weights, builder.generators)
    if exact > 0.0:
        assert propagator._substeps(weights, builder.generators, 0.1 * exact * (1 - 1e-12)) >= 2
    assert (propagator._substeps(weights, builder.generators, rtol)
            >= _exact_rule(weights, builder.generators, rtol))


def test_substep_bound_gives_the_exact_rule_on_every_preset():
    """On all 26 time-dependent preset points at their 1600 intervals, m is the exact rule's.

    So the bound changes no preset's flow, and no output, against the exact maximum.
    """
    points = [cfg for cfg in _preset_configs()
              if not DriftBuilder(cfg.atom, cfg.pump, cfg.control).constant]
    assert len(points) == 26
    for cfg in points:
        builder = DriftBuilder(cfg.atom, cfg.pump, cfg.control)
        times = np.linspace(0.0, cfg.t_end, cfg.grid_points + 1)
        weights = propagator._magnus_weights(builder, times[:-1], times[1] - times[0])
        assert cfg.grid_points == 1600
        assert (propagator._substeps(weights, builder.generators, cfg.rtol)
                == _exact_rule(weights, builder.generators, cfg.rtol)), cfg.label


@pytest.mark.parametrize("atom, pump, control, t_end, n", [
    (AtomConfig(rho0=rho_symmetric()), PulseSpec("cw", 5.0, detuning=-50.0, chirp=20.0),
     PulseSpec("cw", 10.0), 3.0, 200),
    (AtomConfig(rho0=rho_symmetric()), PulseSpec("cw", 5.0), PulseSpec("cw", 10.0, chirp=-0.5),
     3.0, 200),
    (AtomConfig(rho0=rho_symmetric()), gauss_pulse(omega=10.0), PulseSpec("cw", 10.0), 3.0, 200),
    (AtomConfig(rho0=rho_symmetric()), off(), gauss_pulse(omega=10.0, detuning=-2.0), 3.0, 200),
    (AtomConfig(rho0=rho_symmetric()), *_fig6b_drives(50.0), 3.0, 200),
    (*_chirped_pulses(), 150),
], ids=["cw-detuned-chirped", "cw-chirped", "pulse-cw", "off-pulse", "fig6b-50", "chirped-pair"])
def test_substep_rule_meets_rtol(atom, pump, control, t_end, n):
    """The substeps the rule picks bring the flow within rtol of a tight solve, on coarse grids.

    The drives of test_time_dependent_drive_grid_matches_tight_solve over 200
    intervals of [0, 3], and the chirped pair of test_state_traj_matches_evolve_state.
    """
    builder = DriftBuilder(atom, pump, control)
    times = np.linspace(0.0, t_end, n + 1)
    reference = _tight_flow(builder, times)
    scale = np.max(np.abs(reference))
    x0 = state_vector(atom.rho0)
    for rtol in (1e-8, 1e-10):
        half, _, state = propagator._solve_flow(builder, x0, times, rtol)
        assert _sector_error(half, reference) <= rtol * scale
        assert np.max(np.abs(state - reference @ x0)) <= rtol * scale


@settings(max_examples=60, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
@given(rates=st.tuples(RATE, RATE, RATE, RATE, RATE),
       pump=st.builds(gauss_pulse, omega=st.floats(0.0, 50.0), detuning=DETUNING, chirp=CHIRP,
                      phase0=st.floats(-3.2, 3.2)),
       control=st.builds(PulseSpec, shape=st.just("cw"), omega_peak=st.floats(0.0, 50.0),
                         detuning=DETUNING, chirp=CHIRP),
       t=st.floats(0.0, 3.0))
@example(rates=(0.0, 0.0, 0.0, 2.2250738585e-313, 0.0), pump=gauss_pulse(omega=0.0),
         control=PulseSpec("cw", 0.0), t=0.0)  # real_form is one subnormal ulp off
def test_sector_halves_are_conjugate(rates, pump, control, t):
    """M_S = blockdiag(A, conj A) on (SECTOR_HALF0, SECTOR_CONJ0), exactly, for any drive.

    The Magnus flow chains only the half A and takes the other half as the
    conjugate; in the Hermitian coordinates M is real and block diagonal.
    The two rounded comparisons allow 1e-12 max|M|, but never less than the
    smallest subnormal: with subnormal rates that product underflows below
    the spacing of the entries, which rounding can miss by one ulp.
    """
    builder = DriftBuilder(AtomConfig(*rates), pump, control)
    m = builder.entries(t)
    half, conj = SECTOR_HALF0, SECTOR_CONJ0
    assert np.array_equal(m[np.ix_(conj, conj)], m[np.ix_(half, half)].conj())
    assert not m[np.ix_(half, conj)].any() and not m[np.ix_(conj, half)].any()
    atol = max(1e-12 * np.max(np.abs(m)), np.finfo(float).smallest_subnormal)
    real = real_form(m)
    a = m[np.ix_(half, half)]
    assert np.allclose(real[:8, :8], np.block([[a.real, -a.imag], [a.imag, a.real]]),
                       rtol=0.0, atol=atol)
    assert not real[:8, 8:].any() and not real[8:, :8].any()
    # the drive decomposition the Magnus steps weigh gives the same M
    weights = builder.coefficients(np.array([t]))[0]
    assert np.allclose(np.tensordot(weights, builder.generators[:5], 1), m, rtol=0.0, atol=atol)


def _preset_configs():
    """Every scenario of every preset, each scan point as its own scenario."""
    for name in PRESET_NAMES:
        chosen = preset(name)
        if chosen.kind == "scan":
            scan = chosen.scan.scan
            yield from (apply_override(chosen.scan, scan.parameter, v) for v in scan.values)
        else:
            yield from chosen.scenarios


def test_constant_drive_presets():
    """A wrong classification would write a silently wrong CSV."""
    constant = {cfg.label for cfg in _preset_configs()
                if DriftBuilder(cfg.atom, cfg.pump, cfg.control).constant}
    assert constant == {"fig2a", "fig5_cw", "fig7a", "fig7c", "fig7d"}


def test_composition_residual_small():
    """The Magnus half flow composes, U_A(t_i, s_j) U_A(s_j, 0) = U_A(t_i, 0), and so does X."""
    atom = AtomConfig(rho0=rho_symmetric())
    pump = gauss_pulse(omega=10.0, center=0.5, width=1.0 / 15.0)
    control = gauss_pulse(omega=10.0, center=0.5, width=1.0 / 15.0)
    builder = DriftBuilder(atom, pump, control)
    assert not builder.constant
    times = np.linspace(0.0, 2.0, 81)
    u_full, _, state = propagator._solve_flow(builder, state_vector(atom.rho0), times, 1e-9)
    rng = np.random.default_rng(3)
    for _ in range(4):
        j = int(rng.integers(5, 60))
        i = int(rng.integers(j + 5, 80))
        u_tail, _, state_tail = propagator._solve_flow(builder, state[j], times[j:], 1e-9)
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
    # X is solved together with the half block, so it matches U X(0) to the solve's accuracy
    assert np.max(np.abs(grid.state_traj - u_from0 @ state_vector(atom.rho0))) < 1e-8
    # v_inverse really inverts the forward flow's half block
    worst = max(np.max(np.abs(grid.v_inverse[j] @ u_from0[j][HALF] - np.eye(4)))
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


@pytest.mark.parametrize("name", ["fig2a", "fig2b"])
def test_pipeline_drift_evaluations_ode_solves_and_inversions(monkeypatch, name):
    """No scenario solves an ODE or evaluates M; each inverts U_A once, over the whole grid.

    The Magnus chain, the one flow for constant and time-dependent drives
    alike, reads the drives through DriftBuilder.coefficients.
    """
    cfg = replace(preset(name).scenarios[0], grid_points=100)
    calls = {attr: _record_calls(monkeypatch, owner, attr)
             for owner, attr in ((DriftBuilder, "entries"), (propagator, "solve_ivp"),
                                 (np.linalg, "inv"))}
    run_scenario(cfg)
    assert not calls["solve_ivp"] and not calls["entries"]
    assert [v.shape for v in calls["inv"]] == [(101, 4, 4)]


@pytest.mark.parametrize("name", ["fig2a", "fig7d"])
def test_constant_drive_shortcut_is_the_chain(monkeypatch, name):
    """The one exact step map's powers are the Magnus chain's running products, to rounding."""
    cfg = preset(name).scenarios[0]
    builder = DriftBuilder(cfg.atom, cfg.pump, cfg.control)
    assert builder.constant
    times = np.linspace(0.0, cfg.t_end, cfg.grid_points + 1)
    x0 = state_vector(cfg.atom.rho0)
    shortcut = propagator._solve_flow(builder, x0, times, cfg.rtol)
    monkeypatch.setattr(DriftBuilder, "constant", False)
    chained = propagator._solve_flow(builder, x0, times, cfg.rtol)
    for want, got in zip(shortcut, chained):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_state_traj_matches_evolve_state():
    """U(t, 0) X(0) reproduces the direct state solve on a chirped, detuned pulse."""
    atom = AtomConfig(gamma_bc=0.3, rho0=rho_symmetric())
    pump = gauss_pulse(omega=9.0, center=0.4, width=0.12, detuning=-2.5, chirp=60.0)
    control = gauss_pulse(omega=7.0, center=0.5, width=0.15, detuning=1.5, chirp=-40.0)
    grid = build_propagator_grid(atom, pump, control, 1.5, 150)
    reference = evolve_state(atom, pump, control, grid.times)
    assert np.max(np.abs(grid.state_traj - reference)) < 1e-8


def _fig2a():
    cfg = preset("fig2a").scenarios[0]
    return cfg.atom, cfg.pump, cfg.control, cfg.t_end


@pytest.mark.parametrize("scenario", [_chirped_pulses, _fig2a])
def test_sector_kernels_match_full_flow_kernels(scenario):
    """The 4x4 half build gives the kernels of the full 16x16 flow and its inverse."""
    atom, pump, control, t_end = scenario()
    grid = build_propagator_grid(atom, pump, control, t_end, 150, rtol=1e-12)
    for j in (0, 40, 150):
        full = full_kernel(atom, pump, control, grid.times, j, rtol=1e-12, atol=1e-14)
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
    ref = build_propagator_grid(atom, pump, control, 1.5, 960, rtol=1e-11)
    errors = {}
    for n in (120, 240):
        grid = build_propagator_grid(atom, pump, control, 1.5, n, rtol=1e-11)
        step = 960 // n
        errors[n] = np.abs(grid.source_cumint - ref.source_cumint[::step]).max()
    ratio = errors[120] / errors[240]
    assert 2.7 < ratio < 5.5


@pytest.mark.parametrize("sizes", [(1, 1, 1), (3, 4, 2, 1), (5, 5), (2, 7, 1)])
def test_streamed_trapezoid_is_bitwise_the_whole_grid_rule(sizes):
    """Row blocks sharing one carry give the whole-grid cumulative trapezoid bit for bit."""
    rng = np.random.default_rng(len(sizes))
    v = rng.normal(size=(sum(sizes), 3, 2)) + 1j * rng.normal(size=(sum(sizes), 3, 2))
    whole = propagator._cumulative_trapezoid(v, 0.1)
    carry, blocks, start = [], [], 0
    for size in sizes:
        blocks.append(propagator._cumulative_trapezoid(v[start:start + size], 0.1, carry))
        start += size
    assert np.array_equal(np.concatenate(blocks), whole)
    assert np.array_equal(carry[0], np.cumsum(v, axis=0)[-1])
    assert np.array_equal(carry[1], v[0])


def test_build_validation():
    atom = AtomConfig()
    with pytest.raises(ConfigError):
        build_propagator_grid(atom, off(), off(), -1.0, 100)
    with pytest.raises(ConfigError):
        build_propagator_grid(atom, off(), off(), 1.0, 1)


def test_api_default_tolerance_is_the_scenario_default():
    """build_propagator_grid at its default rtol takes the flow run_scenario takes.

    fig3b at Omega 30 on 200 intervals needs many substeps, and their number
    moves with rtol.
    """
    cfg = replace(apply_override(preset("fig3b").scan, "both.omega_peak", 30.0), grid_points=200)
    builder = DriftBuilder(cfg.atom, cfg.pump, cfg.control)
    times = np.linspace(0.0, cfg.t_end, cfg.grid_points + 1)
    assert _substeps(builder, times, cfg.rtol) != _substeps(builder, times, 0.1 * cfg.rtol)
    default = build_propagator_grid(cfg.atom, cfg.pump, cfg.control, cfg.t_end, cfg.grid_points)
    scenario = build_propagator_grid(cfg.atom, cfg.pump, cfg.control, cfg.t_end, cfg.grid_points,
                                     rtol=cfg.rtol)
    assert np.array_equal(default.state_traj, scenario.state_traj)
