import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from ramanpairs import propagator
from ramanpairs.algebra import SECTOR0, SECTOR_CONJ0, SECTOR_HALF0, SOURCE_ROWS, idx, real_form
from ramanpairs.atom import AtomConfig, DriftBuilder, dissipation, evolve_state, state_vector
from ramanpairs.config import apply_override
from ramanpairs.errors import ConfigError
from ramanpairs.moments import _moment_tables
from ramanpairs.noise import diffusion_table
from ramanpairs.presets import PRESET_NAMES, preset
from ramanpairs.propagator import build_propagator_grid
from ramanpairs.pulses import PulseSpec, off
from ramanpairs.runner import run_scenario

from conftest import gauss_pulse, rho_symmetric
from reference import (DAGGER0, full_kernel, generator_norms, interval_chain,
                       kernel, largest_product, orbit_chain, propagate_from, sector_views,
                       whole_flow)

BLOCK = np.ix_(SECTOR0, SECTOR0)
HALF = np.ix_(SECTOR_HALF0, SECTOR_HALF0)


def _sector_error(half, reference):
    """Largest deviation of blockdiag(half, conj half) from the sector of (n, 16, 16) flows."""
    return max(np.max(np.abs(half - reference[:, SECTOR_HALF0[:, None], SECTOR_HALF0])),
               np.max(np.abs(half.conj() - reference[:, SECTOR_CONJ0[:, None], SECTOR_CONJ0])))


def test_constant_drive_matches_matrix_exponential():
    """The exact path's flow, frames, end maps and state are expm(M t) and its pieces."""
    atom = AtomConfig(rho0=rho_symmetric())
    pump = PulseSpec(shape="cw", omega_peak=6.0, detuning=2.0)
    control = PulseSpec(shape="cw", omega_peak=3.0, detuning=-1.0)
    builder = DriftBuilder(atom, pump, control)
    assert propagator._steady_drives(builder)
    times = np.linspace(0.0, 1.2, 25)
    x0 = state_vector(atom.rho0)
    u, _, state, _ = propagator._magnus_chain(builder, x0, times, 1e-9, len(times))  # one frame
    m = builder.entries(0.0)
    for i in (8, 16, 24):
        assert np.max(np.abs(u[i] - expm(m * times[i])[HALF])) < 1e-8
        assert np.max(np.abs(state[i] - expm(m * times[i]) @ x0)) < 1e-8
    # frames of 8 rows: rows 0, 8, 16 and 24 restart at the identity, the state runs on
    frames, ends, framed_state, _ = propagator._magnus_chain(builder, x0, times, 1e-9, 8)
    for i in range(25):
        assert np.max(np.abs(frames[i] - expm(m * (times[i] - times[i - i % 8]))[HALF])) < 1e-8
    assert ends.shape == (3, 4, 4)
    assert np.max(np.abs(ends - expm(m * times[8])[HALF])) < 1e-8
    assert np.max(np.abs(framed_state - state)) < 1e-12
    # time-translation invariance of the cw flow: started at t_12 it steps as from 0
    u_mid = propagator._magnus_chain(builder, state[12], times[12:], 1e-9, 13)[0]
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
    assert propagator._steady_drives(builder)
    grid = build_propagator_grid(cfg.atom, cfg.pump, cfg.control, cfg.t_end, 200)
    x0 = state_vector(cfg.atom.rho0)
    # every interval is quiet: frames and state from powers of the one step map exp(M h)
    frames, ends, state, _ = propagator._magnus_chain(builder, x0, grid.times, 1e-9, grid.block)
    reference = _tight_flow(builder, grid.times)
    scale = np.max(np.abs(reference))
    # frames of at most ln 10 / (mu(D) + mu(-D)) = ln 10 / 2 in time, 76 intervals of 0.015,
    # chained by their end maps, are the flow from 0
    assert (grid.block, len(ends)) == (76, 2)
    assert _sector_error(whole_flow(grid), reference) < 1e-9 * scale
    assert np.max(np.abs(state - reference @ x0)) < 1e-9 * scale
    assert np.array_equal(grid.state_traj, state)
    assert np.array_equal(grid.flow, frames) and np.array_equal(grid.ends, ends)
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
    assert not propagator._steady_drives(builder)
    grid = build_propagator_grid(atom, pump, control, 3.0, 200, rtol=1e-9)
    u_from0 = propagate_from(0, atom, pump, control, grid.times)
    reference = _tight_flow(builder, grid.times)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(u_from0 - reference)) < 1e-7 * scale
    # the build's frames and state, chained together
    x0 = state_vector(atom.rho0)
    state = propagator._magnus_chain(builder, x0, grid.times, 1e-9, grid.block)[2]
    assert _sector_error(whole_flow(grid), reference) < 1e-7 * scale
    assert np.max(np.abs(state - reference @ x0)) < 1e-7 * scale
    assert np.array_equal(grid.state_traj, state)


def _chirped_pulses():
    return (AtomConfig(gamma_bc=0.3, rho0=rho_symmetric()),
            gauss_pulse(omega=9.0, center=0.4, width=0.12, detuning=-2.5, chirp=60.0),
            gauss_pulse(omega=7.0, center=0.5, width=0.15, detuning=1.5, chirp=-40.0), 1.5)


def _substeps(builder, times, rtol):
    """The substeps per interval that the Magnus flow takes on this grid."""
    weights = propagator._magnus_weights(builder, times[:-1], times[1] - times[0])
    return propagator._substeps(weights, propagator._column_sums(builder.generators), rtol)


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
        half = propagator._magnus_chain(builder, x0, times, 1e-2, len(times))[0]
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
# subnormal X: a probe at 0.1 X (1 - 1e-12) would round to 0.1 X
@example(rates=(0.0,) * 5, pump=PulseSpec("cw", 0.0),
         control=PulseSpec("cw", 1.0, chirp=2.2250738585072014e-308), t_end=0.5, n=3,
         rtol=8.285490465418656e-06)
@example(rates=(0.0, 0.0, 0.0, 0.0, 1.0), pump=PulseSpec("cw", 0.0),
         control=gauss_pulse(omega=2.225073858507e-311, center=0.0, width=1.0), t_end=1.0, n=2,
         rtol=7.294615119082055e-05)
def test_substep_bound_is_at_least_the_exact_maximum(rates, pump, control, t_end, n, rtol):
    """The triangle-inequality bound of _substeps is no less than the exact maximum X.

    An exact norm passes its bound only by rounding, so the test allows a
    relative 1e-12.  _substeps returns 2 or more exactly when its bound
    exceeds 10 rtol, so at rtol = 0.1 X (1 - 1e-12) it returns at least 2
    when the bound is at least X (1 - 1e-12).  Then it never takes fewer
    substeps than the exact rule.  The probe needs 0.1 X to be a normal
    float: below that a relative 1e-12 is less than one ulp.
    """
    builder = DriftBuilder(AtomConfig(*rates), pump, control)
    times = np.linspace(0.0, t_end, n + 1)
    weights = propagator._magnus_weights(builder, times[:-1], times[1] - times[0])
    exact = largest_product(weights, builder.generators)
    columns = propagator._column_sums(builder.generators)
    if exact >= 10.0 * np.finfo(float).tiny:
        assert propagator._substeps(weights, columns, 0.1 * exact * (1 - 1e-12)) >= 2
    exact_rule = _exact_rule(weights, builder.generators, rtol)
    assert propagator._substeps(weights, columns, rtol) >= exact_rule


def test_substep_bound_gives_the_exact_rule_on_every_preset():
    """On all 26 time-dependent preset points at their 1600 intervals, m is the exact rule's.

    So the bound changes no preset's flow, and no output, against the exact
    maximum.  The chain takes m from the driven intervals alone, and that is
    the same m.
    """
    points = [cfg for cfg in _preset_configs()
              if not propagator._steady_drives(DriftBuilder(cfg.atom, cfg.pump, cfg.control))]
    assert len(points) == 26
    for cfg in points:
        builder = DriftBuilder(cfg.atom, cfg.pump, cfg.control)
        times = np.linspace(0.0, cfg.t_end, cfg.grid_points + 1)
        weights = propagator._magnus_weights(builder, times[:-1], times[1] - times[0])
        columns = propagator._column_sums(builder.generators)
        quiet = propagator._quiet(weights, columns)[1]
        assert cfg.grid_points == 1600
        exact = _exact_rule(weights, builder.generators, cfg.rtol)
        assert propagator._substeps(weights, columns, cfg.rtol) == exact, cfg.label
        assert propagator._substeps(weights[~quiet], columns, cfg.rtol) == exact, cfg.label


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
        half, _, state, _ = propagator._magnus_chain(builder, x0, times, rtol, len(times))
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
                if propagator._steady_drives(DriftBuilder(cfg.atom, cfg.pump, cfg.control))}
    assert constant == {"fig2a", "fig5_cw", "fig7a", "fig7c", "fig7d"}


def test_composition_residual_small():
    """The Magnus half flow composes, U_A(t_i, s_j) U_A(s_j, 0) = U_A(t_i, 0), and so does X."""
    atom = AtomConfig(rho0=rho_symmetric())
    pump = gauss_pulse(omega=10.0, center=0.5, width=1.0 / 15.0)
    control = gauss_pulse(omega=10.0, center=0.5, width=1.0 / 15.0)
    builder = DriftBuilder(atom, pump, control)
    assert not propagator._steady_drives(builder)
    times = np.linspace(0.0, 2.0, 81)
    u_full, _, state, _ = propagator._magnus_chain(builder, state_vector(atom.rho0), times, 1e-9,
                                                   81)
    rng = np.random.default_rng(3)
    for _ in range(4):
        j = int(rng.integers(5, 60))
        i = int(rng.integers(j + 5, 80))
        u_tail, _, state_tail, _ = propagator._magnus_chain(builder, state[j], times[j:], 1e-9,
                                                            81)
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
    # the frames restart at each block's first row and chain back to the flow from 0
    assert np.array_equal(grid.flow[::grid.block], np.broadcast_to(np.eye(4), (2, 4, 4)))
    u_half = u_from0[:, SECTOR_HALF0[:, None], SECTOR_HALF0]
    assert np.max(np.abs(whole_flow(grid) - u_half)) < 1e-8
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


@pytest.mark.parametrize("name, rows", [("fig2a", 38), ("fig2b", 76)], ids=["fig2a", "fig2b"])
def test_pipeline_drift_evaluations_ode_solves_and_inversions(monkeypatch, name, rows):
    """No scenario solves an ODE or evaluates M; each inverts U_A once, over its distinct frames.

    The Magnus chain, the one flow for constant and time-dependent drives
    alike, reads the drives through DriftBuilder.coefficients.  At 100
    intervals the frames have 38 rows: fig2a's three blocks share the
    first's frame and fig2b's last shares its second's, so the one batched
    inversion takes 38 and 76 rows of the grid's 101.
    """
    cfg = replace(preset(name).scenarios[0], grid_points=100)
    calls = {attr: _record_calls(monkeypatch, owner, attr)
             for owner, attr in ((DriftBuilder, "entries"), (propagator, "solve_ivp"),
                                 (np.linalg, "inv"))}
    run_scenario(cfg)
    assert not calls["solve_ivp"] and not calls["entries"]
    assert [v.shape for v in calls["inv"]] == [(rows, 4, 4)]


@pytest.mark.parametrize("name", ["fig2a", "fig7d"])
def test_constant_drive_shortcut_is_the_chain(monkeypatch, name):
    """The one exact step map's powers are the Magnus chain's running products, to rounding.

    The reference chain takes every interval's own Magnus map and no quiet run.
    """
    cfg = preset(name).scenarios[0]
    builder = DriftBuilder(cfg.atom, cfg.pump, cfg.control)
    assert propagator._steady_drives(builder)
    times = np.linspace(0.0, cfg.t_end, cfg.grid_points + 1)
    x0 = state_vector(cfg.atom.rho0)
    block = propagator._block_rows(builder, times[1])
    shortcut = propagator._magnus_chain(builder, x0, times, cfg.rtol, block)
    monkeypatch.setattr(propagator, "_magnus_chain", interval_chain)
    chained = propagator._magnus_chain(builder, x0, times, cfg.rtol, block)
    for want, got in zip(shortcut[:3], chained[:3]):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _scenario(label):
    """The preset scenario of that label, or the scan point <preset>-<Rabi frequency>."""
    name, _, omega = label.partition("-")
    if omega:
        return apply_override(preset(name).scan, "both.omega_peak", float(omega))
    return next(cfg for cfg in _preset_configs() if cfg.label == label)


def _flows(atom, pump, control, t_end, n, rtol, chain):
    """U_A, the grid and its moment tables, from the library's chain and from `chain`.

    Each side is a tuple (U_A, grid, (boundary, noise, backaction)).
    """
    builder = DriftBuilder(atom, pump, control)
    times = np.linspace(0.0, t_end, n + 1)

    def side():
        half = propagator._magnus_chain(builder, state_vector(atom.rho0), times, rtol,
                                        propagator._block_rows(builder, times[1]))[0]
        grid = build_propagator_grid(atom, pump, control, t_end, n, rtol=rtol)
        return half, grid, _moment_tables(atom, grid, diffusion_table(atom))[:3]

    ours = side()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(propagator, "_magnus_chain", chain)
        return ours, side()


def _preset_flows(label, chain):
    cfg = _scenario(label)
    return _flows(cfg.atom, cfg.pump, cfg.control, cfg.t_end, cfg.grid_points, cfg.rtol, chain)


def _assert_same_flow(ours, reference, tol):
    """U_A, the grid's state, frames and end maps, and the three moment tables agree.

    Each within tol of its largest modulus; tol 0 asks for the same bits, signed zeros too.
    """
    def arrays(side):
        half, grid, tables = side
        return half, grid.state_traj, grid.flow, grid.ends, *tables

    for want, got in zip(arrays(reference), arrays(ours)):
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))
        assert tol or _same_bits(got, want)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("label", ["fig2a", "fig5_cw", "fig7a", "fig7c", "fig7d"])
def test_cw_presets_take_the_orbit_of_one_step_map(label):
    """Every cw preset's chain is the powers of one _expm step map in each frame, bit for bit."""
    cfg = _scenario(label)
    assert propagator._steady_drives(DriftBuilder(cfg.atom, cfg.pump, cfg.control))
    _assert_same_flow(*_preset_flows(label, orbit_chain), 0.0)


PULSED = ["fig2b", "fig4c", "fig7b", "fig3b-30"]


@pytest.mark.parametrize("label", PULSED)
def test_quiet_intervals_are_within_roundoff_of_the_steady_generator(label):
    """Each quiet interval's generator is within 2^-53 of the steady one in the exact 1-norm.

    Both drives are pulses, so the steady generator is the static piece
    times h; the quiet intervals are the two drive-free stretches either side
    of the pulses, about three quarters of the window.
    """
    cfg = _scenario(label)
    builder = DriftBuilder(cfg.atom, cfg.pump, cfg.control)
    times = np.linspace(0.0, cfg.t_end, cfg.grid_points + 1)
    step = times[1] - times[0]
    weights = propagator._magnus_weights(builder, times[:-1], step)
    steady, quiet = propagator._quiet(weights, propagator._column_sums(builder.generators))
    assert np.array_equal(steady, np.eye(15)[0] * step)
    assert quiet.mean() > 0.7
    assert quiet[0] and quiet[-1] and np.count_nonzero(np.diff(quiet)) == 2
    assert np.max(generator_norms(weights[quiet] - steady, builder.generators)) <= 2.0 ** -53


@pytest.mark.parametrize("label", PULSED)
def test_quiet_runs_match_the_per_interval_chain(label):
    """Orbits over the quiet runs move U_A, the state and the moment tables by rounding alone."""
    _assert_same_flow(*_preset_flows(label, interval_chain), 1e-11)


FIG6B = [f"fig6b-{omega:g}" for omega in preset("fig6b").scan.scan.values]


@pytest.mark.parametrize("label", ["fig5_coincident", "fig5_intuitive", "fig5_counterintuitive",
                                   *FIG6B])
def test_drives_without_quiet_intervals_take_the_per_interval_chain(label):
    """Where no interval is quiet, the chain is the per-interval reference bit for bit."""
    cfg = _scenario(label)
    builder = DriftBuilder(cfg.atom, cfg.pump, cfg.control)
    times = np.linspace(0.0, cfg.t_end, cfg.grid_points + 1)
    weights = propagator._magnus_weights(builder, times[:-1], times[1] - times[0])
    assert not propagator._quiet(weights, propagator._column_sums(builder.generators))[1].any()
    _assert_same_flow(*_preset_flows(label, interval_chain), 0.0)


@pytest.mark.parametrize("label", ["fig2a", "fig7d", "fig2b", "fig4c"])
def test_blocks_quiet_over_their_rows_share_the_first_such_frame(label):
    """A block whose rows follow from quiet intervals alone shares the first such block's frame.

    Its flow rows are that frame's first rows, bit for bit; every other
    block has its own, which differs.  The cw presets share one frame in
    all 13 blocks, the pulsed ones from the fifth block on, in the
    drive-free tail.
    """
    cfg = _scenario(label)
    grid = build_propagator_grid(cfg.atom, cfg.pump, cfg.control, cfg.t_end, cfg.grid_points,
                                 rtol=cfg.rtol)
    builder = DriftBuilder(cfg.atom, cfg.pump, cfg.control)
    weights = propagator._magnus_weights(builder, grid.times[:-1], grid.step)
    quiet = propagator._quiet(weights, propagator._column_sums(builder.generators))[1]
    firsts = range(0, len(grid.times), grid.block)
    steady = [b for b, first in enumerate(firsts) if quiet[first:first + grid.block - 1].all()]
    assert list(grid.shares) == [steady[0] if b in steady else b for b in range(len(firsts))]
    assert steady == list(range(0 if propagator._steady_drives(builder) else 4, 13))
    frame = grid.flow[steady[0] * grid.block:][:grid.block]
    for b, first in enumerate(firsts):
        rows = grid.flow[first:first + grid.block]
        assert _same_bits(rows, frame[:len(rows)]) == (b in steady)


@pytest.mark.parametrize("label", ["fig2a", "fig5_cw", "fig7a", "fig7c", "fig7d"])
def test_cw_unchirped_drives_take_the_weights_of_one_interval(monkeypatch, label):
    """Every interval of a cw unchirped drive has the first one's Magnus weights.

    The build evaluates them on that interval alone, and gives the grid that
    every interval's own weights give, bit for bit.
    """
    cfg = _scenario(label)
    calls = []
    weights = propagator._magnus_weights

    def recorded(builder, starts, step):
        calls.append(len(starts))
        return weights(builder, starts, step)

    def grid():
        return build_propagator_grid(cfg.atom, cfg.pump, cfg.control, cfg.t_end, cfg.grid_points,
                                     rtol=cfg.rtol)

    monkeypatch.setattr(propagator, "_magnus_weights", recorded)
    ours = grid()
    assert calls == [1]
    monkeypatch.setattr(propagator, "_steady_drives", lambda builder: False)
    forced = grid()
    assert calls == [1, cfg.grid_points]
    for name in ("times", "state_traj", "flow", "ends", "shares"):
        assert _same_bits(getattr(ours, name), getattr(forced, name)), name


# pulses as the presets chirp them, about their centre, up to fig4's strongest chirp
GAUSSIAN = st.builds(lambda center, **kw: gauss_pulse(center=center, chirp_origin=center, **kw),
                     omega=st.floats(0.0, 30.0), center=st.floats(0.0, 3.0),
                     width=st.floats(0.02, 0.5), detuning=DETUNING, chirp=st.floats(-225.0, 225.0))


@settings(max_examples=20, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
@given(pump=GAUSSIAN, control=st.one_of(GAUSSIAN, CW), rtol=st.sampled_from([1e-8, 1e-10]))
def test_quiet_runs_match_the_per_interval_chain_for_any_pulse(pump, control, rtol):
    """Random Gaussian pulses, against a pulse or a cw drive: the agreement of the presets.

    A cw drive stays in the steady generator, so the quiet intervals there
    carry it too.
    """
    atom = AtomConfig(rho0=rho_symmetric())
    _assert_same_flow(*_flows(atom, pump, control, 3.0, 400, rtol, interval_chain), 1e-11)


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
        errors[n] = np.abs(sector_views(grid)[0] - sector_views(ref)[0][::step]).max()
    ratio = errors[120] / errors[240]
    assert 2.7 < ratio < 5.5


@pytest.mark.parametrize("sizes", [(1, 1, 1), (3, 4, 2, 1), (5, 5), (2, 7, 1)])
def test_segment_trapezoids_add_up_to_the_whole_grid_rule(sizes):
    """Each segment's trapezoid, after the sum of those before it, is the whole grid's rule.

    The segments share their edge rows, as the blocks of the moment assembly do.
    """
    rng = np.random.default_rng(len(sizes))
    v = rng.normal(size=(sum(sizes) + 1, 3, 2)) + 1j * rng.normal(size=(sum(sizes) + 1, 3, 2))
    whole = propagator._cumulative_trapezoid(v, 0.1)
    total, start = 0.0, 0
    for size in sizes:
        segment = total + propagator._cumulative_trapezoid(v[start:start + size + 1], 0.1)
        error = np.max(np.abs(segment - whole[start:start + size + 1]))
        assert error <= 1e-15 * len(v) * np.max(np.abs(whole))
        total, start = segment[-1], start + size


@settings(max_examples=30, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
@given(rates=st.tuples(RATE, RATE, RATE, RATE, RATE), pump=DRIVE, control=DRIVE,
       t_end=st.floats(0.5, 20.0))
@example(rates=(0.0, 0.0, 0.0, 0.0, 1.1125369292536007e-308), pump=gauss_pulse(omega=0.0),
         control=gauss_pulse(omega=0.0), t_end=1.0)  # ln 10 over a subnormal spread
def test_every_frame_has_condition_at_most_ten(rates, pump, control, t_end):
    """Each block's flow U_A(t, t_b), which the kernels invert, and its end map: condition <= 10.

    On the sector half only the dissipator has a Hermitian part: the four drive
    pieces, with their chirps, and the detunings in the static piece are
    anti-Hermitian there, so the atom alone sizes the blocks (_block_rows).
    """
    atom = AtomConfig(*rates)
    builder = DriftBuilder(atom, pump, control)
    pieces = builder.generators[:5].copy()
    pieces[0] -= dissipation(atom)
    scale = np.max(np.abs(builder.generators[0]))
    for piece in pieces[:, SECTOR_HALF0[:, None], SECTOR_HALF0]:
        assert np.max(np.abs(piece + piece.conj().T)) <= 1e-15 * scale
    grid = build_propagator_grid(atom, pump, control, t_end, 1000)
    assert np.linalg.cond(grid.flow).max() <= 10.0
    assert np.linalg.cond(grid.ends).max(initial=1.0) <= 10.0


def test_build_validation():
    atom = AtomConfig()
    with pytest.raises(ConfigError):
        build_propagator_grid(atom, off(), off(), -1.0, 100)
    with pytest.raises(ConfigError):
        build_propagator_grid(atom, off(), off(), 1.0, 1)


def test_build_rejects_a_fractional_grid_size():
    """100.5 used to run on 100 intervals; an integer of any type still runs."""
    for n_intervals in (100.5, 100.0):
        with pytest.raises(ConfigError, match="n_intervals must be an integer"):
            build_propagator_grid(AtomConfig(), off(), off(), 1.0, n_intervals)
    assert len(build_propagator_grid(AtomConfig(), off(), off(), 1.0, np.int64(100)).times) == 101


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
