from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from scipy import sparse
from scipy.integrate import solve_ivp

from ramanpairs import dop853, oracle

from ramanpairs.atom import AtomConfig, evolve_state
from ramanpairs.config import apply_override
from ramanpairs.errors import ConfigError, CutoffError
from ramanpairs.moments import compute_moments
from ramanpairs.noise import diffusion_table
from ramanpairs.oracle import OracleConfig, _field_ops, _generator, _thermal, oracle_moments
from ramanpairs.presets import PRESET_NAMES, preset
from ramanpairs.propagator import build_propagator_grid
from ramanpairs.pulses import PulseSpec, rabi
from ramanpairs.runner import run_verification

from conftest import gauss_pulse, rho_symmetric
from reference import drive_liouvillian, drive_weights, kron_liouvillian


def test_dimension_cap_enforced():
    with pytest.raises(ConfigError):
        OracleConfig(cutoff_k=8, cutoff_q=8)
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
    ms = compute_moments(atom, grid, diffusion_table(atom))
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
    ms = compute_moments(atom, grid, diffusion_table(atom))
    times = grid.times[::25]
    out = oracle_moments(atom, pump, pump, times,
                         OracleConfig(cutoff_k=2, cutoff_q=2, g_k=g, g_q=g))
    sel = slice(None, None, 25)
    for name, pipe, orc in (("n_k", ms.n_k.total[sel], out.n_k),
                            ("n_q", ms.n_q.total[sel], out.n_q),
                            ("pair", ms.pair.total[sel], out.pair)):
        scale = max(np.abs(orc).max(), 1e-12)
        assert np.max(np.abs(pipe - orc)) < 0.02 * scale, name


def test_conversion_and_squeezing_moments_vanish_in_the_oracle():
    """<a_q a_k^dag>, <a_k^2> and <a_q^2>, which the pipeline does not carry, are zero here too.

    A coherent thermal atom with chirped, detuned pulses: rho0 has ab, ac and
    bd coherences, so the means are live, and both modes start thermal.
    """
    rho = np.diag([0.1, 0.4, 0.4, 0.1]).astype(complex)
    for (i, j), value in (((0, 1), 0.1 + 0.05j), ((0, 2), 0.08j), ((1, 3), 0.1 - 0.04j)):
        rho[i, j], rho[j, i] = value, np.conj(value)
    atom = AtomConfig(gamma_ab=0.9, gamma_ac=1.1, gamma_db=1.0, gamma_dc=0.7, gamma_bc=0.4,
                      n_th_k=0.05, n_th_q=0.02, rho0=rho)
    pump = gauss_pulse(omega=8.0, center=0.4, width=0.15, detuning=-2.0, chirp=3.0)
    control = gauss_pulse(omega=5.0, center=0.5, width=0.2, detuning=1.0, chirp=-4.0)
    out = oracle_moments(atom, pump, control, np.linspace(0.0, 0.8, 9),
                         OracleConfig(cutoff_k=6, cutoff_q=6, g_k=0.05, g_q=0.05))
    assert np.abs(out.mean_k).max() > 1e-3
    scale = np.abs(out.n_k).max()
    for name in ("cross", "square_k", "square_q"):
        assert np.abs(getattr(out, name)).max() <= 1e-12 * scale, name


def _full_space_moments(atom, pump, control, times, cfg):
    """Reference: DOP853 on all of vec(rho), no reachable-set restriction.

    Moments come out as traces against operators on the whole joint space,
    not through the oracle's partial traces.
    """
    dim_k, dim_q = cfg.cutoff_k + 1, cfg.cutoff_q + 1
    stacked = sparse.vstack(drive_liouvillian(atom, pump, control, dim_k, dim_q, cfg.g_k, cfg.g_q))

    def rhs(t, y):
        return np.asarray(drive_weights((pump, control), t)) @ (stacked @ y).reshape(5, -1)

    rho0 = np.kron(np.kron(atom.rho0, _thermal(dim_k, atom.n_th_k)), _thermal(dim_q, atom.n_th_q))
    sol = solve_ivp(rhs, (times[0], times[-1]), rho0.reshape(-1), method="DOP853",
                    t_eval=times, rtol=cfg.rtol, atol=cfg.atol)
    assert sol.success
    dim_f = dim_k * dim_q
    rhos = sol.y.T.reshape(len(times), 4 * dim_f, 4 * dim_f)

    def expect(op):
        return np.einsum("tij,ji->t", rhos, op)

    a_k, a_q = (np.kron(np.eye(4), a) for a in _field_ops(dim_k, dim_q))
    top_k = np.kron(np.eye(4), np.kron(np.diag(np.eye(dim_k)[-1]), np.eye(dim_q)))
    top_q = np.kron(np.eye(4 * dim_k), np.diag(np.eye(dim_q)[-1]))
    sigma = [np.kron(np.outer(np.eye(4)[x], np.eye(4)[y]), np.eye(dim_f))
             for x in range(4) for y in range(4)]  # sigma_xy at m = 4x + y
    return {"n_k": expect(a_k.T @ a_k), "n_q": expect(a_q.T @ a_q),
            "pair": expect(a_q @ a_k), "cross": expect(a_q @ a_k.T),
            "square_k": expect(a_k @ a_k), "square_q": expect(a_q @ a_q),
            "mean_k": expect(a_k), "mean_q": expect(a_q),
            "atom_traj": np.stack([expect(op) for op in sigma], axis=1),
            "top_layer_k": expect(top_k), "top_layer_q": expect(top_q)}


def _coherent_thermal_case():
    """A b-c coherence and a thermal Stokes seed: fills the Delta Q = +-1 blocks."""
    rho = rho_symmetric()
    rho[1, 2] = rho[2, 1] = 0.3
    atom = AtomConfig(gamma_ab=0.9, gamma_ac=1.1, gamma_db=1.0, gamma_dc=0.7, gamma_bc=0.4,
                      n_th_k=0.05, rho0=rho)
    pump = gauss_pulse(omega=8.0, center=0.4, width=0.15, detuning=-2.0, chirp=3.0)
    control = PulseSpec(shape="cw", omega_peak=4.0, detuning=1.0)
    # the thermal seed fills the top Stokes layer at cutoff 2; the guard is not under test
    cfg = OracleConfig(cutoff_k=2, cutoff_q=3, g_k=0.05, g_q=0.05, rtol=1e-11, atol=1e-14,
                       leak_tol=0.1)
    return atom, pump, control, np.linspace(0.0, 1.2, 25), cfg


def _preset_case(name):
    cfg = preset(name).scenarios[0]
    oracle_cfg = OracleConfig(cutoff_k=3, cutoff_q=3, g_k=0.01, g_q=0.01, rtol=1e-11, atol=1e-14)
    return cfg.atom, cfg.pump, cfg.control, np.linspace(0.0, cfg.t_end, 41), oracle_cfg


def _fig2b_case():
    return _preset_case("fig2b")


def _fig7c_case():
    """The control is off and the pump cw: L0 alone, with the pump folded in."""
    return _preset_case("fig7c")


def _fig7d_case():
    """Both drives cw, both folded into L0."""
    return _preset_case("fig7d")


@pytest.mark.parametrize("case", [_fig2b_case, _coherent_thermal_case, _fig7c_case, _fig7d_case])
def test_reachable_sector_matches_full_space(case):
    atom, pump, control, times, cfg = case()
    out = oracle_moments(atom, pump, control, times, cfg)
    reference = _full_space_moments(atom, pump, control, times, cfg)
    if case is _coherent_thermal_case:
        assert np.abs(reference["mean_k"]).max() > 1e-4  # the Delta Q = +-1 blocks are live
    for name, want in reference.items():
        # fig2b's top Fock layers peak near 1e-26, far below atol: no digit there is resolved
        scale = max(np.max(np.abs(want)), cfg.atol)
        assert np.max(np.abs(getattr(out, name) - want)) <= 1e-8 * scale, name


def test_diagonal_start_solves_only_the_charge_conserving_block(monkeypatch):
    """Q = n_k - n_q - [level in {a, b}] is conserved on both sides of rho."""
    lengths = []

    def recording_solve(fun, t_span, y0, *args, **kwargs):
        lengths.append(len(y0))
        return dop853.solve_ivp(fun, t_span, y0, *args, **kwargs)

    monkeypatch.setattr(oracle, "solve_ivp", recording_solve)
    cfg = preset("fig2b").scenarios[0]
    oracle_moments(cfg.atom, cfg.pump, cfg.control, np.linspace(0.0, cfg.t_end, 11),
                   OracleConfig(cutoff_k=3, cutoff_q=3))
    charge = np.array([n_k - n_q - (level < 2)  # ranks a, b, c, d = 0..3
                       for level in range(4) for n_k in range(4) for n_q in range(4)])
    pairs = int(np.sum(charge[:, None] == charge[None, :]))
    assert pairs == 672
    assert lengths == [pairs]


@pytest.mark.parametrize("name, control, length", [
    pytest.param("fig7c", None, 10, id="fig7c-10"),
    pytest.param("fig2b", None, 672, id="fig2b-672"),
    pytest.param("fig7b", PulseSpec("gaussian", omega_peak=0.0), 10, id="fig7b-zero-pulse-10"),
    pytest.param("fig7b", PulseSpec("gaussian", omega_peak=0.0, chirp=3.0), 10,
                 id="fig7b-zero-chirped-pulse-10")])
def test_only_drives_that_act_widen_the_solved_set(monkeypatch, name, control, length):
    """fig7c's switched-off control adds no piece, so its solve keeps 10 entries, not 672.

    From |c><c| the cw pump reaches |d,0,0>, g_k then |b,1,0>, and the decay
    d -> b |b,0,0><b,0,0|: nine entries among three kets, and one more.
    fig2b's two pulses reach the whole charge-conserving block.  A Gaussian
    control of zero amplitude, chirped or not, acts no more than an off()
    one: fig7b's pulsed pump alone reaches fig7c's 10 entries.
    """
    lengths = []

    def recording_solve(fun, t_span, y0, *args, **kwargs):
        lengths.append(len(y0))
        return dop853.solve_ivp(fun, t_span, y0, *args, **kwargs)

    monkeypatch.setattr(oracle, "solve_ivp", recording_solve)
    cfg = preset(name).scenarios[0]
    oracle_moments(cfg.atom, cfg.pump, control or cfg.control, np.linspace(0.0, cfg.t_end, 11),
                   OracleConfig())
    assert lengths == [length]


@pytest.mark.parametrize("name, label, count", [
    ("fig2b", "fig2b", 2), ("fig5", "fig5_coincident", 2), ("fig5", "fig5_intuitive", 3),
    ("fig7c", "fig7c", 1), ("fig7d", "fig7d", 1), ("fig4c", "fig4c", 5)])
def test_one_piece_per_time_dependence(name, label, count):
    """L0 with the steady drives, one piece per envelope of the unchirped pulses, two per chirp.

    fig2b's and fig5 coincident's pulses share one envelope; fig5
    intuitive's are displaced; fig7c and fig7d hold only steady drives;
    fig4c's two chirped pulses keep Omega and Omega* apart.
    """
    (cfg,) = [c for c in preset(name).scenarios if c.label == label]
    pieces, weights = _generator(cfg.atom, cfg.pump, cfg.control, 4, 4, 0.01, 0.01)
    assert len(pieces) == count
    assert len(weights(0.3)) == count


def test_small_generator_is_stored_dense(monkeypatch):
    """fig7c's 10 solved entries run on a dense generator, and give the sparse run's moments.

    fig2b's 672 entries stay sparse.
    """
    dense = []
    stacked = oracle._stacked

    def recording_stacked(pieces, keep):
        out = stacked(pieces, keep)
        dense.append(isinstance(out, np.ndarray))
        return out

    monkeypatch.setattr(oracle, "_stacked", recording_stacked)
    runs = []
    for name in ("fig7c", "fig2b"):
        cfg = preset(name).scenarios[0]
        runs.append(oracle_moments(cfg.atom, cfg.pump, cfg.control,
                                   np.linspace(0.0, cfg.t_end, 41), OracleConfig()))
    monkeypatch.setattr(oracle, "_DENSE_ENTRIES", 0)
    cfg = preset("fig7c").scenarios[0]
    runs.append(oracle_moments(cfg.atom, cfg.pump, cfg.control, np.linspace(0.0, cfg.t_end, 41),
                               OracleConfig()))
    assert dense == [True, False, False]
    ours, theirs = runs[0], runs[2]
    for name in ("n_k", "n_q", "pair", "mean_k", "mean_q", "atom_traj", "top_layer_k",
                 "top_layer_q"):
        want = getattr(theirs, name)
        assert np.max(np.abs(getattr(ours, name) - want)) <= 1e-13 * np.max(np.abs(want)), name


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
    l0, l_p, l_p_conj, l_c, l_c_conj = drive_liouvillian(atom, pump, control, dim_k, dim_q,
                                                          *couplings)
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


# no explain phase, as above
@settings(max_examples=40, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
@given(rates=st.tuples(RATE, RATE, RATE, RATE, RATE), detunings=st.tuples(REAL, REAL),
       couplings=st.tuples(RATE, RATE), cutoffs=st.tuples(st.integers(1, 3), st.integers(1, 3)))
def test_liouvillian_matches_sparse_kron_build(rates, detunings, couplings, cutoffs):
    """The outer-product build stores the reference's entries, each within 1 ulp."""
    pump = PulseSpec(shape="cw", omega_peak=8.0, detuning=detunings[0])
    control = PulseSpec(shape="cw", omega_peak=5.0, detuning=detunings[1])
    args = (AtomConfig(*rates), pump, control, cutoffs[0] + 1, cutoffs[1] + 1, *couplings)
    for ours, ref in zip(drive_liouvillian(*args), kron_liouvillian(*args), strict=True):
        ref.sort_indices()
        assert np.array_equal(ours.indptr, ref.indptr)
        assert np.array_equal(ours.indices, ref.indices)
        np.testing.assert_array_max_ulp(ours.data.real, ref.data.real, maxulp=1)
        np.testing.assert_array_max_ulp(ours.data.imag, ref.data.imag, maxulp=1)


DRIVE_KINDS = {"cw": ("cw", False), "pulse": ("gaussian", False),
               "chirped pulse": ("gaussian", True), "chirped cw": ("cw", True)}
CHIRP = REAL.filter(lambda x: x != 0)


# no explain phase, as above
@pytest.mark.parametrize("kinds, shared", [
    (("pulse", "pulse"), "center width"), (("pulse", "pulse"), ""),
    (("pulse", "pulse"), "center"), (("pulse", "pulse"), "width"),
    (("chirped pulse", "pulse"), ""), (("cw", "chirped cw"), ""),
    (("chirped cw", "chirped pulse"), "center width")])
@settings(max_examples=15, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
@given(rates=st.tuples(RATE, RATE, RATE, RATE, RATE), detunings=st.tuples(REAL, REAL),
       chirps=st.tuples(CHIRP, CHIRP), phases=st.tuples(REAL, REAL),
       couplings=st.tuples(RATE, RATE), cutoffs=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       centers=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
       widths=st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0)),
       t=st.floats(min_value=0.0, max_value=2.0))
def test_oracle_pieces_sum_to_the_per_drive_generator(kinds, shared, rates, detunings, chirps,
                                                      phases, couplings, cutoffs, centers,
                                                      widths, t):
    """The oracle's folded and grouped pieces, weighted at t, give L(t) of one piece per Omega.

    The control takes the pump's center, width or both as `shared` names
    them: two unchirped pulses share one envelope only when both match.
    """
    specs = []
    for i, kind in enumerate(kinds):
        shape, chirped = DRIVE_KINDS[kind]
        center = centers[0 if "center" in shared else i]
        width = widths[0 if "width" in shared else i]
        specs.append(PulseSpec(shape, omega_peak=(8.0, 5.0)[i], center=center,
                               width=width, detuning=detunings[i],
                               chirp=chirps[i] if chirped else 0.0, phase0=phases[i]))
    args = (AtomConfig(*rates), *specs, cutoffs[0] + 1, cutoffs[1] + 1, *couplings)
    pieces, weights = _generator(*args)
    ours = sum(w * piece for w, piece in zip(weights(t), pieces, strict=True))
    theirs = sum(w * piece for w, piece in zip(drive_weights(tuple(specs), t),
                                               drive_liouvillian(*args), strict=True))
    assert abs(ours - theirs).max() <= 1e-12 * abs(theirs).max()
