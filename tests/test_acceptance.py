"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Three resolved readings are baked in here and recorded in the project notes:

* Criterion 5, symmetric-initial-condition clause: at the fig5 drive
  parameters the model is exactly invariant under relabeling b<->c, a<->d,
  k<->q, which forces D(rho_bb=rho_cc=0.5) == D(rho_cc=1) for coincident
  equal drives; the literal clause would assert both X < 2 and X >= 2 of the
  same number.  The test verifies that degeneracy explicitly and asserts the
  source statement it paraphrases: the correlation-optimized configuration
  (short symmetric-init pulses) yields no entanglement window.

* Criterion 7, coupling-halving clause: at g = 0.01 the pipeline/oracle
  discrepancy sits at the shared quadrature floor (~0.1%), far below the 5%
  gate, so the quadratic shrink is demonstrated at g = 0.1 -> 0.05 where the
  O(g^2) physics term resolves above that floor.

* Criterion 4: no single chirp rate satisfies the identical-chirp
  invariance (needs alpha sigma^2 <~ 0.5) and the opposite-chirp wing
  enhancement (needs alpha sigma^2 > 1) simultaneously, so each preset
  carries its own documented rate: fig4b at 50, fig4c/d at 225.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
from scipy.signal import find_peaks

from ramanpairs.atom import AtomConfig
from ramanpairs.noise import diffusion_table
from ramanpairs.oracle import OracleConfig, oracle_moments
from ramanpairs.presets import CHIRP_STRONG, preset
from ramanpairs.propagator import build_propagator_grid
from ramanpairs.runner import run_scan, run_scenario

from reference import POPULATION0, density_matrix, normal_ordered, propagate_from

_CACHE: dict[str, object] = {}


def _cached(key, factory):
    if key not in _CACHE:
        _CACHE[key] = factory()
    return _CACHE[key]


def _preset_scenario(name, label=None):
    chosen = preset(name)
    if label is None:
        (cfg,) = chosen.scenarios
        return cfg
    return next(c for c in chosen.scenarios if c.label == label)


def _run_preset(name, label=None):
    key = f"{name}:{label}"
    return _cached(key, lambda: run_scenario(_preset_scenario(name, label)))


def _defined_gcs(result):
    return np.where(result.observables.cs_defined, result.observables.g_cs, np.nan)


def _longest_window_above_one(result) -> float:
    g = _defined_gcs(result)
    above = np.isfinite(g) & (g > 1.0)
    step = result.times[1] - result.times[0]
    best = current = 0
    for flag in above:
        current = current + 1 if flag else 0
        best = max(best, current)
    return best * step


def _report(number, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} [{elapsed:.1f}s/<{budget:.0f}s] {detail}")


def test_criterion_1_nutation_period():
    start = time.perf_counter()
    result = _run_preset("fig2a")
    g = _defined_gcs(result)
    finite = np.isfinite(g)
    minima, _ = find_peaks(-g[finite])
    spacings = np.diff(result.times[finite][minima])
    median = float(np.median(spacings))
    target = np.pi / 10.0
    deviation = abs(median - target) / target
    elapsed = time.perf_counter() - start
    ok = deviation <= 0.10 and len(spacings) >= 3 and elapsed < 30
    _report(1, "nutation period", ok,
            f"median minima spacing {median:.4f} vs pi/Omega {target:.4f}, "
            f"deviation {100*deviation:.2f}% over {len(spacings)} gaps", elapsed, 30)
    assert len(spacings) >= 3
    assert deviation <= 0.10
    assert elapsed < 30


def test_criterion_2_pulse_enhancement():
    start = time.perf_counter()
    pulsed = _run_preset("fig2b")
    cw = _run_preset("fig2a")
    peak_pulsed = np.nanmax(_defined_gcs(pulsed))
    peak_cw = np.nanmax(_defined_gcs(cw))
    window = _longest_window_above_one(pulsed)
    elapsed = time.perf_counter() - start
    ok = peak_pulsed > 1.0 and window >= 0.3 and peak_pulsed > peak_cw and elapsed < 120
    _report(2, "pulse enhancement", ok,
            f"peak g_cs {peak_pulsed:.2f} (cw {peak_cw:.3f}), "
            f"g_cs>1 sustained for {window:.3f}", elapsed, 120)
    assert peak_pulsed > 1.0
    assert window >= 0.3
    assert peak_pulsed > peak_cw
    assert elapsed < 120


def test_criterion_3_width_trend():
    start = time.perf_counter()
    scan_cfg = preset("fig3a").scan
    assert tuple(scan_cfg.scan.values) == (0.2, 0.1, 1.0 / 15.0)
    result = _cached("fig3a_scan", lambda: run_scan(scan_cfg))
    peaks = [row["peak_g_cs"] for row in result.rows]
    elapsed = time.perf_counter() - start
    ok = peaks[0] < peaks[1] < peaks[2] and elapsed < 300
    _report(3, "width trend", ok,
            "peak g_cs " + " < ".join(f"{p:.2f}" for p in peaks)
            + " as width shrinks 1/5 -> 1/10 -> 1/15", elapsed, 300)
    assert peaks[0] < peaks[1] < peaks[2]
    assert elapsed < 300


def test_criterion_4_chirp_effects():
    start = time.perf_counter()
    base = np.nanmax(_defined_gcs(_run_preset("fig2b")))
    identical = np.nanmax(_defined_gcs(_run_preset("fig4b")))
    overlap = np.nanmax(_defined_gcs(_run_preset("fig4d")))

    def separated(chirped):
        sign = 1.0 if chirped else 0.0
        cfg = _preset_scenario("fig2b")
        pump = replace(cfg.pump, chirp=sign * CHIRP_STRONG, chirp_origin=cfg.pump.center)
        control = replace(cfg.control, center=2.0, chirp=-sign * CHIRP_STRONG,
                          chirp_origin=2.0)
        return run_scenario(replace(cfg, pump=pump, control=control,
                                    label=f"separated_{chirped}"))

    sep_plain = np.nanmax(_defined_gcs(_cached("sep_plain", lambda: separated(False))))
    sep_chirp = np.nanmax(_defined_gcs(_cached("sep_chirp", lambda: separated(True))))

    identical_change = abs(identical / base - 1.0)
    overlap_ratio = overlap / base
    separated_change = abs(sep_chirp / sep_plain - 1.0)
    elapsed = time.perf_counter() - start
    ok = (identical_change < 0.2 and overlap_ratio > 2.0 and separated_change < 0.2
          and elapsed < 600)
    _report(4, "chirp effects", ok,
            f"identical chirp change {100*identical_change:.1f}%, "
            f"opposite+overlap {overlap_ratio:.2f}x unchirped, "
            f"fully separated change {100*separated_change:.1f}%", elapsed, 600)
    assert identical_change < 0.2
    assert overlap_ratio > 2.0
    assert separated_change < 0.2
    assert elapsed < 600


def test_criterion_5_entanglement_scenarios():
    start = time.perf_counter()
    coincident = _run_preset("fig5", "fig5_coincident").min_duan()
    intuitive = _run_preset("fig5", "fig5_intuitive").min_duan()
    counter = _run_preset("fig5", "fig5_counterintuitive").min_duan()

    # symmetric initial state at the fig5 drive parameters: provably equal to
    # the coincident case under the b<->c, a<->d, k<->q relabeling
    def symmetric_fig5():
        cfg = _preset_scenario("fig5", "fig5_coincident")
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = rho[2, 2] = 0.5
        return run_scenario(replace(cfg, atom=AtomConfig(rho0=rho), label="fig5_symmetric"))

    sym_fig5 = _cached("fig5_symmetric", symmetric_fig5).min_duan()
    degeneracy = abs(sym_fig5 - coincident)

    # the source contrast: the correlation-optimized short-pulse configuration
    # (symmetric populations, fig2b drives) opens no D < 2 window
    sym_short = _run_preset("fig2b").min_duan()

    eps = 1e-9
    elapsed = time.perf_counter() - start
    ok = (coincident < 2.0 and intuitive >= 2.0 - eps and counter >= 2.0 - eps
          and degeneracy < 2e-5 and sym_short >= 2.0 - eps and elapsed < 300)
    _report(5, "entanglement scenarios", ok,
            f"min D coincident {coincident:.6f} < 2, intuitive {intuitive:.6f}, "
            f"counter-intuitive {counter:.6f}, symmetric@fig5 {sym_fig5:.6f} "
            f"(= coincident to {degeneracy:.1e}), symmetric short-pulse {sym_short:.6f}",
            elapsed, 300)
    assert coincident < 2.0
    assert intuitive >= 2.0 - eps
    assert counter >= 2.0 - eps
    # mirror-symmetry degeneracy of the literal symmetric clause, kept visible
    assert degeneracy < 2e-5
    assert sym_short >= 2.0 - eps
    assert elapsed < 300


def test_criterion_6_thermal_degradation():
    start = time.perf_counter()
    cold = _run_preset("fig5", "fig5_coincident")

    def warmed():
        cfg = _preset_scenario("fig5", "fig5_coincident")
        atom = AtomConfig(n_th_k=0.5, n_th_q=0.5)
        return run_scenario(replace(cfg, atom=atom, label="fig5_thermal"))

    warm = _cached("fig5_thermal", warmed)
    raised_everywhere = np.all(warm.observables.duan_d > cold.observables.duan_d)
    min_warm = warm.min_duan()
    elapsed = time.perf_counter() - start
    ok = raised_everywhere and min_warm >= 2.0 and elapsed < 120
    _report(6, "thermal degradation", ok,
            f"D raised pointwise: {bool(raised_everywhere)}, "
            f"min D with n_th=0.5 is {min_warm:.4f} (window destroyed)", elapsed, 120)
    assert raised_everywhere
    assert min_warm >= 2.0
    assert elapsed < 120


def _oracle_comparison(preset_name, g, cutoff, grid_points=None, rtol=None):
    cfg = _preset_scenario(preset_name)
    if grid_points:
        cfg = replace(cfg, grid_points=grid_points)
    if rtol:
        cfg = replace(cfg, rtol=rtol)
    atom = replace(cfg.atom, g_k=g, g_q=g)
    cfg = replace(cfg, atom=atom)
    pipeline = run_scenario(cfg)
    stride = max(1, cfg.grid_points // 40)
    times = pipeline.times[::stride]
    oracle_rtol = min(1e-8, (rtol or 1e-8))
    oracle = oracle_moments(atom, cfg.pump, cfg.control, times,
                            OracleConfig(cutoff_k=cutoff, cutoff_q=cutoff, g_k=g, g_q=g,
                                         dim_cap=512, rtol=oracle_rtol,
                                         atol=oracle_rtol * 1e-3))
    sel = slice(None, None, stride)
    ms = pipeline.moments
    worst = 0.0
    for pipe, orc in ((ms.n_k.total[sel].real, oracle.n_k.real),
                      (ms.n_q.total[sel].real, oracle.n_q.real),
                      (np.abs(ms.pair.total[sel]), np.abs(oracle.pair))):
        mask = np.abs(orc) > 1e-12
        if mask.any():
            worst = max(worst, float(np.max(np.abs(pipe[mask] - orc[mask])
                                            / np.abs(orc[mask]))))
    return worst


def test_criterion_7_oracle_equivalence():
    start = time.perf_counter()
    agree_2b = _cached("oracle_2b", lambda: _oracle_comparison("fig2b", 0.01, 3))
    agree_7c = _cached("oracle_7c", lambda: _oracle_comparison("fig7c", 0.01, 3))
    # quadratic-shrink probe where the O(g^2) term resolves above the
    # quadrature floor; cutoff 4 keeps truncation leakage in bounds there
    err_high = _cached("oracle_g_high",
                       lambda: _oracle_comparison("fig2b", 0.10, 4, 2400, 1e-10))
    err_low = _cached("oracle_g_low",
                      lambda: _oracle_comparison("fig2b", 0.05, 4, 2400, 1e-10))
    shrink = err_high / err_low
    elapsed = time.perf_counter() - start
    ok = agree_2b < 0.05 and agree_7c < 0.05 and shrink >= 3.0 and elapsed < 600
    _report(7, "oracle equivalence", ok,
            f"worst rel err fig2b {100*agree_2b:.3f}%, fig7c {100*agree_7c:.3f}% "
            f"(gate 5%); halving g shrinks discrepancy {shrink:.2f}x "
            f"({err_high:.4f} -> {err_low:.4f})", elapsed, 600)
    assert agree_2b < 0.05
    assert agree_7c < 0.05
    assert shrink >= 3.0
    assert elapsed < 600


def test_criterion_8_structural_invariants():
    start = time.perf_counter()
    result = _run_preset("fig2b")
    cfg = result.config

    # trace conservation and positivity along the trajectory
    grid = _cached("fig2b_grid", lambda: build_propagator_grid(
        cfg.atom, cfg.pump, cfg.control, cfg.t_end, 400))
    trace_drift = np.max(np.abs(grid.state_traj[:, POPULATION0].sum(axis=1) - 1.0))
    min_eig = min(np.linalg.eigvalsh(
        0.5 * (density_matrix(x) + density_matrix(x).conj().T)).min()
        for x in grid.state_traj[::40])

    # two-time propagator composition on the same drive
    times = grid.times[::4]
    u_full = propagate_from(0, cfg.atom, cfg.pump, cfg.control, times)
    composition = 0.0
    for j, i in ((20, 70), (35, 90), (10, 99)):
        u_tail = propagate_from(j, cfg.atom, cfg.pump, cfg.control, times)
        composition = max(composition, float(np.max(np.abs(
            u_full[i] - u_tail[i - j] @ u_full[j]))))

    # diffusion table structure: 2D(t_j) = X(t_j) . Lambda
    einstein = diffusion_table(cfg.atom).einstein
    d2 = [np.tensordot(x, einstein, 1) for x in grid.state_traj[::40]]
    pop_rule = max(float(np.max(np.abs(d[POPULATION0, :].sum(axis=0)))) for d in d2)
    psd_floor = min(float(np.linalg.eigvalsh(
        0.5 * (normal_ordered(d) + normal_ordered(d).conj().T)).min()) for d in d2)

    # coupling-doubling scalings
    def doubled(scale):
        atom = replace(cfg.atom, g_k=cfg.atom.g_k * scale, g_q=cfg.atom.g_q * scale)
        return run_scenario(replace(cfg, atom=atom, grid_points=400,
                                    label=f"fig2b_g{scale}"))

    run1 = _cached("fig2b_gx1", lambda: doubled(1.0))
    run2 = _cached("fig2b_gx2", lambda: doubled(2.0))
    mask = run1.observables.cs_defined & run2.observables.cs_defined
    gcs_shift = float(np.max(np.abs(run2.observables.g_cs[mask]
                                    - run1.observables.g_cs[mask])
                             / np.abs(run1.observables.g_cs[mask])))
    excess1 = run1.observables.duan_d - 2.0
    excess2 = run2.observables.duan_d - 2.0
    dmask = np.abs(excess1) > 1e-8
    quad_shift = float(np.max(np.abs(excess2[dmask] - 4.0 * excess1[dmask])
                              / np.abs(4.0 * excess1[dmask])))

    # grid halving at the default resolution; the relative comparison uses
    # the same > 1e-12 significance gate as the oracle criterion
    fine = _cached("fig2b_fine", lambda: run_scenario(
        replace(cfg, grid_points=2 * cfg.grid_points, label="fig2b_fine")))
    halving = 0.0
    for name in ("g_cs", "duan_d", "n_k", "n_q"):
        a = getattr(result.observables, name)
        b = getattr(fine.observables, name)[::2]
        both = np.isfinite(a) & np.isfinite(b) & (np.abs(b) > 1e-12)
        halving = max(halving, float(np.max(np.abs(a[both] - b[both]) / np.abs(b[both]))))

    elapsed = time.perf_counter() - start
    checks = {
        "trace drift < 1e-10": trace_drift < 1e-10,
        "rho positivity >= -1e-8": min_eig >= -1e-8,
        "composition < 1e-8": composition < 1e-8,
        "diffusion sum rule < 1e-10": pop_rule < 1e-10,
        "normal-ordered PSD >= -1e-9": psd_floor >= -1e-9,
        "g_cs doubling invariance < 1e-6": gcs_shift < 1e-6,
        "(D-2) quadrupling < 1e-6": quad_shift < 1e-6,
        "grid halving < 1%": halving < 0.01,
    }
    ok = all(checks.values()) and elapsed < 300
    _report(8, "structural invariants", ok,
            f"trace {trace_drift:.1e}, eig {min_eig:.1e}, compose {composition:.1e}, "
            f"sum5 {pop_rule:.1e}, psd {psd_floor:.1e}, gcs x2 {gcs_shift:.1e}, "
            f"D-2 x4 {quad_shift:.1e}, halving {100*halving:.2f}%", elapsed, 300)
    for label, passed in checks.items():
        assert passed, label
    assert elapsed < 300


def test_criterion_9_noise_split_orderings():
    start = time.perf_counter()

    def peak_fraction(name):
        result = _run_preset(name)
        ms = result.moments
        emitted = ms.n_k.boundary.real + ms.n_k.noise.real
        i = int(np.argmax(emitted))
        return float(ms.n_k.noise.real[i] / emitted[i])

    frac = {name: peak_fraction(name) for name in ("fig7a", "fig7b", "fig7c", "fig7d")}
    elapsed = time.perf_counter() - start
    ok = (frac["fig7a"] > frac["fig7c"] and frac["fig7a"] > frac["fig7b"]
          and frac["fig7d"] > frac["fig7c"] and elapsed < 300)
    _report(9, "noise split orderings", ok,
            "peak-n_k noise fractions: " +
            ", ".join(f"{k} {100*v:.2f}%" for k, v in frac.items()), elapsed, 300)
    assert frac["fig7a"] > frac["fig7c"]
    assert frac["fig7a"] > frac["fig7b"]
    assert frac["fig7d"] > frac["fig7c"]
    assert elapsed < 300
