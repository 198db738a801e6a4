import numpy as np
import pytest

from ramanpairs.atom import AtomConfig
from ramanpairs.moments import MomentSeries, SplitMoment, compute_moments
from ramanpairs.noise import diffusion_table
from ramanpairs.observables import (assemble_observables, cauchy_schwarz, duan, g2_phase,
                                    noise_fractions)
from ramanpairs.presets import preset
from ramanpairs.propagator import build_propagator_grid
from ramanpairs.pulses import PulseSpec
from ramanpairs.runner import run_scenario

from conftest import gauss_pulse, rho_symmetric


def _series(n, value=0.0):
    return np.full(n, value, dtype=complex)


def _manual_moments(n=5, *, pair=0.0, n_k=0.0, n_q=0.0, mean_k=0.0, mean_q=0.0):
    def split(total):
        return SplitMoment(boundary=_series(n, total), noise=_series(n),
                           backaction=_series(n), initial=0.0)

    return MomentSeries(
        times=np.linspace(0.0, 1.0, n),
        pair=split(pair), n_k=split(n_k), n_q=split(n_q),
        mean_k=_series(n, mean_k), mean_q=_series(n, mean_q))


def test_independent_thermal_modes_give_one_half():
    ms = _manual_moments(n_k=0.4, n_q=0.9)
    g, defined = cauchy_schwarz(ms)
    assert defined.all()
    assert np.allclose(g, 0.5)


def test_degenerate_denominator_flagged_not_raised():
    ms = _manual_moments()
    g, defined = cauchy_schwarz(ms)
    assert not defined.any()
    assert np.isnan(g).all()


def test_vacuum_duan_is_two():
    d, d_opt = duan(_manual_moments())
    assert np.allclose(d, 2.0)
    assert np.allclose(d_opt, 2.0)


def test_decoupled_thermal_duan():
    ms = _manual_moments(n_k=0.1, n_q=0.1)
    d, _ = duan(ms)
    assert np.allclose(d, 2.4)


def test_duan_optimized_bounds():
    ms = _manual_moments(pair=0.05 * np.exp(1.2j), n_k=0.1, n_q=0.08)
    d, d_opt = duan(ms)
    assert (d_opt <= d + 1e-14).all()
    # at phase pi the fixed quadratures are already optimal
    ms_pi = _manual_moments(pair=-0.05, n_k=0.1, n_q=0.08)
    d_pi, d_opt_pi = duan(ms_pi)
    assert np.allclose(d_pi, d_opt_pi)


def test_duan_cancellation_symbolically():
    """Quadrature algebra: the <a^2> and <a_q^dag a_k> terms drop out of D."""
    sympy = pytest.importorskip("sympy")
    n_k, n_q = sympy.symbols("n_k n_q", real=True)
    re = {name: sympy.Symbol(f"re_{name}", real=True)
          for name in ("pair", "cross", "sq_k", "sq_q")}
    im = {name: sympy.Symbol(f"im_{name}", real=True)
          for name in ("pair", "cross", "sq_k", "sq_q")}

    def moment(name):
        return re[name] + sympy.I * im[name]

    # ordered second moments of the two modes (means removed)
    def x_sq(n, sq):
        return sympy.Rational(1, 2) * (2 * n + 1 + sq + sympy.conjugate(sq))

    def p_sq(n, sq):
        return sympy.Rational(1, 2) * (2 * n + 1 - sq - sympy.conjugate(sq))

    pair, cross = moment("pair"), moment("cross")
    x_cross = sympy.Rational(1, 2) * (pair + sympy.conjugate(pair)
                                      + cross + sympy.conjugate(cross))
    p_cross = sympy.Rational(1, 2) * (-pair - sympy.conjugate(pair)
                                      + cross + sympy.conjugate(cross))
    d = (x_sq(n_k, moment("sq_k")) + x_sq(n_q, moment("sq_q")) + 2 * x_cross
         + p_sq(n_k, moment("sq_k")) + p_sq(n_q, moment("sq_q")) - 2 * p_cross)
    closed_form = 2 + 2 * n_k + 2 * n_q + 4 * re["pair"]
    assert sympy.simplify(sympy.expand(d - closed_form)) == 0


def test_duan_matches_numeric_covariance():
    """Var(u) + Var(v) from the covariances of x_k, x_q, p_k, p_q, no squeezing or cross moment."""
    rng = np.random.default_rng(11)
    pair = complex(rng.normal(), rng.normal()) * 0.03
    n_k, n_q = 0.21, 0.13
    ms = _manual_moments(pair=pair, n_k=n_k, n_q=n_q)
    var_k, var_q = 0.5 * (2 * n_k + 1), 0.5 * (2 * n_q + 1)  # Var x = Var p in each mode
    cov_x, cov_p = pair.real, -pair.real  # Cov(x_k, x_q), Cov(p_k, p_q)
    direct = (var_k + var_q + 2 * cov_x) + (var_k + var_q - 2 * cov_p)
    d, _ = duan(ms)
    assert d[0] == pytest.approx(direct, rel=1e-12)


def _relate_residual(ms):
    """|D_linear - 2(1 + n_k + n_q) - 4 sqrt(n_k n_q (g2 - 1)) cos phi_kq|, NaN where g2 is."""
    n_k, n_q, pair = ms.n_k.linear.real, ms.n_q.linear.real, ms.pair.linear
    g2, phi = g2_phase(ms)
    d_linear = 2.0 + 2.0 * n_k + 2.0 * n_q + 4.0 * pair.real
    return np.abs(2.0 * (1.0 + n_k + n_q) + 4.0 * np.sqrt(n_k * n_q * (g2 - 1.0)) * np.cos(phi)
                  - d_linear)


def test_relate_identity_exact_when_cross_vanishes():
    """The D <-> g2 relation closes with the cross moment <a_q a_k^dag> at zero, as it always is."""
    ms = _manual_moments(pair=-0.07, n_k=0.2, n_q=0.3)
    g2, phi = g2_phase(ms)
    assert np.max(_relate_residual(ms)) < 1e-14
    assert np.allclose(phi, np.pi)
    assert np.allclose(g2, 1.0 + 0.07**2 / (0.2 * 0.3))


def test_relate_identity_on_fig2b():
    """The linear-family D of fig2b is 2(1 + n_k + n_q) + 4 sqrt(n_k n_q (g2 - 1)) cos phi_kq.

    To a few ulp of D ~ 2 (4.4e-16 seen), wherever g2 is defined.
    """
    (cfg,) = preset("fig2b").scenarios
    ms = run_scenario(cfg).moments
    residual = _relate_residual(ms)
    assert np.isfinite(residual).sum() > 1000
    assert np.nanmax(residual) < 1e-14


@pytest.mark.parametrize("n_q", [1e-35, -1e-35])
def test_relate_undecided_at_rounding_level_photon_numbers(n_q):
    """n_k n_q below CS_FLOOR leaves g2 undecided (NaN), whatever the sign of n_q."""
    ms = _manual_moments(n_k=7.7e-13, n_q=n_q)
    g2, phi = g2_phase(ms)
    assert np.isnan(g2).all()
    assert np.isfinite(phi).all()


def test_noise_fraction_flags_undefined_with_decoupled_modes():
    atom = AtomConfig(g_k=0.0, g_q=0.0, rho0=rho_symmetric())
    pump = PulseSpec(shape="cw", omega_peak=5.0)
    grid = build_propagator_grid(atom, pump, pump, 1.0, 120)
    ms = compute_moments(atom, grid, diffusion_table(atom))
    frac_k, frac_q = noise_fractions(ms)
    assert np.isnan(frac_k).all()
    assert np.isnan(frac_q).all()


def _observables_for(g_scale, n_points=240, n_th=0.0):
    atom = AtomConfig(g_k=0.1 * g_scale, g_q=0.1 * g_scale,
                      n_th_k=n_th, n_th_q=n_th, rho0=rho_symmetric())
    pump = gauss_pulse(omega=10.0, center=0.5, width=1.0 / 15.0)
    grid = build_propagator_grid(atom, pump, pump, 2.0, n_points)
    ms = compute_moments(atom, grid, diffusion_table(atom))
    return ms, assemble_observables(ms)


def test_gcs_invariant_under_coupling_doubling():
    _, obs1 = _observables_for(1.0)
    _, obs2 = _observables_for(2.0)
    mask = obs1.cs_defined & obs2.cs_defined
    rel = np.abs(obs1.g_cs[mask] - obs2.g_cs[mask]) / np.abs(obs1.g_cs[mask])
    assert rel.max() < 1e-6


def test_duan_excess_quadruples_under_coupling_doubling():
    _, obs1 = _observables_for(1.0)
    _, obs2 = _observables_for(2.0)
    excess1 = obs1.duan_d - 2.0
    excess2 = obs2.duan_d - 2.0
    # below ~1e-8 the D - 2 subtraction hits the double-precision floor of D ~ 2
    mask = np.abs(excess1) > 1e-8
    assert mask.sum() > 50
    rel = np.abs(excess2[mask] - 4.0 * excess1[mask]) / np.abs(4.0 * excess1[mask])
    assert rel.max() < 1e-6


def test_thermal_occupation_raises_duan_pointwise():
    _, cold = _observables_for(1.0)
    _, warm = _observables_for(1.0, n_th=0.25)
    assert np.all(warm.duan_d > cold.duan_d + 0.9)  # +2(n_k + n_q) = +1 exactly


def test_assembled_series_shapes_consistent(small_driven_run):
    *_, ms, obs = small_driven_run
    n = len(ms.times)
    for name in ("n_k", "n_q", "g_cs", "duan_d", "duan_d_optimized", "g2",
                 "phi_kq", "noise_fraction_k", "noise_fraction_q"):
        assert getattr(obs, name).shape == (n,)
    assert obs.cs_defined.dtype == bool
    assert obs.duan_d.min() >= 0.0
    assert np.all(obs.duan_d_optimized <= obs.duan_d + 1e-14)
