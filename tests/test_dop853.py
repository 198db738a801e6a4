"""ramanpairs.dop853 against scipy.integrate.solve_ivp(method="DOP853"), and its failure path."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from ramanpairs import dop853, oracle
from ramanpairs.errors import IntegrationError
from ramanpairs.oracle import OracleConfig, oracle_moments
from ramanpairs.presets import preset

# The verifier's points: fig2a's and fig7c-d's cw drives, fig2b's pulses of one envelope,
# fig4c's chirped pulses, fig5's four orderings and fig7a-b's pulsed pump alone
POINTS = [(name, i) for name, runs in (("fig2a", 1), ("fig2b", 1), ("fig4c", 1), ("fig5", 4),
                                       ("fig7a", 1), ("fig7b", 1), ("fig7c", 1), ("fig7d", 1))
          for i in range(runs)]
MOMENTS = ("pair", "cross", "n_k", "n_q", "square_k", "square_q", "mean_k", "mean_q",
           "top_layer_k", "top_layer_q")


def _oracle_run(monkeypatch, cfg, solver):
    """oracle_moments as run_verification calls it, on the given solver; (moments, nfev)."""
    nfevs = []

    def counted(*args, **kwargs):
        sol = solver(*args, **kwargs)
        nfevs.append(sol.nfev)
        return sol

    monkeypatch.setattr(oracle, "solve_ivp", counted)
    oracle_cfg = OracleConfig()
    atom = replace(cfg.atom, g_k=oracle_cfg.g_k, g_q=oracle_cfg.g_q)
    times = np.linspace(0.0, cfg.t_end, cfg.grid_points + 1)[::max(1, cfg.grid_points // 40)]
    out = oracle_moments(atom, cfg.pump, cfg.control, times, oracle_cfg)
    return out, nfevs[0]


@pytest.mark.parametrize("name, index", POINTS, ids=[f"{n}-{i}" for n, i in POINTS])
def test_oracle_matches_scipy_dop853(monkeypatch, name, index):
    """The same steps as SciPy's DOP853: equal nfev, moments equal to summation order.

    Each moment is compared column by column against the column's largest
    value.  The atom's populations and coherences drift further apart with
    the order of the stage sums: fig7d's |d><d| column, at 3.7e-12 of its
    maximum, is the largest gap, and with SciPy's order of the sums the two
    solvers agree bit for bit.
    """
    cfg = preset(name).scenarios[index]
    want, want_nfev = _oracle_run(monkeypatch, cfg, scipy_solve_ivp)
    got, got_nfev = _oracle_run(monkeypatch, cfg, dop853.solve_ivp)
    assert got_nfev == want_nfev
    for field, tol in [(field, 1e-12) for field in MOMENTS] + [("atom_traj", 1e-11)]:
        a, b = np.atleast_2d(getattr(want, field).T).T, np.atleast_2d(getattr(got, field).T).T
        scale = np.max(np.abs(a), axis=0)
        assert np.all(np.abs(a - b) <= tol * scale), field


def test_real_scalar_ode_keeps_y0_and_meets_the_closed_form():
    """dy/dt = -2 y from y(0.3) = 1.5: t_eval[0] = t0 gives y0 exactly, t_end the exponential."""
    t_eval = np.linspace(0.3, 2.0, 7)
    rtol = 1e-9
    kwargs = dict(t_eval=t_eval, rtol=rtol, atol=1e-12)
    sol = dop853.solve_ivp(lambda t, y: -2.0 * y, (0.3, 2.0), [1.5], **kwargs)
    ref = scipy_solve_ivp(lambda t, y: -2.0 * y, (0.3, 2.0), [1.5], method="DOP853", **kwargs)
    assert sol.success and sol.status == 0 and sol.y.dtype == float
    assert sol.y.shape == (1, 7) and np.array_equal(sol.t, t_eval)
    assert sol.y[0, 0] == 1.5
    exact = 1.5 * np.exp(-2.0 * (2.0 - 0.3))
    assert abs(sol.y[0, -1] - exact) <= rtol * exact
    assert sol.nfev == ref.nfev
    np.testing.assert_allclose(sol.y, ref.y, rtol=1e-13)


@pytest.mark.parametrize("onset, outputs", [(0.5, 5), (0.0, 0)])
def test_nan_right_hand_side_fails_within_bounded_evaluations(onset, outputs):
    """NaN from t = onset on: every step reaching it is rejected until one falls below 10 ulp.

    The run stops with status -1 and the outputs before the onset; the steps
    creep towards it, each rejection costing 12 evaluations, but the count
    stays bounded.  A NaN derivative at t0 makes the initial step NaN, and
    the first step then starts at the 10 ulp floor.
    """
    def rhs(t, y):
        return -y if t < onset else np.full_like(y, np.nan)

    t_eval = np.linspace(0.0, 1.0, 11)
    sol = dop853.solve_ivp(rhs, (0.0, 1.0), np.ones(3, dtype=complex), t_eval=t_eval,
                           rtol=1e-8, atol=1e-11)
    assert not sol.success and sol.status == -1
    assert sol.message == dop853.TOO_SMALL_STEP
    assert sol.nfev < 2000
    assert np.array_equal(sol.t, t_eval[:outputs])
    assert np.all(np.isfinite(sol.y)) and sol.y.shape == (3, outputs)


def test_oracle_raises_integration_error_where_the_drive_turns_nan(monkeypatch):
    """A pulse envelope that turns NaN at t = 1 stops the oracle with a time, not a NaN table."""
    envelope = oracle.envelope
    monkeypatch.setattr(oracle, "envelope",
                        lambda spec, t: envelope(spec, t) if t < 1.0 else float("nan"))
    cfg = preset("fig2b").scenarios[0]
    with pytest.raises(IntegrationError, match="oracle integration failed") as caught:
        oracle_moments(cfg.atom, cfg.pump, cfg.control, np.linspace(0.0, cfg.t_end, 31))
    assert caught.value.time is not None and caught.value.time < 1.0


def test_bad_arguments_raise():
    rhs = lambda t, y: -y  # noqa: E731
    for kwargs in (dict(method="RK45"), dict(t_eval=[0.5, 0.2]), dict(t_eval=[1.5])):
        kwargs = {"t_eval": [0.0, 1.0], **kwargs}
        with pytest.raises(ValueError):
            dop853.solve_ivp(rhs, (0.0, 1.0), [1.0], **kwargs)
    with pytest.raises(ValueError):
        dop853.solve_ivp(rhs, (1.0, 0.0), [1.0], t_eval=[0.5])
    with pytest.raises(ValueError):
        dop853.solve_ivp(rhs, (0.0, 1.0), [np.nan], t_eval=[0.5])
