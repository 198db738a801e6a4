import numpy as np
import pytest

from ramanpairs.errors import ConfigError
from ramanpairs.pulses import PulseSpec, off, rabi


def test_gaussian_peak_value():
    spec = PulseSpec(shape="gaussian", omega_peak=10.0, center=1.3, width=0.4)
    assert rabi(spec, 1.3) == pytest.approx(10.0 + 0.0j)


def test_gaussian_width_is_one_over_e():
    spec = PulseSpec(shape="gaussian", omega_peak=10.0, center=0.5, width=1.0 / 15.0)
    for t in (spec.center - spec.width, spec.center + spec.width):
        assert abs(rabi(spec, t)) == pytest.approx(10.0 * np.exp(-1.0), rel=1e-12)


def test_cw_with_pi_phase():
    spec = PulseSpec(shape="cw", omega_peak=5.0, phase0=np.pi)
    for t in (0.0, 0.7, 12.0):
        assert rabi(spec, t) == pytest.approx(-5.0 + 0.0j, abs=1e-12)


def test_rejects_non_finite_time():
    spec = off()
    with pytest.raises(ValueError):
        rabi(spec, np.nan)
    with pytest.raises(ValueError):
        rabi(spec, np.inf)


def test_magnitude_bounded_and_even_about_center():
    spec = PulseSpec(shape="gaussian", omega_peak=7.0, center=2.0, width=0.3,
                     chirp=40.0, phase0=0.9)
    offsets = np.linspace(0.0, 1.2, 30)
    left = np.array([abs(rabi(spec, spec.center - u)) for u in offsets])
    right = np.array([abs(rabi(spec, spec.center + u)) for u in offsets])
    assert np.allclose(left, right, atol=1e-13)
    assert np.max(left) <= spec.omega_peak + 1e-12


def test_chirp_preserves_magnitude():
    flat = PulseSpec(shape="gaussian", omega_peak=3.0, center=0.5, width=0.2)
    chirped = PulseSpec(shape="gaussian", omega_peak=3.0, center=0.5, width=0.2, chirp=500.0)
    for t in np.linspace(0.0, 1.0, 50):
        assert np.isclose(abs(rabi(flat, t)), abs(rabi(chirped, t)), atol=1e-13)


def test_chirp_sign_conjugates():
    plus = PulseSpec(shape="gaussian", omega_peak=3.0, center=0.5, width=0.2, chirp=120.0)
    minus = PulseSpec(shape="gaussian", omega_peak=3.0, center=0.5, width=0.2, chirp=-120.0)
    for t in np.linspace(0.0, 1.0, 50):
        assert np.isclose(rabi(minus, t), rabi(plus, t).conjugate(), atol=1e-13)


def test_chirp_origin_shifts_reference():
    spec = PulseSpec(shape="cw", omega_peak=1.0, chirp=10.0, chirp_origin=0.5)
    assert rabi(spec, 0.5) == pytest.approx(1.0 + 0.0j)
    # the quadratic phase is stationary at the origin: -alpha (t - t_ref)^2 on either side
    assert rabi(spec, 0.6) == pytest.approx(np.exp(-0.1j))
    assert rabi(spec, 0.4) == pytest.approx(np.exp(-0.1j))


def test_validation_errors():
    with pytest.raises(ConfigError):
        PulseSpec(shape="square", omega_peak=1.0)
    with pytest.raises(ConfigError):
        PulseSpec(shape="gaussian", omega_peak=1.0, width=0.0)
    with pytest.raises(ConfigError):
        PulseSpec(shape="cw", omega_peak=-2.0)
    with pytest.raises(ConfigError):
        PulseSpec(shape="cw", omega_peak=np.inf)
