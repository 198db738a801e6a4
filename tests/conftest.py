"""Shared helpers: cached pipeline runs keyed by an explicit label.

HYPOTHESIS_PROFILE=ci selects a derandomized Hypothesis profile, so a
property test that fails on CI fails the same way on every rerun.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from ramanpairs.atom import AtomConfig
from ramanpairs.moments import compute_moments
from ramanpairs.noise import diffusion_table
from ramanpairs.observables import assemble_observables
from ramanpairs.propagator import build_propagator_grid
from ramanpairs.pulses import PulseSpec

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def rho_symmetric() -> np.ndarray:
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 0.5
    rho[2, 2] = 0.5
    return rho


def gauss_pulse(omega=10.0, center=0.5, width=1.0 / 15.0, **kwargs) -> PulseSpec:
    return PulseSpec(shape="gaussian", omega_peak=omega, center=center, width=width, **kwargs)


class PipelineCache:
    """Run-once store for the expensive propagator/moment computations."""

    def __init__(self):
        self._store = {}

    def run(self, key, atom, pump, control, t_end=3.0, n=600, rtol=1e-9):
        if key not in self._store:
            grid = build_propagator_grid(atom, pump, control, t_end, n, rtol=rtol)
            diffusion = diffusion_table(atom)
            moments = compute_moments(atom, grid, diffusion)
            self._store[key] = (grid, diffusion, moments, assemble_observables(moments))
        return self._store[key]


@pytest.fixture(scope="session")
def pipeline_cache() -> PipelineCache:
    return PipelineCache()


@pytest.fixture(scope="session")
def small_driven_run(pipeline_cache):
    """A short pulsed run with decays, coherences and both drives active."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 0.4
    rho[2, 2] = 0.55
    rho[3, 3] = 0.05
    rho[1, 2] = 0.1 + 0.05j
    rho[2, 1] = np.conj(rho[1, 2])
    atom = AtomConfig(gamma_ab=0.8, gamma_ac=1.1, gamma_db=1.3, gamma_dc=0.6,
                      gamma_bc=0.2, g_k=0.07, g_q=0.11, rho0=rho)
    pump = gauss_pulse(omega=6.0, center=0.4, width=0.15, detuning=-2.0, phase0=0.3)
    control = PulseSpec(shape="cw", omega_peak=3.0, detuning=1.0, phase0=-0.2)
    grid, diffusion, moments, obs = pipeline_cache.run(
        "small_driven", atom, pump, control, t_end=1.2, n=240)
    return atom, pump, control, grid, diffusion, moments, obs
