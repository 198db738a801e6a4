"""Transient photon-pair nonclassicality from a pulse-driven double-Raman atom."""

from .algebra import contract, dagger, idx, levels
from .atom import AtomConfig, evolve_state
from .errors import ConfigError, CutoffError, IntegrationError
from .moments import LadderSpec, MomentSeries, compute_moments, pair_moment, single_moment
from .noise import DiffusionTable, diffusion_matrix, diffusion_table
from .observables import ObservableSeries, assemble_observables
from .oracle import OracleConfig, OracleMoments, oracle_moments
from .propagator import PropagatorGrid, build_propagator_grid, propagate_from
from .pulses import PulseSpec, instantaneous_detuning, rabi

__version__ = "0.1.0"

__all__ = [
    "AtomConfig", "ConfigError", "CutoffError", "DiffusionTable",
    "IntegrationError", "LadderSpec", "MomentSeries", "ObservableSeries",
    "OracleConfig", "OracleMoments", "PropagatorGrid", "PulseSpec",
    "assemble_observables", "build_propagator_grid", "compute_moments",
    "contract", "dagger", "diffusion_matrix", "diffusion_table",
    "evolve_state", "idx", "instantaneous_detuning", "levels",
    "oracle_moments", "pair_moment", "propagate_from", "rabi", "single_moment",
    "__version__",
]
