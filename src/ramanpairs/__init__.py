"""Transient photon-pair nonclassicality from a pulse-driven double-Raman atom."""

from .algebra import contract, dagger, idx, levels
from .atom import AtomConfig, evolve_state
from .errors import ConfigError, CutoffError, IntegrationError
from .moments import MomentSeries, compute_moments
from .noise import DiffusionTable, diffusion_matrix, diffusion_table
from .observables import ObservableSeries, assemble_observables
from .oracle import OracleConfig, OracleMoments, oracle_moments
from .propagator import PropagatorGrid, build_propagator_grid, propagate_from
from .pulses import PulseSpec, rabi

__version__ = "0.1.0"

__all__ = [
    "AtomConfig", "ConfigError", "CutoffError", "DiffusionTable",
    "IntegrationError", "MomentSeries", "ObservableSeries",
    "OracleConfig", "OracleMoments", "PropagatorGrid", "PulseSpec",
    "assemble_observables", "build_propagator_grid", "compute_moments",
    "contract", "dagger", "diffusion_matrix", "diffusion_table",
    "evolve_state", "idx", "levels", "oracle_moments", "propagate_from", "rabi",
    "__version__",
]
