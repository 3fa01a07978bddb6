"""Fidelity statistics for multi-qubit state transfer over spin-1/2 chains.

The names below are the documented entry points; everything else is imported
from its module (e.g. ``from spintransfer.dynmap import tensor_product``).
"""

from .amplitudes import chain_transition_matrix, transfer_amplitude_series, transfer_amplitudes
from .chain import ChainSpec, resonance_report, spectral
from .dynmap import fidelity_evaluator, map_from_evolution, validate_cptp
from .errors import (
    DimensionCapError,
    FreeFermionError,
    MapConstructionError,
    MapValidationError,
    ResonanceError,
    SolverError,
)
from .fidelity import FidelityStats, stats_from_map
from .oracle import McResult, haar_sample_fidelity
from .protocol import fidelity_scan, find_optimal_time, scan_values

__all__ = [
    "ChainSpec",
    "DimensionCapError",
    "FidelityStats",
    "FreeFermionError",
    "MapConstructionError",
    "MapValidationError",
    "McResult",
    "ResonanceError",
    "SolverError",
    "chain_transition_matrix",
    "fidelity_evaluator",
    "fidelity_scan",
    "find_optimal_time",
    "haar_sample_fidelity",
    "map_from_evolution",
    "resonance_report",
    "scan_values",
    "spectral",
    "stats_from_map",
    "transfer_amplitude_series",
    "transfer_amplitudes",
    "validate_cptp",
]
