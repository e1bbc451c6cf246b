"""Quantum beam propagation toolkit.

Statevector circuit simulation of the Fourier-space propagation pipeline
(forward QFT, diagonal transfer phases synthesized from two's-complement
digit expansions, inverse QFT), validated against a classical FFT
propagator and analytic optics references, with a shot-sampling error
analysis harness.
"""

from .circuit import MAX_QUBITS, Circuit, Gate, Hadamard, PhaseGate, Swap, fold_phase, scaled_phase
from .classical_bpm import DispersionPolynomial, Field, GridSpec, propagate_1d, propagate_2d, rmse
from .propagator import (
    build_monomial_propagator,
    build_qbpm_circuit,
    build_qbpm_circuit_2d,
    decompose_monomial,
    signed_index_weights,
)
from .qft import build_iqft, build_qft
from .qstate import SampleCounts, StateVector
from .scenarios import (
    DEFAULT_DOUBLE_SLIT,
    DEFAULT_GAUSSIAN_2D,
    DoubleSlitParams,
    ErrorStats,
    GaussianParams,
    double_slit_analytic,
    double_slit_initial,
    double_slit_runner,
    error_analysis,
    gaussian_initial_2d,
    gaussian_runner,
    waist_from_counts,
    waist_from_field,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "DEFAULT_DOUBLE_SLIT",
    "DEFAULT_GAUSSIAN_2D",
    "DispersionPolynomial",
    "DoubleSlitParams",
    "ErrorStats",
    "Field",
    "Gate",
    "GaussianParams",
    "GridSpec",
    "Hadamard",
    "MAX_QUBITS",
    "PhaseGate",
    "SampleCounts",
    "StateVector",
    "Swap",
    "build_iqft",
    "build_monomial_propagator",
    "build_qbpm_circuit",
    "build_qbpm_circuit_2d",
    "build_qft",
    "decompose_monomial",
    "double_slit_analytic",
    "double_slit_initial",
    "double_slit_runner",
    "error_analysis",
    "fold_phase",
    "gaussian_initial_2d",
    "gaussian_runner",
    "propagate_1d",
    "propagate_2d",
    "rmse",
    "scaled_phase",
    "signed_index_weights",
    "waist_from_counts",
    "waist_from_field",
    "__version__",
]
