"""Steady-state entanglement of two dissipative qubits coupled by a lossy mode.

The package builds Lindblad models of the driven qubit pair (with or without
the mediating bosonic mode), solves for steady states analytically and
numerically, and quantifies the stationary entanglement via concurrence,
negativity, and measurable witness operators.
"""

from .analytic import (
    DegenerateSystemError,
    closed_form,
    solve_linear_system,
    stationarity_residuals,
)
from .entangle import (
    PAULI_LABELS,
    NotEntangledError,
    Witness,
    concurrence,
    construct_witness,
    negativity,
    pair_operator,
    pauli_decompose,
    separable_floor,
    spin_flip,
)
from .lindblad import (
    DegenerateSteadyStateError,
    IntegrationError,
    Liouvillian,
    SteadyStateResult,
    build_liouvillian,
    effective_basis,
    effective_liouvillians,
    evolve,
    steady_state,
)
from .model import (
    DimensionlessParams,
    LindbladModel,
    PhysicalParams,
    adiabatic_amplitude,
    build_effective_model,
    build_full_model,
    dressed_energies,
    map_physical,
)
from .qops import (
    IDENTITY_2,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    TWO_QUBITS,
    DensityMatrix,
    HilbertSpace,
    InvalidStateError,
    Operator,
    partial_trace,
    partial_transpose,
    trace_distance,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateSteadyStateError",
    "DegenerateSystemError",
    "DensityMatrix",
    "DimensionlessParams",
    "HilbertSpace",
    "IDENTITY_2",
    "IntegrationError",
    "InvalidStateError",
    "LindbladModel",
    "Liouvillian",
    "NotEntangledError",
    "Operator",
    "PAULI_LABELS",
    "PhysicalParams",
    "SIGMA_MINUS",
    "SIGMA_PLUS",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SteadyStateResult",
    "TWO_QUBITS",
    "Witness",
    "adiabatic_amplitude",
    "build_effective_model",
    "build_full_model",
    "build_liouvillian",
    "closed_form",
    "concurrence",
    "construct_witness",
    "dressed_energies",
    "effective_basis",
    "effective_liouvillians",
    "evolve",
    "map_physical",
    "negativity",
    "pair_operator",
    "partial_trace",
    "partial_transpose",
    "pauli_decompose",
    "separable_floor",
    "solve_linear_system",
    "spin_flip",
    "stationarity_residuals",
    "steady_state",
    "trace_distance",
]
