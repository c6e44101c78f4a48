"""Mixed-radix state-vector simulator for a quantum nearest-element search.

Given an array of n-bit integers and a reference value, the package builds
the superposition-loading and bit-weighted comparison-rotation circuit,
computes exact index-register probabilities, samples shots reproducibly,
and cross-validates everything against a classical scan and closed-form
formulas.
"""

from .builder import (
    Circuit,
    CircuitGate,
    Mode,
    SearchProblem,
    apply_comparison_stage,
    build_circuit,
    build_layout,
    comparison_gates,
    copy_gates,
    execute_circuit,
    load_superposition,
    net_rotation_angle,
    rotation_schedule,
    run,
    superposition_gates,
    uses_score,
    value_bits,
)
from .errors import CapacityError, InvalidInputError, NormDriftError, SimulatorError
from .gates import Gate, comparison_gate, fourier, hadamard, pauli_x, rx
from .measure import (
    IndexDistribution,
    ShotCounts,
    decide,
    index_distribution,
    sample,
)
from .oracle import (
    OracleReport,
    SweepRow,
    agreement_sweep,
    classical_nearest,
    closed_form_generalized,
    closed_form_paper,
    sweep_table,
)
from .state import (
    MultiplexedFlip,
    MultiplexedRotation,
    RegisterLayout,
    Role,
    Site,
    StateVector,
    apply_controlled,
    init_basis_state,
    marginal_probabilities,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "Circuit",
    "CircuitGate",
    "Gate",
    "IndexDistribution",
    "InvalidInputError",
    "Mode",
    "MultiplexedFlip",
    "MultiplexedRotation",
    "NormDriftError",
    "OracleReport",
    "RegisterLayout",
    "Role",
    "SearchProblem",
    "ShotCounts",
    "SimulatorError",
    "Site",
    "StateVector",
    "SweepRow",
    "agreement_sweep",
    "apply_comparison_stage",
    "apply_controlled",
    "build_circuit",
    "build_layout",
    "classical_nearest",
    "closed_form_generalized",
    "closed_form_paper",
    "comparison_gate",
    "comparison_gates",
    "copy_gates",
    "decide",
    "execute_circuit",
    "fourier",
    "hadamard",
    "index_distribution",
    "init_basis_state",
    "load_superposition",
    "marginal_probabilities",
    "net_rotation_angle",
    "pauli_x",
    "rotation_schedule",
    "run",
    "rx",
    "sample",
    "superposition_gates",
    "sweep_table",
    "uses_score",
    "value_bits",
]
